#!/usr/bin/env bash
# Allocation budget for the zero-copy data plane.
#
# Runs the hot transport benchmarks with -benchmem and fails if their heap
# traffic regresses above the checked-in thresholds.
#
#   BenchmarkTCPNetParallelRead (one-sided 4 KiB reads) sits at ~4100 B/op,
#   1 alloc/op — the one residual allocation is the result buffer the legacy
#   ReadRegion API hands the caller. Before the vectored-write/scatter-read
#   rewrite it ran at 4272 B/op, 7 allocs/op (BENCH_zerocopy.json), so the
#   thresholds fail on any return of per-frame staging copies or header/pool
#   boxing while leaving room for counter noise.
#
#   BenchmarkTCPNetCallV64K (the remote put's shape: a two-sided gather call
#   of a 32-byte header and a 64 KiB body, answered in 9 bytes) is held to
#   nothing on either side: the caller queues the body as an iovec, the server
#   reads it into a pooled buffer, a persistent call worker runs the handler
#   and the answer lands in a pooled buffer the caller releases. It read
#   ~150 B/op, 3 allocs/op — the answer, a goroutine per call and its
#   closure — before the workers and the pooled answer.
#
#   BenchmarkCodecPageCompress / BenchmarkCodecPageDecompress (the entry
#   codec on a ratio-2.0 page, into a caller's buffer) are held to literally
#   nothing: the block codec keeps no state, builds no tables and returns
#   pre-built errors, so one allocation per page is a regression. Their ns/op
#   is printed with the rest, not gated (~2 us and ~0.1 us on the 2-CPU host).
#
#   BenchmarkAllocFree / BenchmarkAllocRun64 (the slab allocator: one 2 KiB
#   block, and a 64-block window run on a pool laid out like a donor's — one
#   lock, 1 MiB slabs — taken and freed) are held to nothing as well: the
#   free bitmap is allocated with its slab, and a run comes back in the
#   caller's storage, so a donor's put allocates nothing for its blocks.
#   ns/op printed, not gated (~100 ns and ~1 us on the 2-CPU host).
#
#   BenchmarkProcessSwitch / BenchmarkSleepAlone (the simulation kernel: a
#   sleep that hands the run token to another process, and one whose own wake
#   is the next event, so the process keeps running) are held to nothing: a
#   queued wake rides by value in the event heap and the self-wake pushes no
#   event at all. ns/op printed, not gated (~600 ns and ~3 ns on the 2-CPU
#   host — two goroutine switches against none). These two rows run 200000
#   iterations, not 2000: a goroutine blocking on a channel draws a sudog
#   from a per-P cache the runtime refills by allocating, a few dozen times
#   in a run whatever its length (2 B/op at 2000x on some runs, 0 on others);
#   anything the kernel allocated per sleep would still read 16 B/op or more.
#   The two codec rows, the two slab rows, BenchmarkSwapTouch, the two core
#   rows and the two tcpnet rows run 200000 iterations for the same reason:
#   at 2000x a per-P cache refill read 1-2 B/op about one run in four and
#   failed a 0 B/op budget that nothing in the code had crossed.
#
#   BenchmarkSwapTouch (one page access of the Tiered swap manager on the
#   simulated testbed under the phase-changing trace, bench/'s swap-sim
#   configuration) sits at 36–39 B/op over 200000 accesses and prints
#   0 allocs/op (about 0.25 before rounding); its budget is twice that. No
#   allocation per admission or eviction — a page's state is a record in a
#   table indexed by page number, the LRU threaded through it — and none per
#   read: the span lands in the engine's scratch, the slot lists are the
#   manager's own, and the read beneath (the next row) allocates nothing. What
#   is left is the batch record and its slots per window flush and the core
#   put path under it. With a holder list built and an entry id boxed per read
#   this row read ~42 B/op; with list elements and map cells per admission
#   68 B/op, 2 allocs/op; when every read made and zeroed a result it threw
#   away, ~11100 B/op. ns/op printed, not gated (~0.8 us on the 2-CPU host).
#
#   BenchmarkRemoteGetInto (VirtualServer.GetInto of a 4 KiB rf3 entry over
#   simnet into the caller's buffer — the one read body under every swap-in,
#   whole or ranged) is held to nothing: the location's holder list goes to
#   the policy as recorded and no annotation boxes its value when no tracer
#   is attached. It read 2 allocs/op before both were fixed. ns/op printed,
#   not gated (0.4–0.7 us on the 2-CPU host).
#
#   BenchmarkHostWindow64 (the donor's side of one window with no transport
#   under it: handlePut of 64 entries of the 2 KiB class and handleRelease of
#   an older window, on a donor shaped like bench/'s) is held to nothing: an
#   owner record sits in a table made once per slab and is chained through a
#   bucket array made once per node, the 513-byte offset list comes from the
#   frame pool (the round releases it as tcpnet does once it is written) and
#   the 1-byte ok is one shared slice. It read 577 B/op, 2 allocs/op — the two
#   replies — before. ns/op printed, not gated (~8 us on the 2-CPU host;
#   ~27 us when the records lived in 32 hash maps behind 16 stripe locks).
#
#   BenchmarkClientWindowRound (bench/'s window4k-loop round on a loopback
#   pair with both ends in the process: PutAll, GetAllInto and DeleteAll of a
#   64-page compressed window) is held to nothing in either half: the
#   client's per-call slices are pooled scratch, its put and release requests
#   and every answer are pooled buffers, and calls run on persistent workers.
#   It read ~20 KB in 18 objects a round before. It runs 20000 rounds, not
#   200000 (~0.3 ms a round); the benchmark pays the handle map's and the
#   frame pool's one-time growth before its timer starts, which is what would
#   otherwise read as 2-8 B/op there. ns/op printed, not gated (~0.3 ms on
#   the 2-CPU host).
#
# Both tcpnet benchmarks dial every connection lane and fill the frame pool before
# their timer starts (warmLanes in internal/tcpnet/bench_test.go). They used
# not to, and 2000 iterations then charged ~360 KB of one-time set-up — two
# 64 KiB bufio readers per lane, the first pooled frames — to 2000 ops: the
# read row read 4246-4279 B/op against its 4224 budget on hosts with two
# lanes, with the steady state unchanged. The budget was right; the
# amortisation was not.
#
# Must run WITHOUT the race detector: its instrumentation allocates and would
# drown the signal (the zero-alloc AllocsPerRun tests skip under -race for
# the same reason).
set -eu

out=$(go test -run '^$' -bench 'BenchmarkTCPNetParallelRead$|BenchmarkTCPNetCallV64K$' -benchmem -benchtime 200000x ./internal/tcpnet/ &&
    go test -run '^$' -bench 'BenchmarkCodecPage(Compress|Decompress)$' -benchmem -benchtime 200000x ./internal/compress/ &&
    go test -run '^$' -bench 'BenchmarkAllocFree$|BenchmarkAllocRun64$' -benchmem -benchtime 200000x ./internal/slab/ &&
    go test -run '^$' -bench 'BenchmarkProcessSwitch$|BenchmarkSleepAlone$' -benchmem -benchtime 200000x ./internal/des/ &&
    go test -run '^$' -bench 'BenchmarkSwapTouch$' -benchmem -benchtime 200000x ./internal/swap/ &&
    go test -run '^$' -bench 'BenchmarkRemoteGetInto$|BenchmarkHostWindow64$' -benchmem -benchtime 200000x ./internal/core/ &&
    go test -run '^$' -bench 'BenchmarkClientWindowRound$' -benchmem -benchtime 20000x ./internal/core/)
echo "$out"

status=0
# check NAME MAX_B_PER_OP MAX_ALLOCS_PER_OP
check() {
    line=$(printf '%s\n' "$out" | grep "^$1" || true)
    b_per_op=$(printf '%s\n' "$line" | awk '{for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i - 1)}')
    allocs_per_op=$(printf '%s\n' "$line" | awk '{for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i - 1)}')
    ns_per_op=$(printf '%s\n' "$line" | awk '{for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i - 1)}')
    if [ -z "$b_per_op" ] || [ -z "$allocs_per_op" ]; then
        echo "alloc_budget: could not parse -benchmem output for $1" >&2
        status=1
        return
    fi
    if [ "$b_per_op" -gt "$2" ]; then
        echo "alloc_budget: $1 allocates $b_per_op B/op, budget is $2" >&2
        status=1
    fi
    if [ "$allocs_per_op" -gt "$3" ]; then
        echo "alloc_budget: $1 makes $allocs_per_op allocs/op, budget is $3" >&2
        status=1
    fi
    echo "alloc_budget: $1: $b_per_op B/op (budget $2), $allocs_per_op allocs/op (budget $3), $ns_per_op ns/op (not gated)"
}
check BenchmarkTCPNetParallelRead 4224 2
check BenchmarkTCPNetCallV64K 0 0
check BenchmarkCodecPageCompress 0 0
check BenchmarkCodecPageDecompress 0 0
check BenchmarkAllocFree 0 0
check BenchmarkAllocRun64 0 0
check BenchmarkProcessSwitch 0 0
check BenchmarkSleepAlone 0 0
check BenchmarkSwapTouch 76 1
check BenchmarkRemoteGetInto 0 0
check BenchmarkHostWindow64 0 0
check BenchmarkClientWindowRound 0 0
if [ "$status" -eq 0 ]; then
    echo "alloc_budget: OK"
fi
exit "$status"
