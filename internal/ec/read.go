package ec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godm/internal/bufpool"
	"godm/internal/des"
)

// FetchFunc reads shard idx of a stripe fully into dst. It must not retain
// or touch dst after returning (the transport.ScatterReader contract).
type FetchFunc func(ctx context.Context, idx int, dst []byte) error

// ReadOpts shapes one ReadInto call.
type ReadOpts struct {
	// Hedge arms the tail-latency timer: if the k data fetches have not all
	// completed after this long, parity fetches launch and the read completes
	// from the fastest k shards. Zero disables the timer (parity still
	// launches immediately when a data fetch fails).
	Hedge time.Duration
	// OnHedge fires when the hedge timer launches parity fetches.
	OnHedge func()
	// OnDegraded fires when the read had to reconstruct (a donor dead or
	// outrun by the hedge).
	OnDegraded func()
}

// ReadInto assembles a stripe's payload into dst (whose length is the
// payload's raw length) by fetching data shards scatter-style — each shard's
// bytes land directly in its dst region — and reconstructing from parity
// when donors fail or dawdle. On return dst is complete and no fetch touches
// it again; internal scratch buffers may be released asynchronously once
// their in-flight fetches drain.
//
// When ctx carries a simulated process the plan is the deterministic one: data
// shards are fetched one at a time in index order and parity only on error. A
// simulated process must issue its fabric ops serially from its own goroutine,
// and the chaos replay tests rely on the resulting fixed op sequence.
func (c *Code) ReadInto(ctx context.Context, dst []byte, fetch FetchFunc, opts ReadOpts) error {
	if len(dst) == 0 {
		return fmt.Errorf("ec: empty read destination")
	}
	if des.Simulated(ctx) {
		return c.readSerial(ctx, dst, fetch, opts)
	}
	return c.readConcurrent(ctx, dst, fetch, opts)
}

// dataDst returns the fetch destination for data shard j: a window of dst
// when the shard lies fully inside it, otherwise a pooled scratch buffer
// (the stripe tail is zero-padded past len(dst)).
func dataDst(dst []byte, j, shardLen int) (buf []byte, scratch bool) {
	start := j * shardLen
	if start+shardLen <= len(dst) {
		return dst[start : start+shardLen], false
	}
	return bufpool.Get(shardLen), true
}

// copyTail copies the useful prefix of a scratch-fetched data shard back
// into dst.
func copyTail(dst []byte, j, shardLen int, buf []byte) {
	start := j * shardLen
	if start < len(dst) {
		copy(dst[start:], buf[:len(dst)-start])
	}
}

func (c *Code) readSerial(ctx context.Context, dst []byte, fetch FetchFunc, opts ReadOpts) error {
	s := c.ShardLen(len(dst))
	total := c.k + c.m
	shards := make([][]byte, total)
	present := make([]bool, total)
	var scratch [][]byte
	defer func() {
		for _, b := range scratch {
			bufpool.Put(b)
		}
	}()
	got := 0
	var lastErr error
	for j := 0; j < c.k; j++ {
		buf, isScratch := dataDst(dst, j, s)
		if isScratch {
			scratch = append(scratch, buf)
		}
		shards[j] = buf
		if err := fetch(ctx, j, buf); err != nil {
			lastErr = err
			continue
		}
		present[j] = true
		got++
	}
	if got < c.k {
		if opts.OnDegraded != nil {
			opts.OnDegraded()
		}
		for i := c.k; i < total && got < c.k; i++ {
			buf := bufpool.Get(s)
			scratch = append(scratch, buf)
			shards[i] = buf
			if err := fetch(ctx, i, buf); err != nil {
				lastErr = err
				continue
			}
			present[i] = true
			got++
		}
		if got < c.k {
			return fmt.Errorf("%w: %w", ErrShortShards, lastErr)
		}
		if err := c.reconstructData(shards, present); err != nil {
			return err
		}
	}
	for j := 0; j < c.k; j++ {
		if j*s+s > len(dst) {
			copyTail(dst, j, s, shards[j])
		}
	}
	return nil
}

func (c *Code) readConcurrent(ctx context.Context, dst []byte, fetch FetchFunc, opts ReadOpts) error {
	s := c.ShardLen(len(dst))
	total := c.k + c.m
	shards := make([][]byte, total)
	var scratch [][]byte

	results := make(chan int, total) // completed shard indices (ok or failed)
	errs := make([]error, total)
	cancels := make([]context.CancelFunc, total)
	done := make([]bool, total)
	ok := make([]bool, total)
	var wg sync.WaitGroup
	launched := make([]bool, total)
	launch := func(i int) {
		if launched[i] {
			return
		}
		launched[i] = true
		fctx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fetch(fctx, i, shards[i])
			results <- i
		}()
	}

	for j := 0; j < c.k; j++ {
		buf, isScratch := dataDst(dst, j, s)
		if isScratch {
			scratch = append(scratch, buf)
		}
		shards[j] = buf
		launch(j)
	}

	hedged := false
	hedgeParity := func() {
		if hedged {
			return
		}
		hedged = true
		for i := c.k; i < total; i++ {
			buf := bufpool.Get(s)
			scratch = append(scratch, buf)
			shards[i] = buf
			launch(i)
		}
	}

	var timerC <-chan time.Time
	var timer *time.Timer
	if opts.Hedge > 0 {
		timer = time.NewTimer(opts.Hedge)
		timerC = timer.C
		defer timer.Stop()
	}

	// releaseLater hands the scratch buffers back to the pool only after
	// every in-flight fetch has drained: a cancelled straggler may write its
	// own buffer right up to its return.
	releaseLater := func() {
		go func() {
			wg.Wait()
			for _, b := range scratch {
				bufpool.Put(b)
			}
		}()
	}
	cancelPending := func() {
		for i := 0; i < total; i++ {
			if launched[i] && !done[i] && cancels[i] != nil {
				cancels[i]()
			}
		}
	}
	// drainPending waits for every launched fetch to report, so no goroutine
	// can still be writing into dst (or a buffer we are about to decode into).
	drainPending := func() {
		remaining := 0
		for i := 0; i < total; i++ {
			if launched[i] && !done[i] {
				remaining++
			}
		}
		for ; remaining > 0; remaining-- {
			idx := <-results
			done[idx] = true
			ok[idx] = errs[idx] == nil
		}
	}

	okData, okTotal, pending := 0, 0, c.k
	var lastErr error
	for okData < c.k && okTotal < c.k {
		// Give up once the outstanding and unlaunched fetches cannot reach k.
		spare := 0
		if !hedged {
			spare = c.m
		}
		if okTotal+pending+spare < c.k {
			break
		}
		select {
		case idx := <-results:
			pending--
			done[idx] = true
			if errs[idx] == nil {
				ok[idx] = true
				okTotal++
				if idx < c.k {
					okData++
				}
			} else {
				lastErr = errs[idx]
				if !hedged {
					hedgeParity()
					pending += c.m
				}
			}
		case <-timerC:
			timerC = nil
			if !hedged {
				if opts.OnHedge != nil {
					opts.OnHedge()
				}
				hedgeParity()
				pending += c.m
			}
		}
	}

	if okData == c.k {
		// Fast path: every data shard landed in place. Any hedged parity
		// fetches still in flight write only into scratch; cancel them and
		// let the drain release scratch in the background.
		cancelPending()
		for j := 0; j < c.k; j++ {
			if j*s+s > len(dst) {
				copyTail(dst, j, s, shards[j])
			}
		}
		releaseLater()
		return nil
	}

	// Reconstruction (or failure): wait until nothing is writing into dst.
	cancelPending()
	drainPending()
	defer func() {
		for _, b := range scratch {
			bufpool.Put(b)
		}
	}()
	okTotal = 0
	for i := 0; i < total; i++ {
		if ok[i] {
			okTotal++
		}
	}
	if okTotal < c.k {
		if lastErr == nil {
			lastErr = ctx.Err()
		}
		return fmt.Errorf("%w: %w", ErrShortShards, lastErr)
	}
	if opts.OnDegraded != nil {
		opts.OnDegraded()
	}
	if err := c.reconstructData(shards, ok); err != nil {
		return err
	}
	for j := 0; j < c.k; j++ {
		if j*s+s > len(dst) {
			copyTail(dst, j, s, shards[j])
		}
	}
	return nil
}
