#!/usr/bin/env bash
# Observability-plane smoke test: boot a real 3-node dmnode cluster on default
# control-plane flags, let the metrics digests ride two heartbeat rounds to
# the root, then assert the root's /cluster aggregate equals the sum of the
# per-node /metrics counters — the end-to-end contract of the tree-aggregated
# observability plane. Also exercises /healthz, /debug/flight, dmctl top, and
# the scriptable dmctl stats -q figures. CI runs this after the unit suites;
# it also works locally (`./scripts/obs_smoke.sh`).
set -euo pipefail

cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/dmnode" ./cmd/dmnode
go build -o "$bin/dmctl" ./cmd/dmctl

"$bin/dmnode" -id 1 -listen 127.0.0.1:7471 -http 127.0.0.1:9471 -recv-mib 16 -shared-mib 16 -tick 500ms \
  -peers "2=127.0.0.1:7472,3=127.0.0.1:7473" &
"$bin/dmnode" -id 2 -listen 127.0.0.1:7472 -http 127.0.0.1:9472 -recv-mib 16 -shared-mib 16 -tick 500ms \
  -peers "1=127.0.0.1:7471,3=127.0.0.1:7473" &
"$bin/dmnode" -id 3 -listen 127.0.0.1:7473 -http 127.0.0.1:9473 -recv-mib 16 -shared-mib 16 -tick 500ms \
  -peers "1=127.0.0.1:7471,2=127.0.0.1:7472" &

for port in 9471 9472 9473; do
  for i in $(seq 1 50); do
    curl -fsS -o /dev/null "http://127.0.0.1:$port/metrics" 2>/dev/null && break
    sleep 0.2
    [ "$i" = 50 ] && { echo "dmnode :$port /metrics never came up" >&2; exit 1; }
  done
done

# Park entries on every node so each one's remote_allocs counter moves, then
# stop driving traffic and let >=2 heartbeat rounds relay the final digests to the
# root. Counters are quiescent after that, so the comparison can be exact.
"$bin/dmctl" -node 1=127.0.0.1:7471 put 101 "alpha"
"$bin/dmctl" -node 2=127.0.0.1:7472 put 202 "beta"
"$bin/dmctl" -node 3=127.0.0.1:7473 put 303 "gamma"
sleep 2.5

# The root is not statically known: it is whichever node's folded store
# covers all 3 contributors.
root_port=""
for port in 9471 9472 9473; do
  if curl -fsS "http://127.0.0.1:$port/cluster" | grep -q "cluster view: 3 contributors"; then
    root_port=$port
    break
  fi
done
[ -n "$root_port" ] || { echo "no node's /cluster covers all 3 contributors" >&2; exit 1; }
echo "root digest store found on :$root_port"

cluster_out=$(curl -fsS "http://127.0.0.1:$root_port/cluster")
agg=$(awk '/^core\/remote_allocs /{print $2}' <<<"$cluster_out")
[ -n "$agg" ] || { echo "aggregate core/remote_allocs missing from /cluster:" >&2; echo "$cluster_out" >&2; exit 1; }

want=0
for port in 9471 9472 9473; do
  per_node=$(curl -fsS "http://127.0.0.1:$port/metrics" | awk '/^godm_node_core_remote_allocs /{print $2}')
  want=$((want + per_node))
done
if [ "$agg" -ne "$want" ] || [ "$want" -eq 0 ]; then
  echo "aggregate remote_allocs $agg != per-node sum $want (or no traffic):" >&2
  echo "$cluster_out" >&2
  exit 1
fi
echo "aggregate remote_allocs $agg == per-node sum $want"

# Liveness and the flight recorder answer on every node.
for port in 9471 9472 9473; do
  curl -fsS "http://127.0.0.1:$port/healthz" | grep -q "state serving" || { echo ":$port /healthz not serving" >&2; exit 1; }
  # No -q: the dump outgrows a pipe buffer, and grep leaving at the first match
  # fails curl's write, which pipefail reports as a missing endpoint.
  curl -fsS "http://127.0.0.1:$port/debug/flight" | grep "flight recorder:" >/dev/null || { echo ":$port /debug/flight missing" >&2; exit 1; }
done

# dmctl rides the same digests over the fabric (no HTTP needed).
"$bin/dmctl" -node 1=127.0.0.1:7471 top | grep -q "cluster view:" || { echo "dmctl top gave no cluster view" >&2; exit 1; }
count=$("$bin/dmctl" -node 1=127.0.0.1:7471 -q count -op get stats)
p99=$("$bin/dmctl" -node 1=127.0.0.1:7471 -q p99 -op get stats)
case "$count" in ''|*[!0-9]*) echo "dmctl stats -q count gave non-number: $count" >&2; exit 1;; esac
[ -n "$p99" ] || { echo "dmctl stats -q p99 gave nothing" >&2; exit 1; }
echo "dmctl digest figures: get count=$count p99=$p99"

echo "obs smoke OK"
