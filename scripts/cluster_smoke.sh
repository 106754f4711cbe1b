#!/usr/bin/env bash
# Cluster observability smoke: a REAL multi-process 3-shard cluster —
# three dnnd-serve processes and one dnnd-router, each writing its own
# -trace file — takes traced load from dnnd-loadgen, then tracecheck
# -merge must join the four per-process files into one validated
# Perfetto timeline with cross-process parentage proven. This is the
# out-of-process half of the trace-assembly acceptance; the in-process
# half (with a replica hard-killed mid-load and the failover retry
# span asserted) is TestClusterTraceTimeline in internal/router.
set -euo pipefail
cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

echo "== build binaries"
go build -o "$dir/bin/" ./cmd/dnnd-construct ./cmd/dnnd-optimize \
  ./cmd/dnnd-serve ./cmd/dnnd-router ./cmd/dnnd-loadgen ./cmd/tracecheck

echo "== build + split a store (3 shards)"
"$dir/bin/dnnd-construct" -preset deep -n 900 -k 8 -store "$dir/store"
"$dir/bin/dnnd-optimize" -store "$dir/store" -split 3 -split-out "$dir/cluster"

# wait_port blocks until something listens on 127.0.0.1:$1.
wait_port() {
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then
      exec 3>&- 3<&-
      return 0
    fi
    sleep 0.1
  done
  echo "port $1 never came up" >&2
  return 1
}

base=$(( 17000 + RANDOM % 20000 ))
echo "== launch 3 traced shard servers + 1 traced router (ports from $base)"
shard_addrs=()
for s in 0 1 2; do
  port=$(( base + s ))
  "$dir/bin/dnnd-serve" -store "$dir/cluster/shard$s" \
    -addr "127.0.0.1:$port" -trace "$dir/shard$s.trace.json" \
    >"$dir/shard$s.log" 2>&1 &
  pids+=($!)
  shard_addrs+=("127.0.0.1:$port")
done
for s in 0 1 2; do wait_port $(( base + s )); done

rport=$(( base + 3 ))
"$dir/bin/dnnd-router" -manifest "$dir/cluster/manifest" \
  -shards "${shard_addrs[0]};${shard_addrs[1]};${shard_addrs[2]}" \
  -addr "127.0.0.1:$rport" -trace "$dir/router.trace.json" -probe 200ms \
  >"$dir/router.log" 2>&1 &
pids+=($!)
wait_port $rport

echo "== traced load through the router"
"$dir/bin/dnnd-loadgen" -addr "127.0.0.1:$rport" -n 500 -c 4 \
  -trace-sample 1 -out "$dir/load.json"
grep -q '"errors": 0' "$dir/load.json"
# Full sampling means the report must name its slowest traces.
grep -q '"slowest_traces"' "$dir/load.json"

echo "== drain all processes (flushes the per-process trace files)"
kill -TERM "${pids[@]}"
wait "${pids[@]}" 2>/dev/null || true
pids=()

echo "== merge + validate the cross-process timeline"
"$dir/bin/tracecheck" -merge -o "$dir/merged.json" -cross-min 1 \
  -require router.query -require router.scatter -require router.attempt \
  -require router.merge -require serve.query \
  "router=$dir/router.trace.json" \
  "shard0=$dir/shard0.trace.json" \
  "shard1=$dir/shard1.trace.json" \
  "shard2=$dir/shard2.trace.json"

echo "CLUSTER SMOKE OK"
