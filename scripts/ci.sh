#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): formatting, vet, build, full tests,
# and a race pass over the concurrency-heavy packages. Must stay green
# on every PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "gofmt needed:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== size (informational, not a gate)"
# Non-test Go lines outside benchmark/, the count ROADMAP item 8 tracks.
# .bench_build/ holds the benchmark's build scratch, where an interrupted
# build leaves generated Go files behind.
echo "non-test Go lines: $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
# Design-document sizes, ROADMAP item 8(c).
for doc in DESIGN.md EXPERIMENTS.md; do
  echo "$doc: $(( $(wc -c < "$doc") / 1024 )) KB"
done

echo "== cross-architecture (portable kernels, no fused float products)"
# The float32 L2 sweeps are AVX assembly on amd64 hosts with AVX and
# pure Go elsewhere; vet and build the other side so it cannot rot.
# A fused multiply-add in the assembly would round each product once
# less than the per-pair kernel and move distances off every golden.
if grep -nE '\bV(FMADD|FMSUB|FNMADD|FNMSUB)' internal/metric/*_amd64.s; then
  echo "fused multiply-add in the amd64 metric assembly" >&2
  exit 1
fi
# arm64 fuses x*y+z into
# one multiply-add unless the product is explicitly rounded, which
# would move distances off every golden pinned on amd64, so the metric
# package's arm64 listing must hold no fused op (and must not be empty).
GOARCH=arm64 go vet ./internal/metric/ ./internal/search/ ./internal/rptree/
GOARCH=386 go build ./...
listing="$(GOARCH=arm64 go build -gcflags=-S ./internal/metric/ 2>&1)"
if ! grep -q STEXT <<<"$listing"; then
  echo "no arm64 listing for internal/metric" >&2
  exit 1
fi
if grep -E '\b(FMADDS|FMSUBS|FNMADDS|FNMSUBS)\b' <<<"$listing"; then
  echo "fused multiply-add in the arm64 metric kernels" >&2
  exit 1
fi
# Every process of a TCP world computes the vertex owner table on its
# own (internal/core/shard.go, by internal/rptree's split), so the split
# keys' float64 products must round alike on every architecture as well.
# The generic split is instantiated where Partition is called; the root
# package's listing holds its dense instantiations, whose key method
# carries the products. Every dense rptree function is scanned, so a key
# inlined into its caller is checked there too.
listing="$(GOARCH=arm64 go build -gcflags='dnnd=-S' . 2>&1)"
keys="$(awk '/STEXT/{p=0} /rptree\.[^ ]*\[go\.shape\.(float32|uint8)\][^ ]* STEXT/{p=1} p' <<<"$listing")"
if grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' <<<"$keys"; then
  echo "fused multiply-add in the arm64 owner-table split keys" >&2
  exit 1
fi
if ! grep -q 'rptree\.(\*node\[go\.shape\.float32\])\.key STEXT' <<<"$keys" || ! grep -q 'FMULD' <<<"$keys"; then
  echo "no arm64 listing for rptree's split key" >&2
  exit 1
fi

echo "== go test"
go test ./...

echo "== examples (each is a self-checking main; run once)"
# go build ./... only compiles them; running each is what catches a
# default or API change that breaks one. persist writes only under
# os.TempDir, distributed listens on loopback only.
for ex in examples/*/; do
  timeout 60 go run "./$ex" >/dev/null
  echo "$ex ok"
done

echo "== go test (benchmark module)"
# benchmark/ is a nested module (dnnd/benchmark, replace dnnd => ../),
# so ./... above never sees it: its manifest check and smoke run would
# otherwise rot silently when an internal API they use changes.
go -C benchmark test ./...
# vet type-checks every file of the nested module, so an edit here that
# breaks one of its imports (core.BuildKernel, core.Partition,
# metric.KernelFor, Kernel.ManyMany, Result's timing fields, ...)
# fails now rather than at the next benchmark run.
go -C benchmark vet ./...

echo "== go test -race (comm + core)"
go test -race ./internal/ygm/ ./internal/core/

echo "== go test -race (construction worker pool ring, repeated)"
# The stage/claim/apply ring (internal/core/workpool.go) hands tasks
# between the applier and its helpers through one atomic claim cursor
# over a fixed slot array; a lost, doubly-claimed or doubly-applied
# task, or a race on a reused slot, shows up only on some schedules.
# These are the ring's own tests, against fake kernels and apply
# callbacks (exactly-once evaluation, compute-ahead past a held head,
# slot reuse, the staging-during-apply panic), plus the ring's bound at
# N ranks (a 4-rank local and a 3-rank TCP build), whose backlog
# depends on the schedule.
go test -race -count=20 -run '^(TestApplyOrderEqualsStageOrder|TestEachTaskEvaluatedOnce|TestStagingInsideApplyPanics|TestPendingHookTrueUntilLastApply|TestEvalPanicSurfacesOnApplier|TestStableQueryAliasSurvivesSlotReuse|TestStagedWorkStaysWithinRingBound|TestApplierComputesAheadOfClaimedHead)$' ./internal/core/

echo "== go test -race (keyed draws: rank-count independence, repeated)"
# Initialization and round 1's sampling must give the same lists at
# 1-4 ranks and pool widths 1 and 3 (the test sweeps both itself),
# whatever order the reverse entries arrive in. Arrival order changes
# only with the schedule, so one lucky run cannot show independence.
DNND_TEST_WORKERS=3 go test -race -count=10 -run '^TestDrawsIndependentOfRankCount$' ./internal/core/

echo "== go test -race (quiescence with deferred local work, repeated)"
# A barrier that releases while a rank still owes staged replies loses
# them only on some schedules; repeated so such a regression cannot
# hide behind a lucky one.
go test -race -count=50 -run 'TestBarrierWaitsForDeferredLocalWork' ./internal/ygm/

echo "== go test -race (shared connection layer: drain gate + shutdown-before-serve, repeated)"
# serve.Server and router.Router share one DrainGate/Acceptor. A gate
# that closes idle early, twice, or admits after Drain — or a Serve that
# misses a Shutdown which ran first — fails only on some schedules.
go test -race -count=20 -run 'TestDrainGate|TestShutdownBeforeServe' ./internal/serve/ ./internal/router/

echo "== go test -race (one protocol client: reply routing, repeated)"
# serve.Client shares one connection between pipelined queries and a
# control call, with one reader goroutine routing every reply. A reply
# routed to the wrong waiter, or a waiter never woken after a
# connection failure, shows up only on some schedules.
go test -race -count=20 -run 'TestClient' ./internal/serve/

echo "== go test -race (batch search: shared claim cursor, repeated)"
# search.Batch workers claim query indices from one atomic cursor and
# write disjoint result slots; a claim that hands one index out twice,
# skips one, or races a slot write shows up only on some schedules.
go test -race -count=5 -run 'TestBatch|TestEntriesFuncInBatch' ./internal/search/

echo "== go test -race (warm builds and store saves, repeated)"
# Refresh and Compact seed appended rows with one search.Batch
# over the prior graph, then run the ring; a race between the two, or a
# refresh that depends on the worker width, shows up only on some
# schedules. SaveMutable, which every store write goes through, freezes
# a tombstone set that concurrent deletes keep mutating. Split runs the
# same warm build once per shard, over a prior derived from the store's
# graph. TestSplitShardRecallNearCold is a recall check, not a
# concurrency test, and by far the slowest of them under -race, so it
# runs once.
go test -race -count=3 -run 'TestRefresh|TestCompact|TestSaveMutable|TestSplit' -skip 'TestSplitShardRecallNearCold' .
go test -race -count=1 -run 'TestSplitShardRecallNearCold' .

echo "== go test -race (online serving: server + loadgen in-process)"
# The serve e2e suite runs the whole subsystem — admission, workers,
# drain, loadgen — in-process on loopback; the race detector watches
# the scheduler, the connection writers, and the metrics.
go test -race -count=1 ./internal/serve/ ./internal/bootstrap/

echo "== go test -race (cluster router: scatter/gather, failover, e2e smoke)"
# The router suite includes the cluster e2e tests — a 2-shard ×
# 2-replica cluster of real serve servers behind a real router, with
# one replica hard-killed under open-loop load (zero client-visible
# failures) and a 3-shard exact-merge check against single-store
# ground truth — all raced: probers, failover demotions, and the
# scatter/gather hot path run concurrently by construction.
go test -race -count=1 ./internal/router/

echo "== go test -race (observability: tracks, registry, histograms)"
# Concurrent writers record onto lock-free tracks while an exporter
# snapshots them; histograms merge under concurrent Observe. The obs
# suite exercises all of it under the race detector.
go test -race -count=1 ./internal/obs/

echo "== go test -race (core with worker pools active)"
# Re-run the suite with every construction forced onto a 3-wide
# intra-rank worker pool; results are worker-count-independent, so the
# same assertions must hold while the race detector watches the
# stage/claim/apply machinery.
DNND_TEST_WORKERS=3 go test -race -count=1 ./internal/core/

echo "== go test -race (serve workers at a forced width)"
# The worker equivalence sweep re-runs with an extra forced worker
# count, so the admission queue, pooled contexts, and zero-copy reply
# writers are raced at a width the default suite doesn't cover.
DNND_TEST_WORKERS=3 go test -race -count=1 -run 'TestWorkerEquivalence' ./internal/serve/

echo "== fuzz smoke (message codecs, bulk LE codec, vector files, shard and store manifests)"
# Short native-fuzz bursts over the wire-facing decoders: corpus seeds
# plus a few seconds of mutation each. Full fuzzing is manual; this
# catches decoder panics on malformed bytes before they land.
go test -run='^$' -fuzz='^FuzzCoreMessages$' -fuzztime=2s ./internal/msg/
go test -run='^$' -fuzz='^FuzzManifest$' -fuzztime=2s ./internal/shard/
go test -run='^$' -fuzz='^FuzzOpen$' -fuzztime=2s ./internal/metall/
go test -run='^$' -fuzz='^FuzzServeMessages$' -fuzztime=2s ./internal/msg/
go test -run='^$' -fuzz='^FuzzRouterMessages$' -fuzztime=2s ./internal/msg/
go test -run='^$' -fuzz='^FuzzBulkCodec$' -fuzztime=2s ./internal/wire/
go test -run='^$' -fuzz='^FuzzRead$' -fuzztime=2s ./internal/vecio/
go test -run='^$' -fuzz='^FuzzTraceDecode$' -fuzztime=2s ./internal/obs/

echo "== trace smoke (3-rank traced build round-trips through the decoder)"
# A real traced construction must emit Perfetto-loadable JSON: decode,
# validate nesting, and find every construction phase plus the runtime
# spans — the executable form of the PR-5 acceptance criterion.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/dnnd-construct -preset deep -n 1200 -k 8 -ranks 3 \
  -store "$tracedir/store" -trace "$tracedir/trace.json"
go run ./cmd/tracecheck \
  -require nd.init -require nd.sample -require nd.reverse -require nd.check \
  -require nd.round -require ygm.barrier -require ygm.flush \
  "$tracedir/trace.json"

echo "== multi-process TCP build (3 dnnd-construct ranks on loopback)"
# Every TCP process computes vertex ownership on its own from its own
# copy of the data; ranks that disagree fail at build start
# (core.OwnershipError). Three real processes over real sockets must
# each exit 0 in time, and rank 0's store must reopen and answer
# queries. TestTCPMultiRankBuildGathers runs its TCP ranks in one
# process; this is the run across processes.
tcpdir="$(mktemp -d)"
trap 'rm -rf "$tracedir" "$tcpdir"' EXIT
go build -o "$tcpdir/bin/" ./cmd/datagen ./cmd/dnnd-construct ./cmd/dnnd-query
"$tcpdir/bin/datagen" -preset deep -n 3000 -queries 100 -seed 1 -out "$tcpdir/data" >/dev/null
tcpbase=$(( 17000 + RANDOM % 20000 ))
tcpaddrs="127.0.0.1:$tcpbase,127.0.0.1:$(( tcpbase + 1 )),127.0.0.1:$(( tcpbase + 2 ))"
tcpstart=$(date +%s%N)
tcppids=()
for r in 0 1 2; do
  timeout 120 "$tcpdir/bin/dnnd-construct" -preset deep -n 3000 -k 10 -seed 1 \
    -tcp-rank "$r" -tcp-addrs "$tcpaddrs" -store "$tcpdir/store$r" >"$tcpdir/rank$r.log" 2>&1 &
  tcppids+=($!)
done
for r in 0 1 2; do
  if ! wait "${tcppids[$r]}"; then
    echo "TCP rank $r failed:" >&2
    cat "$tcpdir/rank$r.log" >&2
    exit 1
  fi
done
echo "3 TCP ranks exited 0 in $(( ($(date +%s%N) - tcpstart) / 1000000 )) ms"
"$tcpdir/bin/dnnd-query" -store "$tcpdir/store0" -queries "$tcpdir/data/deep-query.fvecs" \
  -truth "$tcpdir/data/deep-truth.ivecs" -l 10 -epsilon 0.2 | grep 'recall@10'

echo "== vector-file build (datagen's fvecs through dnnd-construct -base)"
# Every other build step generates its rows in-process from a preset;
# this one reads them back from the file datagen wrote. A one-rank build
# from the file must commit the same objects (name, size and CRC-32C in
# the store manifest; file numbers follow commit order) as one from the
# preset, and answer queries against datagen's ground truth.
"$tcpdir/bin/dnnd-construct" -base "$tcpdir/data/deep-base.fvecs" -metric l2 -k 10 -seed 1 \
  -store "$tcpdir/filestore" >/dev/null
"$tcpdir/bin/dnnd-construct" -preset deep -n 3000 -k 10 -seed 1 -store "$tcpdir/presetstore" >/dev/null
objects() { grep -E '"(name|size|checksum_crc32c)"' "$1/metall-manifest.json"; }
if [ "$(objects "$tcpdir/filestore")" != "$(objects "$tcpdir/presetstore")" ]; then
  echo "a build from deep-base.fvecs differs from the preset build:" >&2
  diff <(objects "$tcpdir/presetstore") <(objects "$tcpdir/filestore") >&2
  exit 1
fi
"$tcpdir/bin/dnnd-query" -store "$tcpdir/filestore" -queries "$tcpdir/data/deep-query.fvecs" \
  -truth "$tcpdir/data/deep-truth.ivecs" -l 10 -epsilon 0.2 | grep 'recall@10'

echo "== cluster smoke (real 3-shard multi-process run + tracecheck -merge)"
# Three dnnd-serve processes and a dnnd-router, each tracing into its
# own file, take traced loadgen traffic; tracecheck -merge must join
# the four files into one validated cross-process timeline — the
# executable form of the PR-10 acceptance criterion (the failover half
# runs in-process as TestClusterTraceTimeline, raced above).
bash scripts/cluster_smoke.sh

echo "== benchmark hang guard (one short run of every workload)"
# Every workload must finish well inside its budget with correct
# outputs and no failed operation; a comm-layer change that deadlocks or
# loses a message shows up here as a timeout or a failed gate.
# build-gist-r1 runs one rank, so its protocol counters and graph hash
# repeat exactly: comparing them to the literal makes a silent protocol
# change (one message, one byte, one reordered RNG draw) fail here.
gist_exact='# exact: iters=7 dist_evals=772500 messages=232576 bytes=95947016 graph_hash=67cf92049714210b'
for w in build-deep-r4 build-gist-r1 serve-routed serve-mutable; do
  out="$(timeout 180 bash benchmark/run.sh --workload "$w" --seed 1 --seconds 20 --trace 0 || true)"
  last="$(tail -1 <<<"$out")"
  case "$last" in
    '{"correct":true,'*'"failed":0,'*) echo "$w ok" ;;
    *) echo "benchmark workload $w failed: $last" >&2; exit 1 ;;
  esac
  if [ "$w" = build-gist-r1 ]; then
    exact="$(grep -a '^# exact:' <<<"$out" || true)"
    if [ "$exact" != "$gist_exact" ]; then
      echo "build-gist-r1 protocol counters moved:" >&2
      echo " got: $exact" >&2
      echo "want: $gist_exact" >&2
      exit 1
    fi
    echo "$w exact counters ok"
  fi
done

echo "CI OK"
