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
echo "non-test Go lines: $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"

echo "== cross-architecture (portable kernels, no fused float products)"
# The float32 L2 sweep is SSE2 assembly on amd64 and pure Go elsewhere;
# vet and build the other side so it cannot rot. arm64 fuses x*y+z into
# one multiply-add unless the product is explicitly rounded, which
# would move distances off every golden pinned on amd64, so the metric
# package's arm64 listing must hold no fused op (and must not be empty).
GOARCH=arm64 go vet ./internal/metric/ ./internal/search/
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

echo "== go test"
go test ./...

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
# between the applier and its helpers through atomics; a lost or
# doubly-applied task, or a race on a sealed slot, shows up only on
# some schedules. These are the ring's own tests, against fake
# kernels and apply callbacks.
go test -race -count=20 -run '^(TestApplyOrderEqualsStageOrder|TestStagingInsideApplyDoesNotRecurse|TestApplyOnlyTailCoalescesAcrossDrainStart|TestPendingHookTrueUntilLastApply|TestEvalPanicSurfacesOnApplier|TestStableQueryAliasSurvivesRecycle)$' ./internal/core/

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

echo "== go test -race (batch search: shared claim cursor, repeated)"
# search.Batch workers claim query indices from one atomic cursor and
# write disjoint result slots; a claim that hands one index out twice,
# skips one, or races a slot write shows up only on some schedules.
go test -race -count=5 -run 'TestBatch|TestEntriesFuncInBatch' ./internal/search/

echo "== go test -race (warm builds and store saves, repeated)"
# Extend, Refresh and Compact seed appended rows with one search.Batch
# over the prior graph, then run the ring; a race between the two, or a
# refresh that depends on the worker width, shows up only on some
# schedules. SaveMutable, which every store write goes through, freezes
# a tombstone set that concurrent deletes keep mutating.
go test -race -count=3 -run 'TestRefresh|TestExtend|TestCompact|TestSaveMutable' .

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

echo "== fuzz smoke (message codecs, bulk LE codec, shard and store manifests)"
# Short native-fuzz bursts over the wire-facing decoders: corpus seeds
# plus a few seconds of mutation each. Full fuzzing is manual; this
# catches decoder panics on malformed bytes before they land.
go test -run='^$' -fuzz='^FuzzCoreMessages$' -fuzztime=2s ./internal/msg/
go test -run='^$' -fuzz='^FuzzManifest$' -fuzztime=2s ./internal/shard/
go test -run='^$' -fuzz='^FuzzOpen$' -fuzztime=2s ./internal/metall/
go test -run='^$' -fuzz='^FuzzServeMessages$' -fuzztime=2s ./internal/msg/
go test -run='^$' -fuzz='^FuzzRouterMessages$' -fuzztime=2s ./internal/msg/
go test -run='^$' -fuzz='^FuzzBulkCodec$' -fuzztime=2s ./internal/wire/
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
gist_exact='# exact: iters=7 dist_evals=775467 messages=1895150 bytes=3011972147 graph_hash=6d99a5af8277f5a3'
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
