package core

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dnnd/internal/metric"
	"dnnd/internal/obs"
	"dnnd/internal/ygm"
)

// buildTraced runs a construction over a local world with a tracer
// attached to every rank and returns rank 0's result.
func buildTraced(t *testing.T, nranks int, data [][]float32, cfg Config, tr *obs.Tracer) *Result {
	t.Helper()
	kern, err := metric.KernelFor[float32](metric.SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	w := ygm.NewLocalWorld(nranks)
	w.SetTracer(tr)
	var mu sync.Mutex
	var root *Result
	runErr := w.Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		res, err := BuildKernel(c, shard, kern, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			root = res
			mu.Unlock()
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return root
}

// TestTraceGolden3Rank is the acceptance test for the span timeline: a
// traced 3-rank build must export Perfetto JSON that parses, validates
// (spans nest per track), carries one track per rank, and contains
// every construction phase plus the runtime spans underneath them.
func TestTraceGolden3Rank(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := clusteredData(rng, 240, 10, 6)
	cfg := DefaultConfig(6)
	cfg.Seed = 7
	cfg.Optimize = true

	tr := obs.NewTracer(obs.DefaultTrackEvents)
	if res := buildTraced(t, 3, data, cfg, tr); res == nil || res.Graph == nil {
		t.Fatal("no gathered graph on rank 0")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	n, err := doc.Validate()
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatal("trace validated but is empty")
	}

	for _, track := range []string{`"rank 0"`, `"rank 1"`, `"rank 2"`} {
		if !strings.Contains(buf.String(), track) {
			t.Errorf("per-rank track %s missing", track)
		}
	}

	spans := doc.SpanNames()
	// Every construction phase must appear (as at least one of its
	// .local/.run loops), plus the round envelope and the
	// runtime spans: barrier waits, aggregation-buffer flushes, and
	// worker-pool ring drains.
	for _, phase := range []string{
		"nd.init", "nd.sample", "nd.reverse", "nd.check", "nd.opt", "nd.gather",
	} {
		found := false
		for name := range spans {
			if strings.HasPrefix(name, phase+".") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no span for phase %s (have %v)", phase, spans)
		}
	}
	for _, name := range []string{"nd.round", "ygm.barrier", "ygm.flush", "pool.drain"} {
		if spans[name] == 0 {
			t.Errorf("no %s spans (have %v)", name, spans)
		}
	}
	counters := doc.CounterNames()
	if counters["ygm.mailbox.depth"] == 0 || counters["ygm.mailbox.peak_depth"] == 0 {
		t.Errorf("mailbox counter tracks missing: %v", counters)
	}
}

// TestTracedBuildIdenticalResults: attaching a tracer must not change
// a single protocol decision. Single rank so the message schedule is
// deterministic (see determinism_test.go for why multi-rank runs are
// not comparable run-to-run).
func TestTracedBuildIdenticalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := clusteredData(rng, 200, 8, 5)
	cfg := DefaultConfig(5)
	cfg.Seed = 99
	cfg.Optimize = true

	plain := buildTraced(t, 1, data, cfg, nil)
	traced := buildTraced(t, 1, data, cfg, obs.NewTracer(obs.DefaultTrackEvents))
	assertIdenticalResults(t, plain, traced)
}
