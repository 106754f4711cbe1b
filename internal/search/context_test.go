package search

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
)

func ctxTestData(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for d := range v {
			v[d] = rng.Float32()
		}
		data[i] = v
	}
	return data
}

// SearchCtx with seed s must return bit-identical results to Query
// with the same seed — the contract that lets the serve path switch to
// pooled contexts without changing a single reply. The same context is
// reused across every query to prove no state leaks.
func TestSearchCtxMatchesQuery(t *testing.T) {
	data := ctxTestData(600, 12, 41)
	g := brute.KNNGraph(data, 8, metric.L2Float32, 0)
	sc := NewContext[float32]()
	opt := Options{L: 10, Epsilon: 0.25}
	queries := ctxTestData(64, 12, 43)
	for qi, q := range queries {
		seed := int64(977)*1_000_003 + int64(qi)
		want, wantSt := Query(g, data, metric.L2Float32, q, opt, seed)
		got, gotSt := SearchCtx(sc, g, data, metric.L2Float32, q, opt, seed)
		if !reflect.DeepEqual(want, []knng.Neighbor(got)) {
			t.Fatalf("query %d: SearchCtx diverged from Query:\nctx   = %v\nquery = %v", qi, got, want)
		}
		if wantSt != gotSt {
			t.Fatalf("query %d: stats diverged: ctx=%+v query=%+v", qi, gotSt, wantSt)
		}
	}
}

// Batch results must be identical at every worker width — per-query
// seeding makes the claim order irrelevant. Every width (0 = GOMAXPROCS,
// and one wider than the query count) is checked against one-at-a-time
// Query calls at each query's derived seed, for the exact and
// EntriesFunc-seeded batches.
func TestBatchWidthInvariant(t *testing.T) {
	data := ctxTestData(500, 10, 51)
	g := brute.KNNGraph(data, 8, metric.L2Float32, 0)
	queries := ctxTestData(40, 10, 53)
	opt := Options{L: 8, Epsilon: 0.2, Seed: 12}
	entries := func(qi int) []knng.ID { return []knng.ID{knng.ID(qi * 7), knng.ID(qi*7 + 3)} }
	eopt := opt
	eopt.EntriesFunc = entries

	var want, wantE [][]knng.Neighbor
	var wantSt, wantESt Stats
	for qi, q := range queries {
		seed := opt.Seed*1_000_003 + int64(qi)
		ns, st := Query(g, data, metric.L2Float32, q, opt, seed)
		want = append(want, ns)
		wantSt.add(st)
		qopt := opt
		qopt.Entries = entries(qi)
		ns, st = Query(g, data, metric.L2Float32, q, qopt, seed)
		wantE = append(wantE, ns)
		wantESt.add(st)
	}

	for _, workers := range []int{0, 1, 2, 3, 8, len(queries) + 3} {
		check := func(kind string, got, want [][]knng.Neighbor, st, wantSt Stats) {
			t.Helper()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: batch results diverged from one-at-a-time queries", kind, workers)
			}
			if st != wantSt {
				t.Fatalf("%s workers=%d: stats diverged: %+v vs %+v", kind, workers, st, wantSt)
			}
		}
		got, st := Batch(g, data, metric.L2Float32, queries, opt, workers)
		check("Batch", got, want, st, wantSt)
		got, st = Batch(g, data, metric.L2Float32, queries, eopt, workers)
		check("Batch+EntriesFunc", got, wantE, st, wantESt)
	}
}

// Empty and single-query batches return the right shape at any width,
// and no worker goroutine outlives the call.
func TestBatchEmptyAndSingle(t *testing.T) {
	data := ctxTestData(300, 8, 57)
	g := brute.KNNGraph(data, 6, metric.L2Float32, 0)
	opt := Options{L: 5, Epsilon: 0.1, Seed: 4}
	before := runtime.NumGoroutine()
	for _, workers := range []int{0, 1, 4} {
		res, st := Batch(g, data, metric.L2Float32, nil, opt, workers)
		if len(res) != 0 || st != (Stats{}) {
			t.Fatalf("workers=%d: empty batch returned %d results, stats %+v", workers, len(res), st)
		}
		q := ctxTestData(1, 8, 59)
		want, wantSt := Query(g, data, metric.L2Float32, q[0], opt, opt.Seed*1_000_003)
		res, st = Batch(g, data, metric.L2Float32, q, opt, workers)
		if len(res) != 1 || !reflect.DeepEqual(res[0], want) || st != wantSt {
			t.Fatalf("workers=%d: single-query batch = %v %+v, want %v %+v", workers, res, st, want, wantSt)
		}
	}
	// Workers have all returned when Batch does; give the runtime a
	// moment to retire their goroutines before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the batches, %d before", n, before)
	}
}

// The tentpole contract: after warm-up, a context-based query allocates
// nothing — the visited set, heaps, result scratch, and RNG are all
// reused, and the score closures were bound at construction.
func TestSearchCtxZeroAlloc(t *testing.T) {
	data := ctxTestData(800, 16, 61)
	g := brute.KNNGraph(data, 8, metric.L2Float32, 0)
	sc := NewContext[float32]()
	q := data[123]
	opt := Options{L: 10, Epsilon: 0.25}
	// Warm up: grow every scratch buffer once.
	SearchCtx(sc, g, data, metric.L2Float32, q, opt, 1)

	var seed int64
	if avg := testing.AllocsPerRun(200, func() {
		seed++
		SearchCtx(sc, g, data, metric.L2Float32, q, opt, seed)
	}); avg != 0 {
		t.Errorf("SearchCtx allocates %.2f allocs/query at steady state, want 0", avg)
	}
}

// Options.Deadline must truncate exactly like an Interrupt closure
// reading the same clock.
func TestDeadlineTruncates(t *testing.T) {
	data := ctxTestData(2000, 16, 71)
	g := brute.KNNGraph(data, 8, metric.L2Float32, 0)
	sc := NewContext[float32]()
	opt := Options{L: 20, Epsilon: 0.4}
	opt.Deadline = time.Now().Add(-time.Millisecond)
	_, st := SearchCtx(sc, g, data, metric.L2Float32, data[0], opt, 3)
	if st.Truncated != 1 {
		t.Fatalf("expired deadline did not truncate: %+v", st)
	}
	// An expired deadline still returns the seeded best-so-far.
	res, _ := SearchCtx(sc, g, data, metric.L2Float32, data[0], opt, 3)
	if len(res) == 0 {
		t.Fatal("truncated query returned no seeds")
	}
}
