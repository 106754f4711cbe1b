package core

import (
	"slices"
	"strings"
	"testing"
)

// testPool is a pool over 1-d float32 vectors whose distance is
// query[0] + vec[0], with a caller-supplied apply, on a ring of the
// given size.
func testPool(workers, ring int, apply func(p *workpool[float32], tk *task[float32])) *workpool[float32] {
	defer func(old int) { taskRingSize = old }(taskRingSize)
	taskRingSize = ring
	var p *workpool[float32]
	p = newWorkpool(workers, func(q []float32, vecs [][]float32, _ []float32, dists []float32) {
		for i, v := range vecs {
			dists[i] = q[0] + v[0]
		}
	}, func(tk *task[float32]) { apply(p, tk) }, nil)
	return p
}

// Effects land in stage order, with the right distances, at every pool
// width: a 4-slot ring forces a half-drain every few stagings, so helper
// claims, inline steals and recycled tasks all interleave, and none of
// it may reorder or drop an apply. Keys differ per record and kinds
// rotate, so every record is its own task (nothing coalesces).
func TestApplyOrderEqualsStageOrder(t *testing.T) {
	const n = 200
	vec := []float32{0.5}
	for _, workers := range []int{1, 2, 3} {
		var got []uint32
		p := testPool(workers, 4, func(_ *workpool[float32], tk *task[float32]) {
			for i, m := range tk.Meta {
				got = append(got, m.A)
				if tk.Dists[i] != float32(m.A)+0.5 {
					t.Errorf("workers=%d: record %d has distance %v, want %v", workers, m.A, tk.Dists[i], float32(m.A)+0.5)
				}
			}
		})
		want := make([]uint32, n)
		for i := range want {
			a := uint32(i)
			want[i] = a
			p.stageCompute(uint8(i%3), a, []float32{float32(a)}, false, cand{A: a}, vec, 0, false)
			if size := len(p.ring) - p.head; size >= 4 {
				t.Fatalf("workers=%d: ring holds %d tasks after staging %d, cap is 4", workers, size, i)
			}
		}
		p.runHook()
		p.shutdown()
		if !slices.Equal(got, want) {
			t.Errorf("workers=%d: apply order differs from stage order:\n got %v\nwant %v", workers, got, want)
		}
		if p.tasksStaged != n {
			t.Errorf("workers=%d: staged %d tasks, want %d", workers, p.tasksStaged, n)
		}
	}
}

// No construction apply stages work, but the pool does not rely on it:
// a record staged from inside Apply must join the ring and wait for the
// running drain loop — even with the ring past its cap — never start a
// nested drain. Throughout, ApplyingHook tells the comm not to dispatch
// inbound records from the apply's sends.
func TestStagingInsideApplyDoesNotRecurse(t *testing.T) {
	const chain = 40
	const filler = 1000 // filler records carry A >= filler and stage nothing
	vec := []float32{0}
	stage := func(p *workpool[float32], kind uint8, a uint32) {
		p.stageCompute(kind, a, []float32{float32(a)}, false, cand{A: a}, vec, 0, false)
	}
	var links []uint32
	applied, depth, maxDepth, maxSize := 0, 0, 0, 0
	p := testPool(1, 4, func(p *workpool[float32], tk *task[float32]) {
		depth++
		maxDepth = max(maxDepth, depth)
		applied++
		if !p.applyingHook() {
			t.Error("ApplyingHook false inside Apply")
		}
		if a := tk.Meta[0].A; a < filler {
			links = append(links, a)
			if a < chain {
				// The next link goes in ahead of two fillers, so the ring
				// grows by two per link and passes the 4-slot cap at once.
				stage(p, uint8(a%2), a+1)
				stage(p, 2, filler)
				stage(p, 3, filler)
				maxSize = max(maxSize, len(p.ring)-p.head)
			}
		}
		depth--
	})
	defer p.shutdown()
	stage(p, 9, 0)
	if !p.runHook() {
		t.Fatal("RunHook applied nothing")
	}
	if maxSize <= 4 {
		t.Fatalf("ring peaked at %d tasks; the test needs it past the 4-slot cap", maxSize)
	}
	if maxDepth != 1 {
		t.Errorf("Apply nested %d deep, want 1", maxDepth)
	}
	if p.pendingHook() {
		t.Error("records staged during the drain were left on the ring")
	}
	if p.applyingHook() {
		t.Error("ApplyingHook still true after the drain")
	}
	for i, a := range links {
		if a != uint32(i) {
			t.Fatalf("chain applied out of order: %v", links)
		}
	}
	if len(links) != chain+1 || applied != 1+3*chain {
		t.Errorf("applied %d records (%d links), want %d (%d)", applied, len(links), 1+3*chain, chain+1)
	}
}

// PendingHook is what keeps ygm quiescence honest: it must stay true
// until the last staged record has been applied, including inside the
// last Apply but one.
func TestPendingHookTrueUntilLastApply(t *testing.T) {
	const n = 6
	applied := 0
	p := testPool(2, 64, func(p *workpool[float32], _ *task[float32]) {
		applied++
		if want := applied < n; p.pendingHook() != want {
			t.Errorf("inside apply %d of %d: PendingHook = %v, want %v", applied, n, !want, want)
		}
	})
	defer p.shutdown()
	if p.pendingHook() {
		t.Error("empty pool reports pending work")
	}
	for i := 0; i < n; i++ {
		p.stageCompute(0, uint32(i), []float32{1}, false, cand{A: uint32(i)}, []float32{2}, 0, false)
		if !p.pendingHook() {
			t.Fatalf("PendingHook false with %d staged tasks", i+1)
		}
	}
	p.runHook()
	if applied != n || p.pendingHook() {
		t.Errorf("after drain: applied %d of %d, pending %v", applied, n, p.pendingHook())
	}
	if p.runHook() {
		t.Error("RunHook on an empty ring reported progress")
	}
}

// A panic inside Eval — on a helper or on the applier's inline steal —
// must surface as a panic on the applying goroutine, before the
// poisoned task is applied, and must not wedge the drain.
func TestEvalPanicSurfacesOnApplier(t *testing.T) {
	for _, workers := range []int{1, 3} {
		applied := 0
		p := newWorkpool(workers, func(q []float32, _ [][]float32, _ []float32, _ []float32) {
			if q[0] == 13 {
				panic("boom at 13")
			}
		}, func(*task[float32]) { applied++ }, nil)
		for i := 0; i < 20; i++ {
			p.stageCompute(0, uint32(i), []float32{float32(i)}, false, cand{A: uint32(i)}, []float32{0}, 0, false)
		}
		func() {
			defer func() {
				r := recover()
				err, _ := r.(error)
				if err == nil || !strings.Contains(err.Error(), "boom at 13") {
					t.Errorf("workers=%d: recovered %v, want the worker panic", workers, r)
				}
			}()
			p.runHook()
			t.Errorf("workers=%d: drain completed despite the Eval panic", workers)
		}()
		if applied > 13 {
			t.Errorf("workers=%d: %d tasks applied, the one that panicked among them", workers, applied)
		}
		p.shutdown()
	}
}

// A task's Query either aliases the caller's stable row or holds a
// private copy of a transient view, and the same task object serves
// both over its lives. The stable row must come through a full
// stable → recycle → transient cycle on one task byte-for-byte intact:
// the pool may never append into, or copy over, storage it only
// borrowed.
func TestStableQueryAliasSurvivesRecycle(t *testing.T) {
	const dim = 8
	var applied []*task[float32]
	var sawQuery [][]float32
	p := newWorkpool(1, func(q []float32, vecs [][]float32, _ []float32, dists []float32) {
		for i := range vecs {
			dists[i] = q[0]
		}
	}, func(tk *task[float32]) {
		applied = append(applied, tk)
		sawQuery = append(sawQuery, tk.Query)
	}, nil)
	defer p.shutdown()

	// The stable row sits inside a larger slab, as dataset rows often
	// do: an append through an unclipped alias would land in the next row.
	slab := make([]float32, 2*dim)
	for i := range slab {
		slab[i] = float32(i + 1)
	}
	row := slab[:dim]
	want := slices.Clone(slab)
	vec := make([]float32, dim)

	p.stageCompute(1, 7, row, true, cand{A: 7}, vec, 0, false)
	p.runHook()
	if len(applied) != 1 {
		t.Fatalf("applied %d tasks, want 1", len(applied))
	}
	q := sawQuery[0]
	if &q[0] != &row[0] {
		t.Error("stable query was copied, want an alias of the caller's row")
	}
	if cap(q) != len(q) {
		t.Errorf("aliased query has cap %d > len %d: an append could write into the caller's storage", cap(q), len(q))
	}

	// Second life of the same task, now with a transient view.
	transient := make([]float32, dim)
	for i := range transient {
		transient[i] = -1
	}
	p.stageCompute(1, 9, transient, false, cand{A: 9}, vec, 0, false)
	p.runHook()
	if len(applied) != 2 || applied[1] != applied[0] {
		t.Fatalf("second staging did not reuse the recycled task (%d applied)", len(applied))
	}
	q = sawQuery[1]
	if &q[0] == &transient[0] || &q[0] == &row[0] {
		t.Error("transient query must be a private copy")
	}
	if !slices.Equal(q, transient) {
		t.Errorf("transient query copy = %v, want %v", q, transient)
	}
	if !slices.Equal(slab, want) {
		t.Errorf("stable storage modified:\n got %v\nwant %v", slab, want)
	}
}
