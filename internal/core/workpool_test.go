package core

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
// claims, applier claims and reused slots all interleave, and none of
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
			if size := p.size(); size >= 4 {
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

// Every staged task is evaluated exactly once at Workers 3: the claim
// cursor hands each sealed task to one goroutine, helper or applier.
// Eval is pure, so a task computed twice would leave every result
// intact; only a count of eval calls sees it. In the burst case both
// helpers are held on tasks 0 and 1 while the rest are staged, then
// released together, so three claimers race over a sealed backlog; in
// the churn case a 4-slot ring drains every two stagings.
func TestEachTaskEvaluatedOnce(t *testing.T) {
	const n = 2000
	vec := []float32{0.5}
	defer func(old int) { taskRingSize = old }(taskRingSize)
	for _, burst := range []bool{true, false} {
		taskRingSize = 4
		gate := make(chan struct{})
		if burst {
			taskRingSize = 4096 // > n: nothing applies before the burst
		} else {
			close(gate)
		}
		var evals atomic.Int64
		p := newWorkpool(3, func(q []float32, vecs [][]float32, _ []float32, dists []float32) {
			evals.Add(1)
			if q[0] < 2 {
				<-gate
			}
			for i, v := range vecs {
				dists[i] = q[0] + v[0]
			}
		}, func(*task[float32]) {}, nil)
		for i := range n {
			a := uint32(i)
			p.stageCompute(0, a, []float32{float32(a)}, false, cand{A: a}, vec, 0, false)
			if burst && i == 2 { // tasks 0 and 1 are sealed
				for deadline := time.Now().Add(5 * time.Second); p.next.Load() < 2; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						close(gate)
						t.Fatal("the helpers never claimed tasks 0 and 1")
					}
				}
			}
		}
		if burst {
			close(gate)
		}
		p.runHook()
		p.shutdown()
		if got := evals.Load(); got != p.tasksStaged || p.tasksStaged != n {
			t.Errorf("burst=%v: %d evals for %d staged tasks, want %d each", burst, got, p.tasksStaged, n)
		}
	}
}

// While a helper holds the head task, the applier claims and computes
// the tasks behind it rather than waiting: the head's kernel blocks
// until every later task is done, which only an applier that claims
// past the head can bring about. Applies still land in stage order.
func TestApplierComputesAheadOfClaimedHead(t *testing.T) {
	const later = 6
	gate := make(chan struct{})
	vec := []float32{0.5}
	var got []uint32
	p := newWorkpool(2, func(q []float32, vecs [][]float32, _ []float32, dists []float32) {
		if q[0] == 0 {
			<-gate
		}
		for i, v := range vecs {
			dists[i] = q[0] + v[0]
		}
	}, func(tk *task[float32]) {
		for i, m := range tk.Meta {
			got = append(got, m.A)
			if tk.Dists[i] != float32(m.A)+0.5 {
				t.Errorf("record %d has distance %v, want %v", m.A, tk.Dists[i], float32(m.A)+0.5)
			}
		}
	}, nil)
	defer p.shutdown()
	stage := func(a uint32) {
		p.stageCompute(0, a, []float32{float32(a)}, false, cand{A: a}, vec, 0, false)
	}

	stage(0)
	p.sealTail()
	for deadline := time.Now().Add(5 * time.Second); p.next.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate) // a late claim must not block shutdown
			t.Fatal("the helper never claimed the head task")
		}
	}
	for a := uint32(1); a <= later; a++ {
		stage(a)
	}

	var ahead atomic.Bool
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		defer close(gate)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			done := 0
			for s := int64(1); s <= later; s++ {
				if p.slot(s).done.Load() == s+1 {
					done++
				}
			}
			if done == later {
				ahead.Store(true)
				return
			}
		}
	}()
	p.applyDownTo(0)
	<-watched

	if !ahead.Load() {
		t.Error("the tasks behind the claimed head were not computed while it was held")
	}
	want := make([]uint32, later+1)
	for i := range want {
		want[i] = uint32(i)
	}
	if !slices.Equal(got, want) {
		t.Errorf("apply order differs from stage order:\n got %v\nwant %v", got, want)
	}
}

// No construction apply stages work, and the pool holds it to that: a
// record staged from inside an apply would take a slot the drain has
// not yet applied. Staging there panics, and the panic leaves the pool
// usable: nothing was staged, the applying flag is cleared, and the
// tasks behind the faulty apply still apply in order.
func TestStagingInsideApplyPanics(t *testing.T) {
	const n = 6
	vec := []float32{0}
	stage := func(p *workpool[float32], a uint32) {
		p.stageCompute(0, a, []float32{float32(a)}, false, cand{A: a}, vec, 0, false)
	}
	var got []uint32
	p := testPool(1, 64, func(p *workpool[float32], tk *task[float32]) {
		a := tk.Meta[0].A
		got = append(got, a)
		if a == 2 {
			stage(p, 100)
		}
	})
	defer p.shutdown()
	for a := range uint32(n) {
		stage(p, a)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "staged during an apply") {
				t.Errorf("recovered %v, want the staging-during-apply panic", r)
			}
		}()
		p.runHook()
		t.Error("a record staged during an apply did not panic")
	}()
	if p.applyingHook() {
		t.Error("ApplyingHook still true after the panic")
	}
	if p.tasksStaged != n {
		t.Errorf("%d tasks staged, want %d: the rejected record joined the ring", p.tasksStaged, n)
	}
	if !p.pendingHook() {
		t.Error("the tasks behind the faulty apply were dropped")
	}
	if !p.runHook() || p.pendingHook() {
		t.Error("the drain after the panic did not empty the ring")
	}
	if want := []uint32{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("applied %v, want %v", got, want)
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
// private copy of a transient view, and the same slot serves both over
// its tasks. On a 2-slot ring, with a filler task between them, a
// stable task and then a transient one take slot 0. The stable row
// must come through byte-for-byte intact: the pool may never append
// into, or copy over, storage it only borrowed.
func TestStableQueryAliasSurvivesSlotReuse(t *testing.T) {
	const dim = 8
	var applied []*task[float32]
	var sawQuery [][]float32
	p := testPool(1, 2, func(_ *workpool[float32], tk *task[float32]) {
		applied = append(applied, tk)
		sawQuery = append(sawQuery, tk.Query)
	})
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
	p.stageCompute(2, 8, vec, false, cand{A: 8}, vec, 0, false) // filler: slot 1, half-drains task 0
	if len(applied) != 1 {
		t.Fatalf("applied %d tasks after filling the 2-slot ring, want 1", len(applied))
	}
	q := sawQuery[0]
	if &q[0] != &row[0] {
		t.Error("stable query was copied, want an alias of the caller's row")
	}
	if cap(q) != len(q) {
		t.Errorf("aliased query has cap %d > len %d: an append could write into the caller's storage", cap(q), len(q))
	}

	// Slot 0 again, now with a transient view.
	transient := make([]float32, dim)
	for i := range transient {
		transient[i] = -1
	}
	p.stageCompute(1, 9, transient, false, cand{A: 9}, vec, 0, false)
	p.runHook()
	if len(applied) != 3 || applied[2] != applied[0] {
		t.Fatalf("the third staging did not reuse slot 0 (%d applied)", len(applied))
	}
	if d := applied[2].done.Load(); d != 3 {
		t.Errorf("slot 0 reads done=%d after its second task, want seq+1 = 3", d)
	}
	q = sawQuery[2]
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
