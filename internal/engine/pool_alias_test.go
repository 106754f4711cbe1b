package engine

import (
	"slices"
	"testing"
)

// A task's Query either aliases the caller's stable row or holds a
// private copy of a transient view, and the same task object serves
// both over its lives. The stable row must come through a full
// stable → recycle → transient cycle on one task byte-for-byte intact:
// the pool may never append into, or copy over, storage it only
// borrowed.
func TestStableQueryAliasSurvivesRecycle(t *testing.T) {
	const dim = 8
	var applied []*Task[float32]
	var sawQuery [][]float32
	p := NewPool(PoolConfig[float32]{
		Workers: 1,
		Dim:     dim,
		Eval: func(q []float32, vecs [][]float32, _ []float32, dists []float32) {
			for i := range vecs {
				dists[i] = q[0]
			}
		},
		Apply: func(tk *Task[float32]) {
			applied = append(applied, tk)
			sawQuery = append(sawQuery, tk.Query)
		},
	})
	defer p.Shutdown()

	// The stable row sits inside a larger slab, as dataset rows often
	// do: an append through an unclipped alias would land in the next row.
	slab := make([]float32, 2*dim)
	for i := range slab {
		slab[i] = float32(i + 1)
	}
	row := slab[:dim]
	want := slices.Clone(slab)
	cand := make([]float32, dim)

	p.StageCompute(1, 7, row, true, Cand{A: 7}, cand, 0, false)
	p.RunHook()
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
	p.StageCompute(1, 9, transient, false, Cand{A: 9}, cand, 0, false)
	p.RunHook()
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
