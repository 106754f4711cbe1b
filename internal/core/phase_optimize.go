package core

import (
	"sync"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
)

// Phase 4 (optional): graph optimization (Section 4.5). Every rank
// ships each of its edges (v -> u, d) to u's owner as a msg.OptEdge,
// receivers merge the reverse edges into their lists (deduplicating),
// and each list is pruned to the K*PruneFactor closest entries.

func (b *builder[T]) optimizeGraph() {
	b.phOpt.Local(func() {
		b.optRows = make([][]knng.Neighbor, b.shard.Len())
	})
	w := b.phaseWriter()
	b.phOpt.Run(b.shard.Len(), b.cfg.K, func(i int) {
		v := b.shard.IDs[i]
		// Dead vertices ship no reverse edges: a live receiver must
		// never merge a dead ID into its optimized list.
		if b.dead.Dead(v) {
			return
		}
		for _, e := range b.lists[i].Items() {
			w.Reset()
			m := msg.OptEdge{U: e.ID, V: v, D: e.Dist}
			m.Encode(w)
			b.c.Async(b.owner(e.ID), b.hOptEdge, w.Bytes())
		}
	})

	b.phOpt.Local(func() {
		limit := int(float64(b.cfg.K) * b.cfg.PruneFactor)
		if limit < 1 {
			limit = 1
		}
		b.mergeFinal(limit)
		b.optRows = nil
	})
}

// mergeFinal computes the post-optimization list of every local vertex.
// The merge/sort/prune is per-vertex pure (reads this vertex's list and
// reverse-edge row, writes final[i]), so it spreads over the worker
// pool; the output is identical to the serial loop for every worker
// count because item order never influences an item's result.
func (b *builder[T]) mergeFinal(limit int) {
	b.final = make([][]knng.Neighbor, b.shard.Len())
	var scratch sync.Pool // per-goroutine dedupe marks (see mergeVertex)
	scratch.New = func() any { return new(knng.VisitSet) }
	b.pool.ParallelFor(b.shard.Len(), func(i int) {
		b.final[i] = b.mergeVertex(i, limit, &scratch)
	})
}

// mergeVertex merges vertex i's reverse edges into its sorted list and
// prunes to limit. It touches only per-vertex state plus the scratch
// it checks out, so it is safe to run concurrently for distinct i.
func (b *builder[T]) mergeVertex(i, limit int, scratch *sync.Pool) []knng.Neighbor {
	merged := b.lists[i].Sorted()
	sc := scratch.Get().(*knng.VisitSet)
	sc.Begin(b.shard.N)
	for _, e := range merged {
		sc.Mark(e.ID)
	}
	for _, e := range b.optRows[i] {
		if sc.Visit(e.ID) {
			merged = append(merged, e)
		}
	}
	scratch.Put(sc)
	knng.SortByDist(merged)
	if len(merged) > limit {
		merged = merged[:limit:limit]
	}
	return merged
}

func (b *builder[T]) onOptEdge(p []byte) {
	r := b.handlerReader(p)
	var m msg.OptEdge
	m.Decode(r)
	if r.Finish() != nil {
		panic("core: bad optimize edge")
	}
	i := b.localIndex(m.U)
	b.optRows[i] = append(b.optRows[i], knng.Neighbor{ID: m.V, Dist: m.D})
}
