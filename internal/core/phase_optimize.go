package core

import (
	"dnnd/internal/knng"
	"dnnd/internal/msg"
)

// Phase 4 (optional): graph optimization (Section 4.5). Every rank
// ships each of its edges (v -> u, d) to u's owner as a msg.OptEdge,
// receivers merge the reverse edges into their lists (deduplicating),
// and each list is pruned to the K*PruneFactor closest entries.

func (b *builder[T]) optimizeGraph() {
	b.phOpt.local(func() {
		b.optRows = make([][]knng.Neighbor, b.shard.Len())
	})
	w := b.phaseWriter()
	b.phOpt.run(b.shard.Len(), b.cfg.K, func(i int) {
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

	b.phOpt.local(func() {
		// Validate holds K >= 1 and PruneFactor >= 1, so limit >= 1.
		b.mergeFinal(int(float64(b.cfg.K) * b.cfg.PruneFactor))
		b.optRows = nil
	})
}

// mergeFinal computes the post-optimization list of every local
// vertex: a plain per-rank loop, as in the paper, where each rank is a
// single-core process.
func (b *builder[T]) mergeFinal(limit int) {
	b.final = make([][]knng.Neighbor, b.shard.Len())
	for i := range b.final {
		b.final[i] = b.mergeVertex(i, limit)
	}
}

// mergeVertex merges vertex i's reverse edges into its sorted list,
// deduplicating through the builder's visited set, and prunes to limit.
func (b *builder[T]) mergeVertex(i, limit int) []knng.Neighbor {
	merged := b.lists[i].Sorted()
	b.beginVisit()
	for _, e := range merged {
		b.visited.Mark(e.ID)
	}
	for _, e := range b.optRows[i] {
		if b.visited.Visit(e.ID) {
			merged = append(merged, e)
		}
	}
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
