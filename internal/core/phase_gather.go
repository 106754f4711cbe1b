package core

import (
	"dnnd/internal/knng"
	"dnnd/internal/msg"
)

// Phase 5: final gather. Every rank ships its final lists, sorted by
// distance, to rank 0 as msg.GatherRow records; rank 0 assembles the
// global knng.Graph.

func (b *builder[T]) gather(res *Result) {
	const root = 0
	b.phGather.local(func() {
		if b.c.Rank() == root {
			b.gatherInto = knng.NewGraph(b.shard.N)
		}
	})
	w := b.phaseWriter()
	var sorted []knng.Neighbor // encoded before the next row reuses it
	b.phGather.run(b.shard.Len(), b.cfg.K, func(i int) {
		m := msg.GatherRow{V: b.shard.IDs[i]}
		if b.final != nil { // Section 4.5 ran
			m.Neighbors = b.final[i]
		} else {
			sorted = b.lists[i].SortedInto(sorted)
			m.Neighbors = sorted
		}
		w.Reset()
		m.Encode(w)
		b.c.Async(root, b.hGather, w.Bytes())
	})
	if b.c.Rank() == root {
		res.Graph = b.gatherInto
		b.gatherInto = nil
	}
}

func (b *builder[T]) onGather(p []byte) {
	r := b.handlerReader(p)
	var m msg.GatherRow
	m.Decode(r)
	if r.Finish() != nil {
		panic("core: bad gather record")
	}
	b.gatherInto.Neighbors[m.V] = m.Neighbors
}
