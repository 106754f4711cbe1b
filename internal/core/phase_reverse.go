package core

import (
	"dnnd/internal/knng"
	"dnnd/internal/msg"
)

// Phase 2b: reverse matrix exchange (Section 4.2). Each (u <- v)
// relationship travels to u's owner as a msg.Reverse; the old and new
// matrices share the layout and are told apart by handler ID.

// exchangeReverse sends each (u <- v) relationship to u's owner,
// visiting local vertices in a shuffled order to avoid synchronized
// bursts at one destination (Section 4.2).
func (b *builder[T]) exchangeReverse() {
	var order []int
	b.phReverse.local(func() {
		if b.oldRevRows == nil {
			b.oldRevRows = make([][]knng.ID, b.shard.Len())
			b.newRevRows = make([][]knng.ID, b.shard.Len())
		}
		for i := range b.oldRevRows {
			b.oldRevRows[i] = b.oldRevRows[i][:0]
			b.newRevRows[i] = b.newRevRows[i][:0]
		}

		if cap(b.orderScratch) < b.shard.Len() {
			b.orderScratch = make([]int, b.shard.Len())
		}
		order = b.orderScratch[:b.shard.Len()]
		for i := range order {
			order[i] = i
		}
		b.rng.Shuffle(len(order), func(a, z int) { order[a], order[z] = order[z], order[a] })
	})

	w := b.phaseWriter()
	b.phReverse.run(len(order), 2*b.cfg.K, func(oi int) {
		i := order[oi]
		v := b.shard.IDs[i]
		for _, u := range b.olds[i] {
			w.Reset()
			m := msg.Reverse{U: u, V: v}
			m.Encode(w)
			b.c.Async(b.owner(u), b.hRevOld, w.Bytes())
		}
		for _, u := range b.news[i] {
			w.Reset()
			m := msg.Reverse{U: u, V: v}
			m.Encode(w)
			b.c.Async(b.owner(u), b.hRevNew, w.Bytes())
		}
	})
}

func (b *builder[T]) onReverse(p []byte, old bool) {
	r := b.handlerReader(p)
	var m msg.Reverse
	m.Decode(r)
	if r.Finish() != nil {
		panic("core: bad reverse entry")
	}
	// Row u of the reversed matrix lives here, at u's owner.
	i := b.localIndex(m.U)
	if old {
		b.oldRevRows[i] = append(b.oldRevRows[i], m.V)
	} else {
		b.newRevRows[i] = append(b.newRevRows[i], m.V)
	}
}
