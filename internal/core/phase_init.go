package core

import (
	"dnnd/internal/knng"
	"dnnd/internal/msg"
)

// Phase 1: random initialization (Algorithm 1 lines 2-5). Each vertex
// picks K distinct random partners; distances are evaluated at the
// partner's owner (msg.InitReq) and returned (msg.InitResp). Warm
// builds load the prior's lists first (see SeedAppended for how the
// rows it does not cover get theirs).

func (b *builder[T]) initGraph() {
	w := b.phaseWriter()
	b.phInit.run(b.shard.Len(), b.cfg.K, func(i int) {
		v := b.shard.IDs[i]
		// Incremental builds: a dead vertex keeps its prior list
		// verbatim — no repair, no top-up, no checks. It stays in the
		// graph purely as a routable stepping stone until compaction.
		if b.dead.Dead(v) {
			if b.warm != nil && int(v) < b.warm.NumVertices() {
				for _, e := range b.warm.Neighbors[v] {
					b.lists[i].Update(e.ID, e.Dist, false)
				}
			}
			return
		}
		need := b.cfg.K
		b.beginVisit()
		// Warm start: vertices the prior graph covers keep their
		// lists (distances already known, no communication) with the
		// prior's flags. Every gathered, decoded or stored graph is
		// all old (flags are not encoded), so a full prior list
		// generates no checks on its own; the new entries SeedAppended
		// gives appended rows are what the descent works from. Partial
		// lists (e.g. after deletions) are topped up with random
		// candidates below, flagged new, which focuses the refinement
		// on the affected vertices. Dead warm neighbors are dropped
		// here — that shortfall is exactly what triggers the repair
		// top-up.
		if b.warm != nil && int(v) < b.warm.NumVertices() {
			for _, e := range b.warm.Neighbors[v] {
				if b.dead.Dead(e.ID) {
					continue
				}
				if b.lists[i].Update(e.ID, e.Dist, e.New) == 1 {
					b.visited.Mark(e.ID)
					need--
				}
			}
		}
		if need <= 0 {
			return
		}
		vec := b.shard.Vecs[i]
		for need > 0 {
			u := knng.ID(b.rng.Intn(b.shard.N))
			if b.dead.Dead(u) {
				continue
			}
			if u == v || !b.visited.Visit(u) {
				continue
			}
			need--
			w.Reset()
			m := msg.InitReq[T]{V: v, U: u, Vec: vec}
			if b.byRef {
				m.EncodeHead(w)
				b.asyncByRef(b.owner(u), b.hInitReq, w, vec)
				continue
			}
			m.Encode(w)
			b.c.Async(b.owner(u), b.hInitReq, w.Bytes())
		}
	})
}

func (b *builder[T]) onInitReq(p []byte) {
	r := b.handlerReader(p)
	var m msg.InitReq[T]
	m.DecodeHead(r)
	var stable bool
	m.Vec, stable = b.getVec(r, m.V)
	if r.Finish() != nil {
		panic("core: bad init request")
	}
	b.stageDist(taskInitReq, m.V, m.Vec, stable, cand{A: m.V, B: m.U}, b.localIndex(m.U))
}

// applyInitReq sends the computed init distances back to the querier.
func (b *builder[T]) applyInitReq(t *task[T]) {
	for i := range t.Meta {
		c := &t.Meta[i]
		w := b.replyWriter()
		m := msg.InitResp{V: c.A, U: c.B, D: t.Dists[i]}
		m.Encode(w)
		b.c.Async(b.owner(c.A), b.hInitResp, w.Bytes())
	}
}

// onInitResp runs at owner(v): the returned distance enters v's list.
func (b *builder[T]) onInitResp(p []byte) {
	r := b.handlerReader(p)
	var m msg.InitResp
	m.Decode(r)
	if r.Finish() != nil {
		panic("core: bad init response")
	}
	b.lists[b.localIndex(m.V)].Update(m.U, m.D, true)
}
