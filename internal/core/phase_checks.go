package core

import (
	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/wire"
)

// Phase 3: neighbor checks (Algorithm 1 lines 17-22, Section 4.3). The
// Type 1 / Type 2 / Type 2+ / Type 3 protocol: a check request travels
// to owner(u1), which forwards u1's feature vector to owner(u2) unless
// redundant (4.3.2); owner(u2) evaluates and, in the one-sided flow,
// returns the distance unless prunable (4.3.3).

// pairCount returns the number of check pairs this rank generates.
func (b *builder[T]) pairCount() int {
	total := 0
	for i := range b.news {
		nn := len(b.news[i])
		total += nn*(nn-1)/2 + nn*len(b.olds[i])
	}
	return total
}

// pairIter enumerates check pairs with a flat index so the batched
// submission loop can drive it.
type pairIter struct {
	vi, i, j int // vertex index, new index, partner index
}

// emitChecks walks every (u1, u2) pair from new x new (upper triangle)
// and new x old, submitting the protocol's initial message(s).
func (b *builder[T]) emitChecks(it *pairIter) (u1, u2 knng.ID, ok bool) {
	for it.vi < len(b.news) {
		nw := b.news[it.vi]
		od := b.olds[it.vi]
		if it.i < len(nw) {
			// Partners: nw[it.i+1:] then od.
			if it.j < len(nw)-it.i-1 {
				u1, u2 = nw[it.i], nw[it.i+1+it.j]
				it.j++
				if u1 == u2 {
					continue
				}
				return u1, u2, true
			}
			if k := it.j - (len(nw) - it.i - 1); k < len(od) {
				u1, u2 = nw[it.i], od[k]
				it.j++
				if u1 == u2 {
					continue
				}
				return u1, u2, true
			}
			it.i++
			it.j = 0
			continue
		}
		it.vi++
		it.i, it.j = 0, 0
	}
	return 0, 0, false
}

func (b *builder[T]) neighborChecks() int64 {
	var count int
	b.phChecks.local(func() { count = b.pairCount() })
	it := &pairIter{}
	w := b.phaseWriter()
	emitted := int64(0)
	b.phChecks.run(count, 1, func(_ int) {
		u1, u2, ok := b.emitChecks(it)
		if !ok {
			return // duplicate-id pairs were skipped; fewer real pairs
		}
		emitted++
		w.Reset()
		m := msg.Type1{U1: u1, U2: u2}
		m.Encode(w)
		b.c.Async(b.owner(u1), b.hType1, w.Bytes())
		if !b.cfg.Protocol.OneSided {
			w.Reset()
			m = msg.Type1{U1: u2, U2: u1}
			m.Encode(w)
			b.c.Async(b.owner(u2), b.hType1, w.Bytes())
		}
	})
	return emitted
}

// onType1 runs at owner(u1): forward u1's feature vector to u2
// (Type 2 / Type 2+), unless the pair is redundant (4.3.2). The
// decision reads u1's list, so it is staged and taken at apply time,
// in arrival order with the staged list updates.
func (b *builder[T]) onType1(p []byte) {
	r := b.handlerReader(p)
	var m msg.Type1
	m.Decode(r)
	if r.Finish() != nil {
		panic("core: bad type1")
	}
	b.pool.stageApply(taskType1, cand{A: m.U1, B: m.U2, Local: int32(b.localIndex(m.U1))})
}

func (b *builder[T]) applyType1(c *cand) {
	i := int(c.Local)
	if b.cfg.Protocol.OneSided && b.cfg.Protocol.SkipRedundant && b.lists[i].Contains(c.B) {
		return
	}
	vec := b.shard.Vecs[i]
	m := msg.Type2[T]{U1: c.A, U2: c.B, Vec: vec}
	if b.cfg.Protocol.OneSided && b.cfg.Protocol.PruneDistant {
		m.HasBound = true
		m.Bound = b.lists[i].FarthestDist()
	}
	if b.byRef {
		// By reference: only the head exists; owner(u2) reads the vector
		// as data[u1]. Charged exactly what the encode below would send.
		w := b.replyWriter()
		m.EncodeHead(w)
		b.asyncByRef(b.owner(c.B), b.hType2, w, vec)
		return
	}
	// Type 2 dominates the build's traffic (it carries a feature
	// vector per check pair), so it encodes straight into the comm's
	// aggregation buffer — one copy instead of scratch-then-enqueue.
	n := 9 + wire.VectorBytes[T](len(vec))
	if m.HasBound {
		n += 4
	}
	w := b.c.AsyncWriter(b.owner(c.B), b.hType2, n)
	m.Encode(w)
	b.c.FinishAsyncWriter(w)
}

// onType2 runs at owner(u2): stage theta(u1, u2). At apply time the
// distance updates u2's list, and in the one-sided flow returns to u1
// (Type 3) unless redundant (4.3.2) or prunable (4.3.3). DecodeHead
// leaves Bound at MaxFloat32 for plain Type 2 messages, which is what
// the prune comparison wants.
func (b *builder[T]) onType2(p []byte) {
	r := b.handlerReader(p)
	var m msg.Type2[T]
	m.DecodeHead(r)
	var stable bool
	m.Vec, stable = b.getVec(r, m.U1)
	if r.Finish() != nil {
		panic("core: bad type2")
	}
	j := b.localIndex(m.U2)
	b.stageDist(taskType2, m.U1, m.Vec, stable, cand{A: m.U1, B: m.U2, Local: int32(j), D: m.Bound}, j)
}

func (b *builder[T]) applyType2(c *cand, d float32) {
	j := int(c.Local)
	if !b.cfg.Protocol.OneSided {
		// Two-sided flow: each endpoint updates only its own list.
		b.updates += int64(b.lists[j].Update(c.A, d, true))
		return
	}
	// Fast reject: when d can neither enter u2's list nor survive the
	// 4.3.3 prune, membership is irrelevant — Update would return 0
	// and no Type 3 would be sent — so skip the scan entirely. This is
	// the steady-state majority case of a converged descent.
	if b.cfg.Protocol.PruneDistant && d >= c.D && !b.lists[j].Accepts(d) {
		return
	}
	changed, alreadyNeighbor := b.lists[j].UpdateCheck(c.A, d, true)
	b.updates += int64(changed)
	if b.cfg.Protocol.SkipRedundant && alreadyNeighbor {
		return
	}
	if b.cfg.Protocol.PruneDistant && d >= c.D {
		return
	}
	w := b.replyWriter()
	m := msg.Type3{U1: c.A, U2: c.B, D: d}
	m.Encode(w)
	b.c.Async(b.owner(c.A), b.hType3, w.Bytes())
}

// onType3 runs at owner(u1): fold the returned distance into u1's list.
func (b *builder[T]) onType3(p []byte) {
	r := b.handlerReader(p)
	var m msg.Type3
	m.Decode(r)
	if r.Finish() != nil {
		panic("core: bad type3")
	}
	b.pool.stageApply(taskType3, cand{B: m.U2, Local: int32(b.localIndex(m.U1)), D: m.D})
}
