package core

import (
	"dnnd/internal/knng"
	"dnnd/internal/msg"
)

// Phase 3: neighbor checks (Algorithm 1 lines 17-22, Section 4.3). The
// Type 1 / Type 2 / Type 2+ / Type 3 protocol: a check request travels
// to owner(u1), which forwards u1's feature vector to owner(u2) unless
// redundant (4.3.2); owner(u2) evaluates and, in the one-sided flow,
// returns the distance unless prunable (4.3.3).
//
// The protocol exists to save network messages, so only pairs whose
// endpoints live on different ranks take it, and the check phase never
// messages its own rank. A co-owned pair (owner(u1) == owner(u2)) is
// checked in place, where it is generated or where its one Type 1
// lands: staged as a distance task keyed by u1, so consecutive partners
// of one u1 evaluate as one block, and applied to both lists (the
// textbook local join). A Type 1 bound for the generating rank is
// decided where it is generated, so Type 2 and Type 3 always cross
// ranks.
//
// Type 1 and Type 3 compute nothing, so they are applied where they
// arrive, as YGM's handlers act on receipt: the Type 1 decision reads
// u1's list as it stands then, and a Type 3 folds into u1's list at
// once. Only the distance work (Type 2 and co-owned checks) is staged
// on the worker ring.

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
	emitted := int64(0)
	b.phChecks.run(count, 1, func(_ int) {
		u1, u2, ok := b.emitChecks(it)
		if !ok {
			return // duplicate-id pairs were skipped; fewer real pairs
		}
		emitted++
		// The two-sided flow's second request goes only to a different
		// owner: a co-owned pair is checked once, in both flows.
		o1, o2 := b.owner(u1), b.owner(u2)
		b.sendType1(o1, u1, u2)
		if o1 != o2 && !b.cfg.Protocol.OneSided {
			b.sendType1(o2, u2, u1)
		}
	})
	return emitted
}

// sendType1 routes the check request for (u1, u2) to dest ==
// owner(u1). A request for this rank sends nothing: it is decided at
// once, as if it had arrived.
func (b *builder[T]) sendType1(dest int, u1, u2 knng.ID) {
	if dest != b.c.Rank() {
		w := b.phaseWriter()
		m := msg.Type1{U1: u1, U2: u2}
		m.Encode(w)
		b.c.Async(dest, b.hType1, w.Bytes())
		return
	}
	b.decideType1(b.localIndex(u1), u1, u2)
}

// checkLocal stages theta(u1, u2) for a pair this rank owns both ends
// of; i is u1's shard index. The 4.3.2 skip runs first, so a redundant
// pair costs no evaluation. The task is keyed by u1, so u1's
// consecutive partners coalesce into one EvalMany block.
func (b *builder[T]) checkLocal(i int, u1, u2 knng.ID) {
	if b.cfg.Protocol.OneSided && b.cfg.Protocol.SkipRedundant && b.lists[i].Contains(u2) {
		return
	}
	j := b.localIndex(u2)
	b.stageDist(taskLocal, u1, b.shard.Vecs[i], true, cand{A: u1, B: u2, Local: int32(j)}, j)
}

// applyLocal lands a co-owned pair's distance on u2's list and then on
// u1's (shard index i), deciding as the Type 2 and Type 3 handlers
// would: in the one-sided flow with 4.3.2, u1's list is skipped when u1
// already was u2's neighbor, and each list's own bound is the 4.3.3
// prune. The two-sided flow updates both lists.
func (b *builder[T]) applyLocal(i int, c *cand, d float32) {
	l1, l2 := &b.lists[i], &b.lists[c.Local]
	// Membership matters only when d could still enter u1's list.
	if b.cfg.Protocol.OneSided && b.cfg.Protocol.SkipRedundant && l1.Accepts(d) {
		changed, alreadyNeighbor := l2.UpdateCheck(c.A, d, true)
		b.updates += int64(changed)
		if !alreadyNeighbor {
			b.updates += int64(l1.Update(c.B, d, true))
		}
		return
	}
	b.updates += int64(l2.Update(c.A, d, true) + l1.Update(c.B, d, true))
}

// onType1 runs at owner(u1) and takes the request's decision on
// arrival (see decideType1).
func (b *builder[T]) onType1(p []byte) {
	r := b.handlerReader(p)
	var m msg.Type1
	m.Decode(r)
	if r.Finish() != nil {
		panic("core: bad type1")
	}
	b.decideType1(b.localIndex(m.U1), m.U1, m.U2)
}

// decideType1 is owner(u1)'s decision on the check request (u1, u2),
// where i is u1's shard index: check the pair in place when this rank
// also owns u2, skip it when u2 already is u1's neighbor (4.3.2), or
// forward u1's feature vector to owner(u2) (Type 2, or Type 2+ carrying
// u1's current bound). It reads u1's list as it stands now and
// evaluates nothing.
func (b *builder[T]) decideType1(i int, u1, u2 knng.ID) {
	dest := b.owner(u2)
	if dest == b.c.Rank() {
		b.checkLocal(i, u1, u2)
		return
	}
	if b.cfg.Protocol.OneSided && b.cfg.Protocol.SkipRedundant && b.lists[i].Contains(u2) {
		return
	}
	vec := b.shard.Vecs[i]
	m := msg.Type2[T]{U1: u1, U2: u2, Vec: vec}
	if b.cfg.Protocol.OneSided && b.cfg.Protocol.PruneDistant {
		m.HasBound = true
		m.Bound = b.lists[i].FarthestDist()
	}
	w := b.replyWriter()
	if b.byRef {
		// By reference: only the head exists; owner(u2) reads the vector
		// as data[u1]. Charged exactly what the full encode would send.
		m.EncodeHead(w)
		b.asyncByRef(dest, b.hType2, w, vec)
		return
	}
	m.Encode(w)
	b.c.Async(dest, b.hType2, w.Bytes())
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
	b.updates += int64(b.lists[b.localIndex(m.U1)].Update(m.U2, m.D, true))
}
