package core

import (
	"math"

	"dnnd/internal/knng"
)

// Phase 2a: local sampling (Algorithm 1 lines 7-14). Purely rank-local
// — no messages; round() runs these under the nd.sample phase clock.

// sampleLists builds old[v] and new[v] from the flags, marking the
// sampled new entries old.
func (b *builder[T]) sampleLists() {
	sampleN := int(math.Ceil(b.cfg.Rho * float64(b.cfg.K)))
	for i := range b.lists {
		// Dead vertices sample nothing: with empty old/new lists they
		// generate no checks and never enter a reverse row, so no live
		// list can ever acquire a dead neighbor.
		if b.dead.Dead(b.shard.IDs[i]) {
			b.olds[i] = b.olds[i][:0]
			b.news[i] = b.news[i][:0]
			continue
		}
		items := b.lists[i].Items()
		old := b.olds[i][:0]
		cand := b.candScratch[:0]
		for _, it := range items {
			if it.New {
				cand = append(cand, it.ID)
			} else {
				old = append(old, it.ID)
			}
		}
		b.rng.Shuffle(len(cand), func(a, z int) { cand[a], cand[z] = cand[z], cand[a] })
		b.candScratch = cand // keep the (possibly grown) backing array
		if len(cand) > sampleN {
			cand = cand[:sampleN]
		}
		nw := b.news[i][:0]
		for _, id := range cand {
			b.lists[i].MarkOld(id)
			nw = append(nw, id)
		}
		b.olds[i] = old
		b.news[i] = nw
	}
}

// mergeReverseSamples implements lines 15-16: union rho*K sampled
// reverse entries into old[v] and new[v], deduplicating.
func (b *builder[T]) mergeReverseSamples() {
	sampleN := int(math.Ceil(b.cfg.Rho * float64(b.cfg.K)))
	for i, v := range b.shard.IDs {
		if b.dead.Dead(v) {
			continue // keep old/new empty (see sampleLists)
		}
		b.olds[i] = b.unionSample(b.olds[i], b.oldRevRows[i], sampleN)
		b.news[i] = b.unionSample(b.news[i], b.newRevRows[i], sampleN)
	}
}

// unionSample merges up to sampleN random elements of extra into base
// (in place), deduplicating the result. extra belongs to the reverse
// matrix and must not be reordered — its rows persist (and, in earlier
// revisions, aliased other sampling state) — so the shuffle runs on a
// scratch copy. rand.Shuffle consumes the same random stream regardless
// of what the swap closure touches, so the copy leaves the RNG sequence
// identical to the historical in-place shuffle.
func (b *builder[T]) unionSample(base, extra []knng.ID, sampleN int) []knng.ID {
	if len(extra) > sampleN {
		scratch := append(b.shufScratch[:0], extra...)
		b.shufScratch = scratch
		b.rng.Shuffle(len(scratch), func(a, z int) { scratch[a], scratch[z] = scratch[z], scratch[a] })
		extra = scratch[:sampleN]
	}
	b.beginVisit()
	out := base[:0]
	for _, id := range base {
		if b.visited.Visit(id) {
			out = append(out, id)
		}
	}
	for _, id := range extra {
		if b.visited.Visit(id) {
			out = append(out, id)
		}
	}
	return out
}
