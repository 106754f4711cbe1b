package core

import (
	"math"
	"slices"

	"dnnd/internal/knng"
	"dnnd/internal/splitmix"
)

// Phase 2a: local sampling (Algorithm 1 lines 7-14). Purely rank-local
// — no messages; sample() runs these under the nd.sample phase clock.

// sampleLists builds old[v] and new[v] from the flags, marking the
// sampled new entries old. new leaves in priority order, not heap
// layout; mergeReverseSamples orders old where a check pair reads it.
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
		old, nw := b.olds[i][:0], b.news[i][:0]
		for _, it := range b.lists[i].Items() {
			if it.New {
				nw = append(nw, it.ID)
			} else {
				old = append(old, it.ID)
			}
		}
		b.news[i] = b.byPriority(nw, b.draw(uint64(b.shard.IDs[i]), drawSample), sampleN)
		for _, id := range b.news[i] {
			b.lists[i].MarkOld(id)
		}
		b.olds[i] = old
	}
}

// mergeReverseSamples implements lines 15-16: union rho*K sampled
// reverse entries into old[v] and new[v], deduplicated and in priority
// order. Every check pair takes a new entry, so old stays empty without.
func (b *builder[T]) mergeReverseSamples() {
	sampleN := int(math.Ceil(b.cfg.Rho * float64(b.cfg.K)))
	for i, v := range b.shard.IDs {
		if b.dead.Dead(v) {
			continue // keep old/new empty (see sampleLists)
		}
		b.news[i] = b.unionSample(b.news[i], b.newRevRows[i], b.draw(uint64(v), drawRevNew), sampleN)
		old := b.olds[i][:0]
		if len(b.news[i]) > 0 {
			old = b.byPriority(b.olds[i], b.draw(uint64(v), drawSample), len(b.olds[i]))
			old = b.unionSample(old, b.oldRevRows[i], b.draw(uint64(v), drawRevOld), sampleN)
		}
		b.olds[i] = old
	}
}

// unionSample appends the sampleN entries of extra, a reverse row, of
// highest priority under key to base (in place), deduplicated. Nothing
// else reads the row, so it is ordered in place.
func (b *builder[T]) unionSample(base, extra []knng.ID, key uint64, sampleN int) []knng.ID {
	extra = b.byPriority(extra, key, sampleN)
	b.visited.Begin(b.shard.N)
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

// byPriority orders ids by descending priority, the top half of
// Mix64(key ^ id) with ties to the lower id, and returns the first n: a
// uniform sample without replacement, in an order set by key and ids.
func (b *builder[T]) byPriority(ids []knng.ID, key uint64, n int) []knng.ID {
	p := b.prio[:0]
	for _, id := range ids {
		p = append(p, ^splitmix.Mix64(key^uint64(id))&^0xffffffff|uint64(id))
	}
	slices.Sort(p)
	for i, x := range p {
		ids[i] = knng.ID(x)
	}
	b.prio = p
	return ids[:min(n, len(ids))]
}
