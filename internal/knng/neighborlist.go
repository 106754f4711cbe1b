// Package knng provides the k-nearest-neighbor-graph data structures
// shared by the DNND construction path, the search path, and the
// baselines: the bounded neighbor heap implementing Algorithm 1's
// Update, the final Graph adjacency, (de)serialization, invariant
// checking, and the Section 4.5 graph optimizations (reverse-edge merge
// and degree pruning).
package knng

import "dnnd/internal/wire"

// ID is a global point identifier. The paper uses uint32 point IDs for
// billion-scale datasets; we follow suit.
type ID = uint32

// InvalidID is a sentinel that never names a real point.
const InvalidID ID = ^ID(0)

// Neighbor is one entry of a neighbor list: a point, its distance from
// the list owner, and the NN-Descent new/old flag.
type Neighbor struct {
	ID   ID
	Dist float32
	New  bool
}

// NeighborList is a bounded max-heap of up to K neighbors keyed by
// distance with the farthest entry at the top, exactly the structure H
// manipulated by Update in Algorithm 1. Membership is deduplicated.
//
// K is small (10-100 in the paper), so membership checks are linear
// scans; that beats a side map at these sizes and keeps the structure
// allocation-free after construction.
type NeighborList struct {
	k     int
	items []Neighbor // max-heap by Dist; items[0] is the farthest
	// far caches FarthestDist(): items[0].Dist on a full list,
	// maxFloat32 otherwise. The check phase's accept/prune decisions
	// read this bound once per candidate on lists scattered across the
	// heap; the inline copy answers them without chasing items. It is
	// refreshed by the sift helpers, through which every heap mutation
	// passes.
	far float32
}

// NewNeighborList returns an empty list with capacity k.
// k must be positive.
func NewNeighborList(k int) *NeighborList {
	if k <= 0 {
		panic("knng: neighbor list capacity must be positive")
	}
	return &NeighborList{k: k, items: make([]Neighbor, 0, k), far: maxFloat32}
}

// MakeNeighborLists returns n empty lists of capacity k with all their
// entry storage carved from one contiguous slab, so the construction
// hot loop's random per-vertex list accesses stay within one compact
// region instead of n scattered allocations.
func MakeNeighborLists(n, k int) []NeighborList {
	if k <= 0 {
		panic("knng: neighbor list capacity must be positive")
	}
	slab := make([]Neighbor, n*k)
	lists := make([]NeighborList, n)
	for i := range lists {
		lists[i] = NeighborList{k: k, items: slab[i*k : i*k : (i+1)*k], far: maxFloat32}
	}
	return lists
}

// Reset empties the list and sets its capacity to k, reusing the entry
// storage when it is already large enough. Pooled search contexts reset
// one list per query instead of allocating a fresh NeighborList.
// k must be positive.
func (l *NeighborList) Reset(k int) {
	if k <= 0 {
		panic("knng: neighbor list capacity must be positive")
	}
	if cap(l.items) < k {
		l.items = make([]Neighbor, 0, k)
	}
	l.k = k
	l.items = l.items[:0]
	l.far = maxFloat32
}

// K returns the list's capacity.
func (l *NeighborList) K() int { return l.k }

// Len returns the number of stored neighbors.
func (l *NeighborList) Len() int { return len(l.items) }

// Full reports whether the list holds K neighbors.
func (l *NeighborList) Full() bool { return len(l.items) == l.k }

// FarthestDist returns the distance to the current farthest neighbor.
// On a non-full list it returns +Inf semantics via MaxFloat behaviour:
// callers that prune on this bound must treat a non-full list as
// unbounded, so we return the largest float32.
func (l *NeighborList) FarthestDist() float32 { return l.far }

const maxFloat32 = 3.4028234663852886e+38

// Contains reports whether id is in the list.
func (l *NeighborList) Contains(id ID) bool {
	for i := range l.items {
		if l.items[i].ID == id {
			return true
		}
	}
	return false
}

// Update implements Algorithm 1's Update(H, (v, d, f)): insert (id, d)
// flagged new if id is absent and either the list is not full or d is
// strictly closer than the farthest entry, evicting the farthest in the
// latter case. It returns 1 when the list changed and 0 otherwise,
// matching the paper's counter increment.
func (l *NeighborList) Update(id ID, d float32, isNew bool) int {
	// Farthest-first rejection: on a full list a candidate at least as
	// far as the top can never change anything, whether or not it is
	// already a member, so skip the O(K) membership scan. Observably
	// identical to checking membership first — both orders return 0 and
	// leave the heap untouched — but it makes the common steady-state
	// case (descent resubmitting far candidates) O(1).
	if len(l.items) == l.k && d >= l.far {
		return 0
	}
	if l.Contains(id) {
		return 0
	}
	if len(l.items) < l.k {
		l.items = append(l.items, Neighbor{ID: id, Dist: d, New: isNew})
		l.siftUp(len(l.items) - 1)
		return 1
	}
	l.items[0] = Neighbor{ID: id, Dist: d, New: isNew}
	l.siftDown(0)
	return 1
}

// Accepts reports whether a candidate at distance d could change the
// list, ignoring membership: the list is not full, or d beats the
// farthest entry. When it returns false, Update(id, d, ...) is a
// guaranteed no-op for every id — the check-phase fast-reject path
// uses this to skip the membership scan entirely.
func (l *NeighborList) Accepts(d float32) bool {
	return len(l.items) < l.k || d < l.far
}

// UpdateCheck is Contains(id) fused with Update(id, d, isNew): it
// returns Update's change count together with whether id was already a
// member BEFORE the update, using a single membership scan where the
// separate calls would scan twice. The results are exactly those of
// calling Contains(id) then Update(id, d, isNew) — the check-phase
// apply loop needs both (membership drives the 4.3.2 redundancy
// decision, the change count drives Algorithm 1's counter), and the
// scan is its hottest non-kernel cost.
func (l *NeighborList) UpdateCheck(id ID, d float32, isNew bool) (changed int, wasPresent bool) {
	if len(l.items) == l.k && d >= l.far {
		// Bound-rejected: the heap cannot change, but the caller still
		// needs membership.
		return 0, l.Contains(id)
	}
	if l.Contains(id) {
		return 0, true
	}
	if len(l.items) < l.k {
		l.items = append(l.items, Neighbor{ID: id, Dist: d, New: isNew})
		l.siftUp(len(l.items) - 1)
		return 1, false
	}
	l.items[0] = Neighbor{ID: id, Dist: d, New: isNew}
	l.siftDown(0)
	return 1, false
}

// refreshFar re-derives the cached farthest bound from the heap root.
// Every heap mutation ends in a sift, so the sift helpers are the one
// place that must call it.
func (l *NeighborList) refreshFar() {
	if len(l.items) == l.k {
		l.far = l.items[0].Dist
	} else {
		l.far = maxFloat32
	}
}

func (l *NeighborList) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if l.items[parent].Dist >= l.items[i].Dist {
			break
		}
		l.items[parent], l.items[i] = l.items[i], l.items[parent]
		i = parent
	}
	l.refreshFar()
}

func (l *NeighborList) siftDown(i int) {
	n := len(l.items)
	for {
		left, right := 2*i+1, 2*i+2
		largest := i
		if left < n && l.items[left].Dist > l.items[largest].Dist {
			largest = left
		}
		if right < n && l.items[right].Dist > l.items[largest].Dist {
			largest = right
		}
		if largest == i {
			break
		}
		l.items[i], l.items[largest] = l.items[largest], l.items[i]
		i = largest
	}
	l.refreshFar()
}

// Items returns the stored neighbors in heap order. The slice aliases
// internal storage; callers must not mutate IDs or distances, but may
// toggle the New flag (used by the NN-Descent sampling step).
func (l *NeighborList) Items() []Neighbor { return l.items }

// Sorted returns a copy of the neighbors ordered by ascending distance
// (ties broken by ID for determinism).
func (l *NeighborList) Sorted() []Neighbor {
	out := make([]Neighbor, len(l.items))
	copy(out, l.items)
	sortNeighbors(out)
	return out
}

// SortedInto writes the neighbors in Sorted's order into dst[:0] and
// returns the result, allocating only when dst lacks capacity. The
// returned slice orders exactly as Sorted.
func (l *NeighborList) SortedInto(dst []Neighbor) []Neighbor {
	dst = append(dst[:0], l.items...)
	sortNeighbors(dst)
	return dst
}

// MarkOld clears the New flag on the neighbor with the given id, if
// present. Used when the sampling step consumes a "new" entry
// (Algorithm 1, line 10).
func (l *NeighborList) MarkOld(id ID) {
	for i := range l.items {
		if l.items[i].ID == id {
			l.items[i].New = false
			return
		}
	}
}

// SortByDist sorts neighbors in place by ascending distance, ties
// broken by ID for determinism — the ordering used by Sorted and by
// the graph-optimization merge. Insertion sort: lists are short
// (K <= ~150 even after the reverse-edge merge).
func SortByDist(ns []Neighbor) { sortNeighbors(ns) }

func sortNeighbors(ns []Neighbor) {
	// Insertion sort: lists are short (K <= ~150 even after merge).
	for i := 1; i < len(ns); i++ {
		x := ns[i]
		j := i - 1
		for j >= 0 && (ns[j].Dist > x.Dist || (ns[j].Dist == x.Dist && ns[j].ID > x.ID)) {
			ns[j+1] = ns[j]
			j--
		}
		ns[j+1] = x
	}
}

// PutNeighbors appends a neighbor list as a uint32 count followed by
// (ID uint32, Dist float32) pairs: the layout of every list in a graph
// blob, a gathered row and a query reply. New/old flags are not encoded.
func PutNeighbors(w *wire.Writer, ns []Neighbor) {
	w.Uint32(uint32(len(ns)))
	for _, n := range ns {
		w.Uint32(n.ID)
		w.Float32(n.Dist)
	}
}

// GetNeighbors decodes a list written by PutNeighbors; decoded entries
// have New == false. The count is validated against the bytes remaining
// before the slice is sized, so a corrupt frame fails the Reader (and
// returns nil) instead of forcing a huge allocation.
func GetNeighbors(r *wire.Reader) []Neighbor {
	n := r.Count(8) // 8 encoded bytes per neighbor (ID + Dist)
	if r.Err() != nil {
		return nil
	}
	out := make([]Neighbor, n)
	for i := range out {
		out[i].ID = r.Uint32()
		out[i].Dist = r.Float32()
	}
	if r.Err() != nil {
		return nil
	}
	return out
}
