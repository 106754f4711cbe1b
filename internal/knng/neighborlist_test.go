package knng

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestUpdateBasics(t *testing.T) {
	l := NewNeighborList(3)
	if l.FarthestDist() != maxFloat32 {
		t.Error("non-full list should have unbounded farthest distance")
	}
	if got := l.Update(1, 1.0, true); got != 1 {
		t.Error("insert into empty list should return 1")
	}
	if got := l.Update(1, 0.5, true); got != 0 {
		t.Error("duplicate id should return 0")
	}
	l.Update(2, 2.0, true)
	l.Update(3, 3.0, false)
	if !l.Full() {
		t.Fatal("list should be full")
	}
	if l.FarthestDist() != 3.0 {
		t.Errorf("farthest = %v, want 3", l.FarthestDist())
	}
	// Worse than farthest: rejected.
	if got := l.Update(4, 3.5, true); got != 0 {
		t.Error("worse-than-farthest insert should return 0")
	}
	// Equal to farthest: rejected (strict less per Algorithm 1).
	if got := l.Update(5, 3.0, true); got != 0 {
		t.Error("equal-to-farthest insert should return 0")
	}
	// Better: evicts 3.
	if got := l.Update(6, 0.1, true); got != 1 {
		t.Error("better insert should return 1")
	}
	if l.Contains(3) {
		t.Error("farthest neighbor should have been evicted")
	}
	if l.FarthestDist() != 2.0 {
		t.Errorf("farthest = %v, want 2", l.FarthestDist())
	}
}

func TestSortedAndFlags(t *testing.T) {
	l := NewNeighborList(4)
	l.Update(10, 4, true)
	l.Update(11, 2, false)
	l.Update(12, 3, true)
	l.Update(13, 1, true)
	s := l.Sorted()
	for i := 1; i < len(s); i++ {
		if s[i-1].Dist > s[i].Dist {
			t.Fatalf("Sorted not ascending: %v", s)
		}
	}
	if s[0].ID != 13 || s[3].ID != 10 {
		t.Errorf("order = %v", s)
	}
	l.MarkOld(12)
	for _, n := range l.Items() {
		if n.ID == 12 && n.New {
			t.Error("MarkOld(12) did not clear flag")
		}
		if n.ID == 10 && !n.New {
			t.Error("MarkOld should not touch other entries")
		}
	}
}

func TestNewNeighborListPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewNeighborList(0)
}

// Property: after arbitrary updates the list holds the k smallest
// distances among accepted distinct IDs, with heap invariant intact.
func TestQuickNeighborListKeepsKSmallest(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		l := NewNeighborList(k)
		best := map[ID]float32{}
		n := rng.Intn(200) + 1
		for i := 0; i < n; i++ {
			id := ID(rng.Intn(60))
			d := rng.Float32()
			l.Update(id, d, true)
			// Model: the list only ever accepts the first distance
			// seen for an id (duplicates rejected), and keeps k best.
			if _, ok := best[id]; !ok {
				// It may or may not have been accepted depending on
				// current farthest; we verify the weaker invariant
				// below instead of simulating acceptance exactly.
				best[id] = d
			}
		}
		// Heap invariant: parent >= child.
		items := l.Items()
		for i := 1; i < len(items); i++ {
			if items[(i-1)/2].Dist < items[i].Dist {
				return false
			}
		}
		// No duplicates.
		seen := map[ID]bool{}
		for _, it := range items {
			if seen[it.ID] {
				return false
			}
			seen[it.ID] = true
		}
		// Size never exceeds k.
		return len(items) <= k
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Against a brute-force model: feeding each distinct id exactly once
// must retain exactly the k nearest.
func TestQuickNeighborListMatchesBruteForce(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		type pair struct {
			id ID
			d  float32
		}
		pairs := make([]pair, n)
		used := map[float32]bool{}
		for i := range pairs {
			d := rng.Float32()
			for used[d] { // force distinct distances so the answer is unique
				d = rng.Float32()
			}
			used[d] = true
			pairs[i] = pair{ID(i), d}
		}
		l := NewNeighborList(k)
		for _, p := range pairs {
			l.Update(p.id, p.d, true)
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].d < pairs[j].d })
		want := pairs
		if len(want) > k {
			want = want[:k]
		}
		got := l.Sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].ID != want[i].id || got[i].Dist != want[i].d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// refUpdate is Update as originally written — membership scan first,
// then the full-list bound check. The shipping Update reorders those
// checks (farthest-first rejection); this reference pins that the
// reorder is observably identical: same return value and same exact
// heap layout after any operation sequence.
func refUpdate(l *NeighborList, id ID, d float32, isNew bool) int {
	if l.Contains(id) {
		return 0
	}
	if len(l.items) < l.k {
		l.items = append(l.items, Neighbor{ID: id, Dist: d, New: isNew})
		l.siftUp(len(l.items) - 1)
		return 1
	}
	if d >= l.items[0].Dist {
		return 0
	}
	l.items[0] = Neighbor{ID: id, Dist: d, New: isNew}
	l.siftDown(0)
	return 1
}

func sameLayout(a, b *NeighborList) bool {
	if len(a.items) != len(b.items) {
		return false
	}
	for i := range a.items {
		if a.items[i] != b.items[i] {
			return false
		}
	}
	return true
}

func TestUpdateFarthestFirstEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(8) + 1
		got, ref := NewNeighborList(k), NewNeighborList(k)
		for op := 0; op < 300; op++ {
			// Small id/distance spaces force duplicates, ties with the
			// farthest entry, and resubmissions of evicted ids.
			id := ID(rng.Intn(12))
			d := float32(rng.Intn(6)) / 2
			isNew := rng.Intn(2) == 0
			if got.Update(id, d, isNew) != refUpdate(ref, id, d, isNew) {
				return false
			}
			if !sameLayout(got, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
