package knng

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randomGraph(rng *rand.Rand, n, k int) *Graph {
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		l := NewNeighborList(k)
		for l.Len() < k && l.Len() < n-1 {
			u := ID(rng.Intn(n))
			if u == ID(v) {
				continue
			}
			l.Update(u, rng.Float32(), false)
		}
		g.Neighbors[v] = l.Sorted()
	}
	return g
}

func TestGraphValidate(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 50, 5)
	if err := g.Validate(); err != nil {
		t.Fatalf("random graph should validate: %v", err)
	}

	bad := NewGraph(3)
	bad.Neighbors[0] = []Neighbor{{ID: 0, Dist: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("self-loop not detected")
	}
	bad.Neighbors[0] = []Neighbor{{ID: 9, Dist: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range neighbor not detected")
	}
	bad.Neighbors[0] = []Neighbor{{ID: 1, Dist: 1}, {ID: 1, Dist: 2}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate neighbor not detected")
	}
	bad.Neighbors[0] = []Neighbor{{ID: 1, Dist: 2}, {ID: 2, Dist: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted list not detected")
	}
	nan := float32(0)
	nan /= nan
	bad.Neighbors[0] = []Neighbor{{ID: 1, Dist: nan}}
	if err := bad.Validate(); err == nil {
		t.Error("NaN distance not detected")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), 30, 4)
	blob := g.Marshal()
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(got) {
		t.Fatal("round trip changed the graph")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 10, 3)
	blob := g.Marshal()

	if _, err := Unmarshal(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty blob accepted")
	}
	badMagic := append([]byte(nil), blob...)
	badMagic[0] ^= 0xFF
	if _, err := Unmarshal(badMagic); err == nil {
		t.Error("bad magic accepted")
	}
	badVersion := append([]byte(nil), blob...)
	badVersion[4] = 99
	if _, err := Unmarshal(badVersion); err == nil {
		t.Error("bad version accepted")
	}
	trailing := append(append([]byte(nil), blob...), 0)
	if _, err := Unmarshal(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// allocDuring returns the bytes f allocates.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUnmarshalHostileCounts: a blob whose top-level count its bytes
// cannot hold is rejected before anything is sized from that count.
func TestUnmarshalHostileCounts(t *testing.T) {
	le := binary.LittleEndian
	graph := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, graphMagic), graphVersion), 1<<20)
	tombs := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, tombMagic), tombVersion), 1<<26)
	for name, decode := range map[string]func() error{
		"graph": func() error { _, err := Unmarshal(graph); return err },
		"tombs": func() error { _, err := UnmarshalTombSet(tombs); return err },
	} {
		var err error
		if grew := allocDuring(func() { err = decode() }); grew >= 1<<20 {
			t.Errorf("%s: rejecting a 12-byte blob allocated %d bytes", name, grew)
		}
		if err == nil {
			t.Errorf("%s: 12-byte blob with a huge count accepted", name)
		}
	}
}

// TestUnmarshalRejectsOutOfRangeID: a neighbor ID at or past N would
// load fine and panic the first search that reached it.
func TestUnmarshalRejectsOutOfRangeID(t *testing.T) {
	g := NewGraph(3)
	g.Neighbors[0] = []Neighbor{{ID: 1, Dist: 1}}
	g.Neighbors[1] = []Neighbor{{ID: 3, Dist: 1}}
	if _, err := Unmarshal(g.Marshal()); !errors.Is(err, ErrBadGraphData) {
		t.Fatalf("neighbor ID 3 in a 3-vertex graph: %v, want ErrBadGraphData", err)
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		k := rng.Intn(5) + 1
		g := randomGraph(rng, n, k)
		got, err := Unmarshal(g.Marshal())
		return err == nil && g.Equal(got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeReverseEdges(t *testing.T) {
	g := NewGraph(3)
	g.Neighbors[0] = []Neighbor{{ID: 1, Dist: 1}}
	g.Neighbors[1] = []Neighbor{{ID: 2, Dist: 2}}
	g.Neighbors[2] = []Neighbor{{ID: 0, Dist: 3}}
	g.MergeReverseEdges()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every vertex now has both its out-edge and the reverse in-edge.
	for v := 0; v < 3; v++ {
		if len(g.Neighbors[v]) != 2 {
			t.Fatalf("vertex %d degree = %d, want 2", v, len(g.Neighbors[v]))
		}
	}
	if r := g.SymmetrizationRatio(); r != 1.0 {
		t.Errorf("symmetrization after merge = %v, want 1", r)
	}
}

func TestMergeReverseEdgesDeduplicates(t *testing.T) {
	g := NewGraph(2)
	g.Neighbors[0] = []Neighbor{{ID: 1, Dist: 1}}
	g.Neighbors[1] = []Neighbor{{ID: 0, Dist: 1}}
	g.MergeReverseEdges()
	if len(g.Neighbors[0]) != 1 || len(g.Neighbors[1]) != 1 {
		t.Fatalf("mutual edge duplicated: %v", g.Neighbors)
	}
}

func TestPruneDegrees(t *testing.T) {
	g := NewGraph(1)
	for i := 1; i <= 10; i++ {
		g.Neighbors[0] = append(g.Neighbors[0], Neighbor{ID: ID(i % 11), Dist: float32(10 - i)})
	}
	g.PruneDegrees(4, 1.5) // limit 6
	if len(g.Neighbors[0]) != 6 {
		t.Fatalf("degree after prune = %d, want 6", len(g.Neighbors[0]))
	}
	// Kept entries must be the 6 smallest distances (0..5).
	for _, e := range g.Neighbors[0] {
		if e.Dist > 5 {
			t.Errorf("kept far neighbor dist=%v", e.Dist)
		}
	}
}

func TestOptimizePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 100, 8)
	before := g.NumEdges()
	g.Optimize(8, 1.5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 12 {
		t.Errorf("max degree %d exceeds k*m=12", g.MaxDegree())
	}
	if g.NumEdges() < before/2 {
		t.Errorf("optimize lost too many edges: %d -> %d", before, g.NumEdges())
	}
}

func TestRecall(t *testing.T) {
	g := NewGraph(2)
	g.Neighbors[0] = []Neighbor{{ID: 1, Dist: 1}}
	g.Neighbors[1] = []Neighbor{{ID: 0, Dist: 1}}
	truth := [][]ID{{1}, {0}}
	if r := g.Recall(truth, 1); r != 1.0 {
		t.Errorf("perfect recall = %v", r)
	}
	truth = [][]ID{{1}, {1}} // vertex 1's truth not matched (self not allowed anyway)
	if r := g.Recall(truth, 1); r != 0.5 {
		t.Errorf("half recall = %v", r)
	}
}

func TestTopIDsAndHistogram(t *testing.T) {
	g := NewGraph(2)
	g.Neighbors[0] = []Neighbor{{ID: 1, Dist: 1}}
	ids := g.TopIDs(5)
	if len(ids[0]) != 1 || ids[0][0] != 1 || len(ids[1]) != 0 {
		t.Errorf("TopIDs = %v", ids)
	}
	h := g.DegreeHistogram()
	if h[1] != 1 || h[0] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestStatsHelpers(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 20, 3)
	if g.NumVertices() != 20 {
		t.Error("NumVertices")
	}
	if g.MaxDegree() != 3 || g.AvgDegree() != 3 || g.NumEdges() != 60 {
		t.Errorf("degree stats: max=%d avg=%v edges=%d", g.MaxDegree(), g.AvgDegree(), g.NumEdges())
	}
	if g.Degree(0) != 3 {
		t.Error("Degree")
	}
}
