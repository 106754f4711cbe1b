package knng

import (
	"errors"
	"fmt"
	"sort"

	"dnnd/internal/wire"
)

// Graph is a finished approximate k-NNG: for every vertex, its neighbor
// entries sorted by ascending distance. Vertex IDs are dense [0, N).
// This is the "simple graph data structure" the paper highlights as
// NN-Descent's convenient output, and the structure the Section 3.3
// search runs on.
type Graph struct {
	// Neighbors[v] lists v's approximate nearest neighbors, closest
	// first.
	Neighbors [][]Neighbor
}

// NewGraph returns an empty graph over n vertices.
func NewGraph(n int) *Graph {
	return &Graph{Neighbors: make([][]Neighbor, n)}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Neighbors) }

// Degree returns the neighbor count of v.
func (g *Graph) Degree(v ID) int { return len(g.Neighbors[v]) }

// MaxDegree returns the largest neighbor-list length.
func (g *Graph) MaxDegree() int {
	m := 0
	for _, ns := range g.Neighbors {
		if len(ns) > m {
			m = len(ns)
		}
	}
	return m
}

// AvgDegree returns the mean neighbor-list length.
func (g *Graph) AvgDegree() float64 {
	if len(g.Neighbors) == 0 {
		return 0
	}
	total := 0
	for _, ns := range g.Neighbors {
		total += len(ns)
	}
	return float64(total) / float64(len(g.Neighbors))
}

// NumEdges returns the total number of directed edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, ns := range g.Neighbors {
		total += len(ns)
	}
	return total
}

// Sort orders every neighbor list by ascending distance (ties by ID).
func (g *Graph) Sort() {
	for _, ns := range g.Neighbors {
		sortNeighbors(ns)
	}
}

// Validate checks structural invariants: neighbor IDs in range, no
// self-loops, no duplicate neighbors, lists sorted by distance, and no
// negative distances. It returns the first violation found.
func (g *Graph) Validate() error {
	n := ID(len(g.Neighbors))
	for v, ns := range g.Neighbors {
		seen := make(map[ID]bool, len(ns))
		for i, e := range ns {
			if e.ID >= n {
				return fmt.Errorf("knng: vertex %d neighbor %d out of range (N=%d)", v, e.ID, n)
			}
			if e.ID == ID(v) {
				return fmt.Errorf("knng: vertex %d has a self-loop", v)
			}
			if seen[e.ID] {
				return fmt.Errorf("knng: vertex %d has duplicate neighbor %d", v, e.ID)
			}
			seen[e.ID] = true
			// Inner-product distances may legitimately be negative,
			// so only NaN is rejected.
			if e.Dist != e.Dist {
				return fmt.Errorf("knng: vertex %d neighbor %d has NaN distance", v, e.ID)
			}
			if i > 0 && ns[i-1].Dist > e.Dist {
				return fmt.Errorf("knng: vertex %d neighbor list not sorted at %d", v, i)
			}
		}
	}
	return nil
}

// graphMagic identifies serialized graphs ("KNNG" little-endian).
const graphMagic uint32 = 0x474e4e4b

const graphVersion uint32 = 1

// ErrBadGraphData reports a corrupt or foreign serialized graph.
var ErrBadGraphData = errors.New("knng: bad graph data")

// Marshal encodes the graph to a binary blob understood by Unmarshal.
func (g *Graph) Marshal() []byte {
	size := 12
	for _, ns := range g.Neighbors {
		size += 4 + 8*len(ns)
	}
	w := wire.NewWriter(size)
	w.Uint32(graphMagic)
	w.Uint32(graphVersion)
	w.Uint32(uint32(len(g.Neighbors)))
	for _, ns := range g.Neighbors {
		encodeNeighbors(w, ns)
	}
	return w.Bytes()
}

// Unmarshal decodes a graph produced by Marshal.
func Unmarshal(p []byte) (*Graph, error) {
	r := wire.NewReader(p)
	if r.Uint32() != graphMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadGraphData)
	}
	if v := r.Uint32(); v != graphVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadGraphData, v)
	}
	n := r.Count(4) // every vertex carries at least its 4-byte list length
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: bad vertex count: %v", ErrBadGraphData, r.Err())
	}
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		ns := decodeNeighbors(r)
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: truncated at vertex %d", ErrBadGraphData, v)
		}
		for _, e := range ns {
			if int(e.ID) >= n {
				return nil, fmt.Errorf("%w: vertex %d neighbor %d out of range (N=%d)", ErrBadGraphData, v, e.ID, n)
			}
		}
		g.Neighbors[v] = ns
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadGraphData, err)
	}
	return g, nil
}

// MergeReverseEdges implements the first Section 4.5 optimization:
// add the transpose of the graph to itself (for every edge v->u, add
// u->v with the same distance), deduplicating. Lists are re-sorted.
func (g *Graph) MergeReverseEdges() {
	n := len(g.Neighbors)
	reverse := make([][]Neighbor, n)
	for v, ns := range g.Neighbors {
		for _, e := range ns {
			reverse[e.ID] = append(reverse[e.ID], Neighbor{ID: ID(v), Dist: e.Dist})
		}
	}
	for v := 0; v < n; v++ {
		if len(reverse[v]) == 0 {
			continue
		}
		seen := make(map[ID]bool, len(g.Neighbors[v])+len(reverse[v]))
		for _, e := range g.Neighbors[v] {
			seen[e.ID] = true
		}
		for _, e := range reverse[v] {
			if !seen[e.ID] {
				seen[e.ID] = true
				g.Neighbors[v] = append(g.Neighbors[v], e)
			}
		}
	}
	g.Sort()
}

// PruneDegrees implements the second Section 4.5 optimization: cap each
// neighbor list at floor(k*m) entries, keeping the closest. m >= 1
// (the paper uses m = 1.5).
func (g *Graph) PruneDegrees(k int, m float64) {
	limit := int(float64(k) * m)
	if limit < 1 {
		limit = 1
	}
	for v, ns := range g.Neighbors {
		if len(ns) > limit {
			sortNeighbors(ns)
			g.Neighbors[v] = ns[:limit:limit]
		}
	}
}

// Optimize applies both Section 4.5 steps: reverse-edge merge followed
// by degree pruning to k*m.
func (g *Graph) Optimize(k int, m float64) {
	g.MergeReverseEdges()
	g.PruneDegrees(k, m)
}

// Recall computes the mean fraction of ground-truth neighbor IDs
// recovered per vertex, considering the first k entries of each list.
// This is the Section 5.2 graph-recall score.
func (g *Graph) Recall(truth [][]ID, k int) float64 {
	if len(truth) != len(g.Neighbors) {
		panic("knng: ground truth size mismatch")
	}
	if len(truth) == 0 {
		return 0
	}
	var total float64
	for v, want := range truth {
		if len(want) > k {
			want = want[:k]
		}
		if len(want) == 0 {
			total += 1
			continue
		}
		wantSet := make(map[ID]bool, len(want))
		for _, id := range want {
			wantSet[id] = true
		}
		got := g.Neighbors[v]
		if len(got) > k {
			got = got[:k]
		}
		hits := 0
		for _, e := range got {
			if wantSet[e.ID] {
				hits++
			}
		}
		total += float64(hits) / float64(len(want))
	}
	return total / float64(len(truth))
}

// DegreeHistogram returns neighbor-list length counts, useful for
// inspecting the effect of MergeReverseEdges/PruneDegrees.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, ns := range g.Neighbors {
		h[len(ns)]++
	}
	return h
}

// Equal reports whether two graphs have identical adjacency (same IDs
// and distances in the same order).
func (g *Graph) Equal(o *Graph) bool {
	if len(g.Neighbors) != len(o.Neighbors) {
		return false
	}
	for v := range g.Neighbors {
		a, b := g.Neighbors[v], o.Neighbors[v]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
				return false
			}
		}
	}
	return true
}

// TopIDs returns the first k neighbor IDs of every vertex, the common
// exchange format for recall computations.
func (g *Graph) TopIDs(k int) [][]ID {
	out := make([][]ID, len(g.Neighbors))
	for v, ns := range g.Neighbors {
		lim := k
		if lim > len(ns) {
			lim = len(ns)
		}
		ids := make([]ID, lim)
		for i := 0; i < lim; i++ {
			ids[i] = ns[i].ID
		}
		out[v] = ids
	}
	return out
}

// SymmetrizationRatio returns the fraction of directed edges whose
// reverse edge is also present; 1.0 after MergeReverseEdges with no
// pruning.
func (g *Graph) SymmetrizationRatio() float64 {
	edges := 0
	sym := 0
	adj := make([]map[ID]bool, len(g.Neighbors))
	for v, ns := range g.Neighbors {
		adj[v] = make(map[ID]bool, len(ns))
		for _, e := range ns {
			adj[v][e.ID] = true
		}
	}
	for v, ns := range g.Neighbors {
		for _, e := range ns {
			edges++
			if adj[e.ID][ID(v)] {
				sym++
			}
		}
	}
	if edges == 0 {
		return 0
	}
	return float64(sym) / float64(edges)
}

// SortStable is a helper for deterministic test output: sorts each list
// by (Dist, ID) using sort.SliceStable semantics.
func (g *Graph) SortStable() {
	for _, ns := range g.Neighbors {
		sort.SliceStable(ns, func(i, j int) bool {
			if ns[i].Dist != ns[j].Dist {
				return ns[i].Dist < ns[j].Dist
			}
			return ns[i].ID < ns[j].ID
		})
	}
}
