// Package hnsw is a from-scratch Hierarchical Navigable Small World
// index (Malkov & Yashunin), the stand-in for Hnswlib, the shared-
// memory baseline the paper compares DNND against (Hnsw A-D
// configurations in Table 2). It implements the standard construction
// (exponential level assignment, efConstruction-bounded layer search,
// heuristic neighbor selection with M/2M degree caps) and ef-bounded
// queries.
package hnsw

import (
	"fmt"
	"math"
	"math/rand"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
)

// Config mirrors Hnswlib's build parameters.
type Config struct {
	// M is the maximum number of links per node on layers > 0; layer 0
	// allows 2M (Hnswlib convention).
	M int
	// EfConstruction is the candidate-list width during insertion.
	EfConstruction int
	// Seed drives level assignment.
	Seed int64
}

// DefaultConfig mirrors common Hnswlib defaults.
func DefaultConfig() Config {
	return Config{M: 16, EfConstruction: 200, Seed: 1}
}

// Index is an in-memory HNSW graph over a dataset. It is not safe for
// concurrent use: Add and Search share the layer search's scratch.
type Index[T wire.Scalar] struct {
	cfg  Config
	dist metric.Func[T]
	kern metric.Kernel[T]
	data [][]T

	// links[node][level] lists the node's neighbors at that level;
	// len(links[node]) == node's level + 1.
	links [][][]knng.ID

	entry    int
	maxLevel int
	mL       float64
	rng      *rand.Rand

	distEvals int64

	// The layer search's scratch, reused across calls: the visited
	// set, the frontier, and one expansion's unvisited neighbors with
	// their rows and distances.
	visited knng.VisitSet
	front   minHeap
	ids     []knng.ID
	rows    [][]T
	dists   []float32
}

// New creates an empty index.
func New[T wire.Scalar](dist metric.Func[T], cfg Config) (*Index[T], error) {
	if cfg.M < 2 {
		return nil, fmt.Errorf("hnsw: M=%d must be >= 2", cfg.M)
	}
	if cfg.EfConstruction < 1 {
		return nil, fmt.Errorf("hnsw: efConstruction=%d must be >= 1", cfg.EfConstruction)
	}
	return &Index[T]{
		cfg:      cfg,
		dist:     dist,
		kern:     metric.KernelOf(dist),
		entry:    -1,
		maxLevel: -1,
		mL:       1 / math.Log(float64(cfg.M)),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Build inserts every row of data in order.
func Build[T wire.Scalar](data [][]T, dist metric.Func[T], cfg Config) (*Index[T], error) {
	ix, err := New(dist, cfg)
	if err != nil {
		return nil, err
	}
	for _, v := range data {
		ix.Add(v)
	}
	return ix, nil
}

// Len returns the number of indexed points.
func (ix *Index[T]) Len() int { return len(ix.data) }

// DistEvals returns the cumulative number of distance computations
// performed by Add and Search calls.
func (ix *Index[T]) DistEvals() int64 { return ix.distEvals }

func (ix *Index[T]) d(a, b []T) float32 {
	ix.distEvals++
	return ix.dist(a, b)
}

// maxLinks returns the degree cap at a level.
func (ix *Index[T]) maxLinks(level int) int {
	if level == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// Add inserts one vector; the index keeps a reference to it.
func (ix *Index[T]) Add(vec []T) {
	id := len(ix.data)
	ix.data = append(ix.data, vec)
	level := int(math.Floor(-math.Log(1-ix.rng.Float64()) * ix.mL))
	ix.links = append(ix.links, make([][]knng.ID, level+1))

	if ix.entry < 0 {
		ix.entry = id
		ix.maxLevel = level
		return
	}

	ep := ix.entry
	epDist := ix.d(vec, ix.data[ep])
	// Greedy descent through layers above the new node's level.
	for l := ix.maxLevel; l > level; l-- {
		ep, epDist = ix.greedyStep(vec, ep, epDist, l)
	}

	top := level
	if top > ix.maxLevel {
		top = ix.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := ix.searchLayer(vec, ep, epDist, ix.cfg.EfConstruction, l)
		selected := ix.selectHeuristic(cands, ix.cfg.M)
		ix.links[id][l] = make([]knng.ID, len(selected))
		for i, c := range selected {
			ix.links[id][l][i] = c.ID
		}
		for _, c := range selected {
			ix.connect(int(c.ID), id, c.Dist, l)
		}
		best := cands[0]
		ep, epDist = int(best.ID), best.Dist
	}

	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = id
	}
}

// connect adds (to, d) into from's level-l link list, shrinking via the
// selection heuristic when the cap is exceeded.
func (ix *Index[T]) connect(from, to int, d float32, level int) {
	lnk := ix.links[from][level]
	lnk = append(lnk, knng.ID(to))
	cap := ix.maxLinks(level)
	if len(lnk) > cap {
		cands := make([]knng.Neighbor, len(lnk))
		for i, u := range lnk {
			dd := d
			if int(u) != to {
				dd = ix.d(ix.data[from], ix.data[u])
			}
			cands[i] = knng.Neighbor{ID: u, Dist: dd}
		}
		sortByDist(cands)
		selected := ix.selectHeuristic(cands, cap)
		lnk = lnk[:0]
		for _, c := range selected {
			lnk = append(lnk, c.ID)
		}
	}
	ix.links[from][level] = lnk
}

// greedyStep walks to the closest neighbor at a level until no
// improvement (ef=1 search).
func (ix *Index[T]) greedyStep(q []T, ep int, epDist float32, level int) (int, float32) {
	for {
		improved := false
		for _, u := range ix.links[ep][level] {
			d := ix.d(q, ix.data[u])
			if d < epDist {
				ep, epDist = int(u), d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// searchLayer is the ef-bounded best-first search (Algorithm 2),
// returning up to ef candidates sorted by ascending distance. Each
// expansion scores its unvisited neighbors in one EvalMany block, then
// applies them in link order, exactly as scoring them one by one would.
func (ix *Index[T]) searchLayer(q []T, ep int, epDist float32, ef, level int) []knng.Neighbor {
	// Sizing by cap(ix.data) grows the visited set geometrically while
	// Add appends, instead of once per insertion.
	ix.visited.Begin(cap(ix.data))
	ix.visited.Mark(knng.ID(ep))
	results := knng.NewNeighborList(ef)
	results.Update(knng.ID(ep), epDist, false)
	front := &ix.front
	front.ids, front.dists = front.ids[:0], front.dists[:0]
	front.push(knng.ID(ep), epDist)

	for front.len() > 0 {
		p, pd := front.pop()
		if results.Full() && pd > results.FarthestDist() {
			break
		}
		ids, rows := ix.ids[:0], ix.rows[:0]
		for _, u := range ix.links[p][level] {
			if ix.visited.Visit(u) {
				ids = append(ids, u)
				rows = append(rows, ix.data[u])
			}
		}
		if cap(ix.dists) < len(ids) {
			ix.dists = make([]float32, cap(ids))
		}
		dists := ix.dists[:len(ids)]
		ix.kern.EvalMany(q, rows, nil, dists)
		ix.distEvals += int64(len(ids))
		for j, u := range ids {
			if d := dists[j]; !results.Full() || d < results.FarthestDist() {
				results.Update(u, d, false)
				front.push(u, d)
			}
		}
		ix.ids, ix.rows = ids, rows
	}
	return results.Sorted()
}

// selectHeuristic implements Algorithm 4 (neighbor selection by
// relative closeness): a candidate is kept only if it is closer to the
// query than to every already-selected neighbor, which spreads links
// across clusters. cands must be sorted by ascending distance.
func (ix *Index[T]) selectHeuristic(cands []knng.Neighbor, m int) []knng.Neighbor {
	if len(cands) <= m {
		return cands
	}
	selected := make([]knng.Neighbor, 0, m)
	for _, c := range cands {
		if len(selected) == m {
			break
		}
		keep := true
		for _, s := range selected {
			if ix.d(ix.data[c.ID], ix.data[s.ID]) < c.Dist {
				keep = false
				break
			}
		}
		if keep {
			selected = append(selected, c)
		}
	}
	// Backfill with closest remaining (keepPrunedConnections-style) so
	// nodes are never underlinked.
	if len(selected) < m {
		have := make(map[knng.ID]bool, len(selected))
		for _, s := range selected {
			have[s.ID] = true
		}
		for _, c := range cands {
			if len(selected) == m {
				break
			}
			if !have[c.ID] {
				selected = append(selected, c)
			}
		}
	}
	return selected
}

// Search returns the k approximate nearest neighbors of q using an
// ef-wide candidate beam (ef >= k).
func (ix *Index[T]) Search(q []T, k, ef int) []knng.Neighbor {
	if ix.entry < 0 || k < 1 {
		return nil
	}
	if ef < k {
		ef = k
	}
	ep := ix.entry
	epDist := ix.d(q, ix.data[ep])
	for l := ix.maxLevel; l > 0; l-- {
		ep, epDist = ix.greedyStep(q, ep, epDist, l)
	}
	res := ix.searchLayer(q, ep, epDist, ef, 0)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// MaxLevel returns the current top layer (for inspection/tests).
func (ix *Index[T]) MaxLevel() int { return ix.maxLevel }

// Degree returns node id's number of links at a level (0 if the node
// does not reach the level).
func (ix *Index[T]) Degree(id, level int) int {
	if level >= len(ix.links[id]) {
		return 0
	}
	return len(ix.links[id][level])
}

func sortByDist(ns []knng.Neighbor) {
	for i := 1; i < len(ns); i++ {
		x := ns[i]
		j := i - 1
		for j >= 0 && ns[j].Dist > x.Dist {
			ns[j+1] = ns[j]
			j--
		}
		ns[j+1] = x
	}
}

// minHeap is a small (dist, id) min-heap for the layer search.
type minHeap struct {
	ids   []knng.ID
	dists []float32
}

func (h *minHeap) len() int { return len(h.ids) }

func (h *minHeap) push(id knng.ID, d float32) {
	h.ids = append(h.ids, id)
	h.dists = append(h.dists, d)
	i := len(h.ids) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.dists[p] <= h.dists[i] {
			break
		}
		h.ids[p], h.ids[i] = h.ids[i], h.ids[p]
		h.dists[p], h.dists[i] = h.dists[i], h.dists[p]
		i = p
	}
}

func (h *minHeap) pop() (knng.ID, float32) {
	id, d := h.ids[0], h.dists[0]
	last := len(h.ids) - 1
	h.ids[0], h.dists[0] = h.ids[last], h.dists[last]
	h.ids = h.ids[:last]
	h.dists = h.dists[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.dists[l] < h.dists[s] {
			s = l
		}
		if r < last && h.dists[r] < h.dists[s] {
			s = r
		}
		if s == i {
			break
		}
		h.ids[s], h.ids[i] = h.ids[i], h.ids[s]
		h.dists[s], h.dists[i] = h.dists[i], h.dists[s]
		i = s
	}
	return id, d
}
