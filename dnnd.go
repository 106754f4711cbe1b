package dnnd

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dnnd/internal/core"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/obs"
	"dnnd/internal/rptree"
	"dnnd/internal/search"
)

// Scalar is the set of supported feature element types: float32
// embeddings, uint8 quantized vectors, and uint32 sparse sorted sets
// (for Jaccard).
type Scalar interface {
	float32 | uint8 | uint32
}

// Neighbor is one approximate nearest neighbor: its point ID and its
// distance from the query or list owner.
type Neighbor = knng.Neighbor

// ID is a point identifier, dense in [0, N).
type ID = knng.ID

// Graph is a finished k-NN graph (sorted adjacency lists).
type Graph = knng.Graph

// MetricKind names a distance function; see Kinds for the choices
// ("l2", "sql2", "cosine", "ip", "jaccard", "hamming").
type MetricKind = metric.Kind

// Kinds lists the supported metric names.
func Kinds() []MetricKind { return metric.Kinds() }

// Tracer captures a span timeline of a build: one track per rank with
// nested phase/superstep/barrier/flush spans and mailbox-congestion
// counter tracks. Attach via BuildOptions.Tracer and export with
// WriteJSON (Chrome trace-event JSON, loadable in Perfetto). Tracing
// changes no protocol decision; a nil *Tracer records nothing.
type Tracer = obs.Tracer

// NewTracer returns an enabled tracer with the default per-track
// event capacity.
func NewTracer() *Tracer { return obs.NewTracer(0) }

// Registry is the shared metrics registry (text and JSON dump formats
// common to dnnd-bench, dnnd-construct, and dnnd-serve). Attach via
// BuildOptions.Metrics to sample live communication counters during a
// build, e.g. from a debug listener.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// BuildOptions configures Build. The zero value of optional fields
// picks the paper's defaults (optimized communication protocol,
// reverse-edge refinement with m=1.5). The sample rate ρ = 0.8, the
// stop threshold δ = 0.001 and the 30-round cap are the paper's
// Section 5.1.3 constants (core.DefaultConfig). Each rank runs
// GOMAXPROCS / Ranks distance workers; the graph is identical at every
// width.
type BuildOptions struct {
	// K is the number of neighbors per vertex (required).
	K int
	// Metric names the distance function (required), e.g. "l2".
	Metric MetricKind
	// Ranks is the number of simulated distributed ranks (default 1).
	// An in-process rank has no network for the Section 4.3 protocol to
	// save, so more ranks only re-partition the same build; name more
	// to study the protocol's traffic.
	Ranks int
	// BatchSize is the global number of neighbor-check requests
	// between communication barriers (default 2^18).
	BatchSize int64
	// Unoptimized disables the Section 4.3 communication-saving
	// protocol (for comparisons; quality is unaffected).
	Unoptimized bool
	// SkipRefine disables the Section 4.5 graph optimization
	// (reverse-edge merge + degree pruning).
	SkipRefine bool
	// PruneFactor is the post-refinement degree cap multiplier m
	// (default 1.5); it must be >= 1.
	PruneFactor float64
	// Seed makes sampling reproducible (default 1).
	Seed int64
	// Tracer, when non-nil, records the build's span timeline (one
	// track per rank; export with Tracer.WriteJSON). The graph and
	// every protocol decision are identical with or without it.
	Tracer *Tracer
	// Metrics, when non-nil, receives live per-rank ygm_* communication
	// counters, refreshed at every barrier exit — the registry a debug
	// listener serves while the build runs.
	Metrics *Registry
}

func (o BuildOptions) coreConfig() core.Config {
	cfg := core.DefaultConfig(o.K)
	if o.BatchSize > 0 {
		cfg.BatchSize = o.BatchSize
	}
	if o.Unoptimized {
		cfg.Protocol = core.Unoptimized()
	}
	cfg.Optimize = !o.SkipRefine
	if o.PruneFactor != 0 {
		cfg.PruneFactor = o.PruneFactor
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// BuildResult is the outcome of a Build: the graph plus construction
// statistics.
type BuildResult struct {
	// Graph is the constructed approximate k-NNG.
	Graph *Graph
	// K is the construction k.
	K int
	// Metric is the distance used.
	Metric MetricKind
	// Iters is the number of NN-Descent rounds run.
	Iters int
	// DistEvals is the total number of distance computations. For
	// Refresh and Compact it includes the search that seeds each
	// appended point's initial neighbors from the prior graph.
	DistEvals int64
	// Messages and MessageBytes count all application-level messages
	// exchanged between ranks.
	Messages, MessageBytes int64
}

// Build constructs an approximate k-NNG over data using distributed
// NN-Descent on opt.Ranks simulated ranks. It is the one-call path for
// applications; see internal/core for the SPMD building blocks.
func Build[T Scalar](data [][]T, opt BuildOptions) (*BuildResult, error) {
	return runBuild(data, nil, nil, opt)
}

// compactRows is Compact's compaction: it deletes points from an
// existing graph without a full rebuild. The surviving points are
// compacted to dense IDs, surviving edges warm-start the descent, and
// a short refinement refills the holes the deletions left (the other
// half of the Section 7 update workflow). As in Refresh, prior may
// cover only a prefix of data: surviving rows past it start from a
// search of the trimmed prior. It returns the compacted dataset, the
// new build result, and a mapping from old IDs to new ones (InvalidID
// for removed points).
func compactRows[T Scalar](data [][]T, removeIDs []ID, prior *Graph, opt BuildOptions) ([][]T, *BuildResult, []ID, error) {
	if prior == nil {
		return nil, nil, nil, errors.New("dnnd: compaction requires a prior graph")
	}
	if prior.NumVertices() > len(data) {
		return nil, nil, nil, fmt.Errorf("dnnd: prior graph covers %d vertices but data has %d rows",
			prior.NumVertices(), len(data))
	}
	removed := make(map[ID]bool, len(removeIDs))
	for _, id := range removeIDs {
		if int(id) >= len(data) {
			return nil, nil, nil, fmt.Errorf("dnnd: remove id %d out of range", id)
		}
		removed[id] = true
	}
	if len(removed) == 0 {
		return nil, nil, nil, errors.New("dnnd: compaction with no points to remove")
	}
	if len(data)-len(removed) < 2 {
		return nil, nil, nil, errors.New("dnnd: removal would leave fewer than 2 points")
	}

	// Compact IDs and data.
	mapping := make([]ID, len(data))
	kept := make([][]T, 0, len(data)-len(removed))
	for old := range data {
		if removed[ID(old)] {
			mapping[old] = knng.InvalidID
			continue
		}
		mapping[old] = ID(len(kept))
		kept = append(kept, data[old])
	}

	// Trim and remap the prior graph; vertices that lost neighbors end
	// up with short lists, which the warm-started build tops up and
	// refines. IDs keep their order, so the prior's survivors are a
	// prefix of kept.
	covered := 0
	for _, nv := range mapping[:prior.NumVertices()] {
		if nv != knng.InvalidID {
			covered++
		}
	}
	trimmed := knng.NewGraph(covered)
	for old, ns := range prior.Neighbors {
		nv := mapping[old]
		if nv == knng.InvalidID {
			continue
		}
		keptNs := make([]Neighbor, 0, len(ns))
		for _, e := range ns {
			if nu := mapping[e.ID]; nu != knng.InvalidID {
				keptNs = append(keptNs, Neighbor{ID: nu, Dist: e.Dist})
			}
		}
		trimmed.Neighbors[nv] = keptNs
	}

	res, err := runBuild(kept, trimmed, nil, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	return kept, res, mapping, nil
}

// Tombstones is a concurrent delete-marker set over the point ID
// space: queries skip dead points as results while still routing
// through them, and Refresh repairs live neighborhoods around them.
// See knng.TombSet for the concurrency contract.
type Tombstones = knng.TombSet

// NewTombstones returns an empty tombstone set over n points.
func NewTombstones(n int) *Tombstones { return knng.NewTombSet(n) }

// Refresh is the in-place incremental rebuild of the mutable-index
// pipeline, the incremental-update workflow sketched in the paper's
// Section 7: data is the full dataset (the prior graph's points plus
// any appended ones), prior the current graph, and tombs the deleted
// IDs (nil when none). The prior warm-starts the descent: its vertices
// keep their neighbor lists, each appended point starts from a search
// of it, and a short refinement stitches the new points in. Unlike
// Compact, IDs are NOT compacted — dead vertices keep their prior
// neighbor lists as routable stepping stones and live vertices are
// repaired around them, so existing IDs stay valid and the result can
// be swapped under live queries. tombs is copied before the build
// starts; concurrent Kills on the caller's set are safe and fold into
// the next Refresh.
func Refresh[T Scalar](data [][]T, prior *Graph, tombs *Tombstones, opt BuildOptions) (*BuildResult, error) {
	if prior == nil {
		return nil, errors.New("dnnd: Refresh requires a prior graph")
	}
	if prior.NumVertices() > len(data) {
		return nil, fmt.Errorf("dnnd: prior graph covers %d vertices but data has %d rows",
			prior.NumVertices(), len(data))
	}
	// tombs is frozen here: a build must not see bits flip mid-flight.
	return runBuild(data, prior, tombs.CloneGrow(len(data)), opt)
}

// runBuild is the one body behind Build (prior and dead nil),
// compactRows and Split (warm start from prior) and Refresh (warm
// start plus the frozen tombstone set dead): core.BuildLocal, reported
// as a BuildResult.
func runBuild[T Scalar](data [][]T, prior *Graph, dead *Tombstones, opt BuildOptions) (*BuildResult, error) {
	kern, err := kernelFor[T](opt.Metric)
	if err != nil {
		return nil, err
	}
	out, err := core.BuildLocal(data, opt.Ranks, kern, opt.coreConfig(), prior, dead, opt.Tracer, opt.Metrics)
	if err != nil {
		return nil, err
	}
	return &BuildResult{
		Graph:        out.Graph,
		K:            opt.K,
		Metric:       opt.Metric,
		Iters:        out.Iters,
		DistEvals:    out.DistEvals,
		Messages:     out.Stats.SentMsgs,
		MessageBytes: out.Stats.SentBytes,
	}, nil
}

// kernelFor adapts metric.KernelFor to the root Scalar constraint,
// giving the construction loop the norm-precomputed fast path when the
// metric has one.
func kernelFor[T Scalar](k MetricKind) (metric.Kernel[T], error) {
	if k == "" {
		return metric.Kernel[T]{}, errors.New("dnnd: Metric is required")
	}
	return metric.KernelFor[T](k)
}

// Index answers approximate nearest-neighbor queries over a built
// graph. Create one with NewIndex or Load.
type Index[T Scalar] struct {
	graph *Graph
	data  [][]T
	dist  metric.Func[T]
	k     int
	kind  MetricKind
	// seed is the last per-query seed Search handed out; it starts at 1,
	// so the first Search runs at seed 2.
	seed atomic.Int64
	// forest, when non-nil, returns rp-tree entry candidates for a
	// query (see BuildEntryForest).
	forest func(q []T) []ID
}

// NewIndex creates a query index from a graph, its dataset, and the
// metric the graph was built with.
func NewIndex[T Scalar](g *Graph, data [][]T, kind MetricKind, k int) (*Index[T], error) {
	if g == nil {
		return nil, errors.New("dnnd: nil graph")
	}
	if g.NumVertices() != len(data) {
		return nil, fmt.Errorf("dnnd: graph has %d vertices but dataset has %d rows",
			g.NumVertices(), len(data))
	}
	dist, err := metric.For[T](kind)
	if err != nil {
		return nil, err
	}
	ix := &Index[T]{graph: g, data: data, dist: dist, k: k, kind: kind}
	ix.seed.Store(1)
	return ix, nil
}

// BuildEntryForest attaches a forest of random-projection trees that
// supplies query-specific search entry points (PyNNDescent's
// technique; see internal/rptree). trees <= 0 uses the default of 4.
// Dense rows must share one nonzero dimension; Jaccard sets descend by
// their MinHash keys.
func (ix *Index[T]) BuildEntryForest(trees int) error {
	if trees <= 0 {
		trees = 4
	}
	if len(ix.data) == 0 {
		return errors.New("dnnd: entry forest over an empty dataset")
	}
	if ix.kind != metric.Jaccard {
		dim := len(ix.data[0])
		if dim == 0 {
			return errors.New("dnnd: entry forest over zero-dimensional rows")
		}
		for i, v := range ix.data {
			if len(v) != dim {
				return fmt.Errorf("dnnd: entry forest: row %d has dim %d, want %d", i, len(v), dim)
			}
		}
	}
	f := rptree.NewForest(ix.data, trees, 11)
	max := 2 * ix.k
	ix.forest = func(q []T) []ID { return f.Candidates(q, max) }
	return nil
}

// entriesFor returns rp-tree entry candidates for q, or nil when no
// forest is attached.
func (ix *Index[T]) entriesFor(q []T) []ID {
	if ix.forest == nil {
		return nil
	}
	return ix.forest(q)
}

// Graph exposes the underlying adjacency.
func (ix *Index[T]) Graph() *Graph { return ix.graph }

// Data exposes the indexed dataset. The slice is shared with the
// index, not copied; callers must treat it as read-only.
func (ix *Index[T]) Data() [][]T { return ix.data }

// Dist returns the index's distance function.
func (ix *Index[T]) Dist() metric.Func[T] { return ix.dist }

// K returns the construction k recorded for the index.
func (ix *Index[T]) K() int { return ix.k }

// Metric returns the index's distance kind.
func (ix *Index[T]) Metric() MetricKind { return ix.kind }

// Len returns the number of indexed points.
func (ix *Index[T]) Len() int { return len(ix.data) }

// Search returns the l approximate nearest neighbors of q, sorted by
// ascending distance. epsilon >= 0 trades time for recall (Section
// 3.3; 0.1-0.4 are typical).
func (ix *Index[T]) Search(q []T, l int, epsilon float64) []Neighbor {
	seed := ix.seed.Add(1)
	opt := search.Options{L: l, Epsilon: epsilon, Entries: ix.entriesFor(q)}
	res, _ := search.Query(ix.graph, ix.data, ix.dist, q, opt, seed)
	return res
}

// SearchBatch answers many queries in parallel and reports the total
// number of distance evaluations performed.
func (ix *Index[T]) SearchBatch(queries [][]T, l int, epsilon float64, workers int) ([][]Neighbor, int64) {
	opt := search.Options{L: l, Epsilon: epsilon, Seed: 1}
	if ix.forest != nil {
		opt.EntriesFunc = func(qi int) []ID { return ix.entriesFor(queries[qi]) }
	}
	res, st := search.Batch(ix.graph, ix.data, ix.dist, queries, opt, workers)
	return res, st.DistEvals
}
