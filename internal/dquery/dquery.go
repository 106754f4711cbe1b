// Package dquery executes approximate nearest-neighbor queries against
// a *distributed* k-NNG, where both the vectors and the adjacency
// lists stay partitioned across ranks (the layout DNND construction
// leaves behind). The paper queries with a shared-memory program after
// gathering the graph; this engine is the natural distributed follow-on
// ("towards developing massive-scale NNG frameworks"), in the spirit of
// the Pyramid system the paper cites for distributed similarity search.
//
// Each query lives on a home rank that drives the Section 3.3 greedy
// search as a message cascade: expanding a frontier vertex p asks
// owner(p) for p's adjacency (Expand), distances are evaluated by the
// owners of the candidate vectors (Dist), and results flow back to the
// home rank. Query vectors are cached at most once per (query, rank) —
// the same communication-saving instinct as the paper's Type 2+
// messages. The engine advances every active query by one expansion
// wave per superstep (engine.Phase.SuperstepsHook); ygm's quiescence
// barrier guarantees each wave's full cascade (Expand -> ExpandResp ->
// Dist -> DistResp) completes before the next wave starts.
//
// Wire layouts live in internal/msg (the dq.* messages); the superstep
// loop, quiescence points, and per-handler traffic accounting come
// from the same internal/engine runtime the construction uses.
package dquery

import (
	"fmt"
	"math/rand"

	"dnnd/internal/core"
	"dnnd/internal/engine"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/msg"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// Options configures a distributed query run.
type Options struct {
	// L is the number of neighbors to return per query.
	L int
	// Epsilon is the Section 3.3 expansion parameter.
	Epsilon float64
	// Beam is the number of frontier vertices expanded per superstep
	// (default 2): larger beams mean fewer barriers but more distance
	// evaluations.
	Beam int
	// Seeds is the number of random entry points (default max(L, 16)).
	Seeds int
	// Seed drives entry selection.
	Seed int64
}

func (o *Options) fill() error {
	if o.L < 1 {
		return fmt.Errorf("dquery: L=%d must be >= 1", o.L)
	}
	if o.Beam <= 0 {
		o.Beam = 2
	}
	if o.Seeds <= 0 {
		o.Seeds = o.L
		if o.Seeds < 16 {
			o.Seeds = 16
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// Stats aggregates a run's cost over all ranks.
type Stats struct {
	DistEvals  int64 // distance computations (global)
	Expansions int64 // frontier vertices expanded (global)
	Supersteps int64 // barrier rounds needed
	// PerMessage is the world-wide per-message-type traffic catalog
	// under the phase-qualified handler names ("dq.query.expand", ...),
	// in registration order — identical on every rank.
	PerMessage []engine.MessageStat
	// PerSuperstep attributes this rank's query traffic to expansion
	// waves: entry s is the rank-LOCAL per-handler delta between the
	// end of wave s+1 and the end of wave s (entry 0 additionally
	// includes the seeding fan-out that precedes the first wave). It is
	// collected incrementally after each wave's quiescence barrier —
	// not once at the end like PerMessage, whose collective only runs
	// after the final gather — so partial runs still have attribution.
	// Summing PerSuperstep over all ranks and waves reproduces the
	// PerMessage totals for the dq.query.* handlers.
	PerSuperstep [][]engine.MessageStat
}

// qstate is one active query's search state on its home rank.
type qstate[T wire.Scalar] struct {
	vec      []T
	frontier knng.MinQueue
	results  *knng.NeighborList
	visited  map[knng.ID]bool
	vecAt    []bool // ranks holding the query vector
	done     bool
}

// Engine is one rank's endpoint of the distributed query system.
// Construct it identically on every rank (SPMD), then call Run.
type Engine[T wire.Scalar] struct {
	c     *ygm.Comm
	shard *core.Shard[T]
	adj   map[knng.ID][]knng.Neighbor
	dist  metric.Func[T]

	eng      *engine.Engine
	phQuery  *engine.Phase // the superstep cascade ("dq.query")
	phGather *engine.Phase // result collection ("dq.gather")

	queries [][]T
	states  map[int]*qstate[T] // home-owned queries
	qvecs   map[int][]T        // cached foreign query vectors
	opt     Options

	distEvals  int64
	expansions int64

	gathered [][]knng.Neighbor // on rank 0 after Run

	hStart, hEnd, hExpand, hExpandResp, hDist, hDistResp, hResult ygm.HandlerID
}

// New registers the engine's handlers on c. The shard and adjacency
// must be this rank's partition of the dataset and graph (e.g.
// core.Result.Local); every rank must call New in the same program
// position.
func New[T wire.Scalar](c *ygm.Comm, shard *core.Shard[T], adj map[knng.ID][]knng.Neighbor, dist metric.Func[T]) *Engine[T] {
	e := &Engine[T]{
		c:     c,
		shard: shard,
		adj:   adj,
		dist:  dist,
		qvecs: make(map[int][]T),
	}
	e.eng = engine.New(c, 0)
	e.phQuery = e.eng.Phase("dq.query")
	e.phGather = e.eng.Phase("dq.gather")
	e.hStart = e.phQuery.Register("start", func(c *ygm.Comm, from int, p []byte) { e.onStart(p) })
	e.hEnd = e.phQuery.Register("end", func(c *ygm.Comm, from int, p []byte) { e.onEnd(p) })
	e.hExpand = e.phQuery.Register("expand", func(c *ygm.Comm, from int, p []byte) { e.onExpand(p) })
	e.hExpandResp = e.phQuery.Register("expandresp", func(c *ygm.Comm, from int, p []byte) { e.onExpandResp(p) })
	e.hDist = e.phQuery.Register("dist", func(c *ygm.Comm, from int, p []byte) { e.onDist(p) })
	e.hDistResp = e.phQuery.Register("distresp", func(c *ygm.Comm, from int, p []byte) { e.onDistResp(p) })
	e.hResult = e.phGather.Register("result", func(c *ygm.Comm, from int, p []byte) { e.onResult(p) })
	return e
}

// home maps a query index to the rank that drives it.
func (e *Engine[T]) home(qid int) int { return qid % e.c.NRanks() }

// Run answers the query set (every rank passes the same full slice)
// and gathers all results on rank 0; other ranks receive nil results.
// Stats are identical on every rank.
func (e *Engine[T]) Run(queries [][]T, opt Options) ([][]knng.Neighbor, Stats, error) {
	if err := opt.fill(); err != nil {
		return nil, Stats{}, err
	}
	e.opt = opt
	e.queries = queries
	e.states = make(map[int]*qstate[T])
	if e.c.Rank() == gatherRoot {
		// Allocated before any traffic, not in gather: a rank that leaves
		// the last superstep's reduction first sends its results while
		// the root may still be draining inside that reduction.
		e.gathered = make([][]knng.Neighbor, len(queries))
	}
	// Baseline for the incremental per-wave attribution: taken before
	// any rank can seed (a released peer's seeds may be served while
	// this rank is still inside the quiescence point below), so wave
	// 1's delta covers the whole seeding fan-out.
	prevLocal := e.eng.LocalMessageStats()
	var perStep [][]engine.MessageStat
	// Every rank must have registered the dq.* handlers (New) before any
	// rank seeds: a rank released from the previous phase's last barrier
	// would otherwise send to a slower rank still draining inside it
	// (see ygm.Comm.Register).
	e.phQuery.Drain()
	rng := rand.New(rand.NewSource(opt.Seed*31 + int64(e.c.Rank())))

	n := e.shard.N

	// Seed every home-owned query.
	e.phQuery.Local(func() {
		for qid := range queries {
			if e.home(qid) != e.c.Rank() {
				continue
			}
			q := &qstate[T]{
				vec:     queries[qid],
				results: knng.NewNeighborList(min(opt.L, n)),
				visited: make(map[knng.ID]bool),
				vecAt:   make([]bool, e.c.NRanks()),
			}
			e.states[qid] = q
			seeds := opt.Seeds
			if seeds > n {
				seeds = n
			}
			for attempts := 0; seeds > 0 && attempts < 8*opt.Seeds+32; attempts++ {
				id := knng.ID(rng.Intn(n))
				if q.visited[id] {
					continue
				}
				q.visited[id] = true
				seeds--
				e.sendDist(qid, q, id)
			}
		}
	})
	e.phQuery.Drain()

	steps := e.phQuery.SuperstepsHook(func() int64 {
		var active int64
		for qid, q := range e.states {
			if q.done {
				continue
			}
			e.advance(qid, q)
			if !q.done {
				active++
			}
		}
		return active
	}, func(step int64) {
		cur := e.eng.LocalMessageStats()
		perStep = append(perStep, diffMessageStats(cur, prevLocal))
		prevLocal = cur
	})

	// Gather before the collective stats so the result traffic shows
	// up in the per-message catalog.
	results := e.gather()
	stats := Stats{
		DistEvals:    e.c.AllReduceSum(e.distEvals),
		Expansions:   e.c.AllReduceSum(e.expansions),
		Supersteps:   steps,
		PerMessage:   e.eng.MessageStats(),
		PerSuperstep: perStep,
	}
	return results, stats, nil
}

// diffMessageStats returns cur - prev entrywise (both are in engine
// registration order, so entries align by index).
func diffMessageStats(cur, prev []engine.MessageStat) []engine.MessageStat {
	out := make([]engine.MessageStat, len(cur))
	for i, c := range cur {
		out[i] = c
		if i < len(prev) {
			out[i].SentMsgs -= prev[i].SentMsgs
			out[i].SentBytes -= prev[i].SentBytes
			out[i].RecvMsgs -= prev[i].RecvMsgs
		}
	}
	return out
}

// advance expands up to Beam frontier vertices of one query, or
// finalizes it when the Section 3.3 stop condition holds. At entry all
// previous cascades have completed (quiescence barrier), so there are
// no in-flight operations for this query. The query is only finalized
// when no expansion was issued in this superstep — otherwise the hEnd
// release could overtake distance requests the in-flight expansions
// are about to generate.
func (e *Engine[T]) advance(qid int, q *qstate[T]) {
	expanded := 0
	for ; expanded < e.opt.Beam; expanded++ {
		if q.frontier.Empty() {
			break
		}
		_, pd := q.frontier.Top()
		if float64(pd) > q.limit(e.opt.Epsilon) {
			break
		}
		p, _ := q.frontier.Pop()
		e.expansions++
		w := wire.NewWriter(16)
		m := msg.QExpand{QID: uint32(qid), P: p}
		m.Encode(w)
		e.c.Async(core.Owner(p, e.c.NRanks()), e.hExpand, w.Bytes())
	}
	if expanded == 0 {
		e.finish(qid, q)
	}
}

func (q *qstate[T]) limit(eps float64) float64 {
	if !q.results.Full() {
		return maxFloat64
	}
	return (1 + eps) * float64(q.results.FarthestDist())
}

const maxFloat64 = 1.7976931348623157e+308

// finish releases cached query vectors and marks the query done.
func (e *Engine[T]) finish(qid int, q *qstate[T]) {
	q.done = true
	w := wire.NewWriter(4)
	m := msg.QEnd{QID: uint32(qid)}
	m.Encode(w)
	for rank, has := range q.vecAt {
		if has {
			e.c.Async(rank, e.hEnd, w.Bytes())
		}
	}
}

// sendDist asks owner(id) to evaluate theta(q, id), shipping the query
// vector first if that rank has not seen it yet.
func (e *Engine[T]) sendDist(qid int, q *qstate[T], id knng.ID) {
	dest := core.Owner(id, e.c.NRanks())
	if !q.vecAt[dest] {
		q.vecAt[dest] = true
		w := wire.NewWriter(8 + len(q.vec)*4)
		m := msg.QStart[T]{QID: uint32(qid), Vec: q.vec}
		m.Encode(w)
		e.c.Async(dest, e.hStart, w.Bytes())
	}
	w := wire.NewWriter(12)
	m := msg.QDist{QID: uint32(qid), ID: id}
	m.Encode(w)
	e.c.Async(dest, e.hDist, w.Bytes())
}

// ---- handlers ---------------------------------------------------------

func (e *Engine[T]) onStart(p []byte) {
	r := wire.NewReader(p)
	var m msg.QStart[T]
	m.Decode(r)
	if r.Finish() != nil {
		panic("dquery: bad start")
	}
	e.qvecs[int(m.QID)] = m.Vec
}

func (e *Engine[T]) onEnd(p []byte) {
	r := wire.NewReader(p)
	var m msg.QEnd
	m.Decode(r)
	if r.Finish() != nil {
		panic("dquery: bad end")
	}
	delete(e.qvecs, int(m.QID))
}

// onExpand runs at the owner of p: return p's adjacency to the home
// rank.
func (e *Engine[T]) onExpand(p []byte) {
	r := wire.NewReader(p)
	var m msg.QExpand
	m.Decode(r)
	if r.Finish() != nil {
		panic("dquery: bad expand")
	}
	ns := e.adj[m.P]
	w := wire.NewWriter(8 + 4*len(ns))
	resp := msg.QExpandResp{QID: m.QID, IDs: idsOf(ns)}
	resp.Encode(w)
	e.c.Async(e.home(int(m.QID)), e.hExpandResp, w.Bytes())
}

// idsOf projects a neighbor list onto its IDs (QExpandResp carries IDs
// only; distances are evaluated at the vector owners).
func idsOf(ns []knng.Neighbor) []knng.ID {
	ids := make([]knng.ID, len(ns))
	for i, nb := range ns {
		ids[i] = nb.ID
	}
	return ids
}

// onExpandResp runs at the home rank: fan out distance requests for
// unvisited candidates.
func (e *Engine[T]) onExpandResp(p []byte) {
	r := wire.NewReader(p)
	var m msg.QExpandResp
	m.Decode(r)
	if r.Finish() != nil {
		panic("dquery: bad expand response")
	}
	q := e.states[int(m.QID)]
	for _, id := range m.IDs {
		if q.visited[id] {
			continue
		}
		q.visited[id] = true
		e.sendDist(int(m.QID), q, id)
	}
}

// onDist runs at the owner of the candidate vector.
func (e *Engine[T]) onDist(p []byte) {
	r := wire.NewReader(p)
	var m msg.QDist
	m.Decode(r)
	if r.Finish() != nil {
		panic("dquery: bad dist request")
	}
	qvec, ok := e.qvecs[int(m.QID)]
	if !ok {
		panic(fmt.Sprintf("dquery: rank %d missing query vector %d", e.c.Rank(), m.QID))
	}
	e.distEvals++
	e.c.AddWork(float64(len(qvec)))
	d := e.dist(qvec, e.shard.Vec(m.ID))
	w := wire.NewWriter(12)
	resp := msg.QDistResp{QID: m.QID, ID: m.ID, D: d}
	resp.Encode(w)
	e.c.Async(e.home(int(m.QID)), e.hDistResp, w.Bytes())
}

// onDistResp runs at the home rank: fold the distance into the query
// state.
func (e *Engine[T]) onDistResp(p []byte) {
	r := wire.NewReader(p)
	var m msg.QDistResp
	m.Decode(r)
	if r.Finish() != nil {
		panic("dquery: bad dist response")
	}
	q := e.states[int(m.QID)]
	if float64(m.D) < q.limit(e.opt.Epsilon) {
		q.results.Update(m.ID, m.D, false)
		q.frontier.Push(m.ID, m.D)
	}
}

// gatherRoot is the rank results are gathered on.
const gatherRoot = 0

// gather ships every finished query's result list to the gather root
// (whose receive table Run allocated up front).
func (e *Engine[T]) gather() [][]knng.Neighbor {
	e.phGather.Local(func() {
		for qid, q := range e.states {
			ns := q.results.Sorted()
			w := wire.NewWriter(8 + 8*len(ns))
			m := msg.QResult{QID: uint32(qid), Neighbors: ns}
			m.Encode(w)
			e.c.Async(gatherRoot, e.hResult, w.Bytes())
		}
	})
	e.phGather.Drain()
	out := e.gathered
	e.gathered = nil
	return out
}

func (e *Engine[T]) onResult(p []byte) {
	r := wire.NewReader(p)
	var m msg.QResult
	m.Decode(r)
	if r.Finish() != nil {
		panic("dquery: bad result record")
	}
	e.gathered[int(m.QID)] = m.Neighbors
}
