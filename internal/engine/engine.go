// Package engine is the async-phase runtime under the DNND
// construction (internal/core). Its programs are SPMD phases that
// register message handlers, emit batched bulk-async traffic (Section
// 4.4 of the paper), and separate at quiescence points; this package
// owns that shape once. The paper-reproduction query engine
// (internal/dquery) borrows Phase and MessageStats — SuperstepsHook
// exists only for it — and the serve lanes borrow Pool; dquery does not
// use the pool and no serving path uses a Phase:
//
//   - Phase groups an algorithm phase's handlers under a stable
//     dot-qualified name ("nd.check.type2") and accumulates the
//     phase's wall time across rounds.
//   - Phase.Run is the batched-submission loop: emit calls interleaved
//     with globally aligned barriers so in-flight volume stays bounded.
//   - Phase.SuperstepsHook is the barrier-per-wave loop of frontier
//     algorithms, terminating on a global all-done reduction.
//   - Pool (pool.go) is the intra-rank worker pool whose stage/apply
//     ring keeps results bit-identical at every worker count.
//   - Engine.MessageStats aggregates per-handler traffic world-wide
//     under the phase-qualified names, the accounting behind the
//     paper's Figure 4 and the bench message catalogs.
//
// The runtime is deliberately mechanism-only: protocol decisions,
// message layouts (internal/msg), and list state stay in the
// applications.
package engine

import (
	"context"
	rtrace "runtime/trace"
	"time"

	"dnnd/internal/ygm"
)

// defaultBatchSize matches core.DefaultConfig's Section 4.4 batching
// bound: the world-wide number of messages allowed in flight between
// aligned barriers.
const defaultBatchSize = 1 << 18

// Engine hosts one application's phases on a Comm. Construct one per
// protocol instance (the DNND builder and the query engine each own
// one, over the same Comm).
type Engine struct {
	c         *ygm.Comm
	batchSize int64
	phases    []*Phase
	handlers  []Registered
}

// Registered records one handler registration made through a Phase.
type Registered struct {
	ID   ygm.HandlerID
	Name string // phase-qualified: "<phase>.<short>"
}

// New returns an Engine over c. batchSize is the Section 4.4 global
// in-flight message bound used by Phase.Run; 0 selects the default.
func New(c *ygm.Comm, batchSize int64) *Engine {
	if batchSize <= 0 {
		batchSize = defaultBatchSize
	}
	return &Engine{c: c, batchSize: batchSize}
}

// Comm returns the underlying communicator.
func (e *Engine) Comm() *ygm.Comm { return e.c }

// Phase declares a named phase. Like handler registration, every rank
// must declare the same phases in the same order. Span names for the
// phase's loops are precomputed here so the hot paths never build
// strings.
func (e *Engine) Phase(name string) *Phase {
	p := &Phase{
		e:         e,
		name:      name,
		spanLocal: name + ".local",
		spanRun:   name + ".run",
		spanDrain: name + ".drain",
		spanStep:  name + ".step",
	}
	e.phases = append(e.phases, p)
	return p
}

// Handlers returns the engine's registrations in registration order.
func (e *Engine) Handlers() []Registered { return e.handlers }

// Phase is one algorithm phase: a stable name prefix for its handlers
// and an accumulator for the wall time its loops spend (phases rerun
// every round; Elapsed sums across rounds).
type Phase struct {
	e       *Engine
	name    string
	elapsed time.Duration
	// Precomputed span / runtime-trace region names (see Engine.Phase).
	spanLocal, spanRun, spanDrain, spanStep string
}

// Name returns the phase's name.
func (p *Phase) Name() string { return p.name }

// Elapsed returns the wall time accumulated by this phase's Local,
// Run, Drain, and SuperstepsHook calls on this rank.
func (p *Phase) Elapsed() time.Duration { return p.elapsed }

// Register installs a handler under the phase-qualified name
// "<phase>.<short>" and records it for MessageStats. The usual ygm
// rule applies: identical registration order on every rank.
func (p *Phase) Register(short string, h ygm.Handler) ygm.HandlerID {
	name := p.name + "." + short
	id := p.e.c.Register(name, h)
	p.e.handlers = append(p.e.handlers, Registered{ID: id, Name: name})
	return id
}

// Local runs fn under the phase's clock: purely rank-local work
// (sampling, merging) that needs no communication.
func (p *Phase) Local(fn func()) {
	sp := p.e.c.Trace().Begin(p.spanLocal)
	reg := rtrace.StartRegion(context.Background(), p.spanLocal)
	start := time.Now()
	fn()
	p.elapsed += time.Since(start)
	reg.End()
	sp.End()
}

// Run executes the batched-submission loop of Section 4.4: emit(i) for
// every local item i in [0, totalLocal), with a global barrier after
// each batch so that world-wide message volume in flight stays under
// the engine's batch size. perItemMsgs is the caller's estimate of
// messages per item; the batch quota divides the global bound by it
// and by the rank count. All ranks execute the same global number of
// batches (padded with empty ones), keeping barrier calls aligned.
func (p *Phase) Run(totalLocal, perItemMsgs int, emit func(i int)) {
	sp := p.e.c.Trace().BeginArg(p.spanRun, int64(totalLocal))
	reg := rtrace.StartRegion(context.Background(), p.spanRun)
	start := time.Now()
	if perItemMsgs < 1 {
		perItemMsgs = 1
	}
	c := p.e.c
	per := int(p.e.batchSize) / (c.NRanks() * perItemMsgs)
	if per < 1 {
		per = 1
	}
	myBatches := (totalLocal + per - 1) / per
	global := c.AllReduceMax(int64(myBatches))
	idx := 0
	for r := int64(0); r < global; r++ {
		end := idx + per
		if end > totalLocal {
			end = totalLocal
		}
		for ; idx < end; idx++ {
			emit(idx)
		}
		c.Barrier()
	}
	p.elapsed += time.Since(start)
	reg.End()
	sp.End()
}

// Drain is an explicit quiescence point under the phase's clock: it
// returns once every in-flight message world-wide (including handler
// cascades) has been processed.
func (p *Phase) Drain() {
	sp := p.e.c.Trace().Begin(p.spanDrain)
	start := time.Now()
	p.e.c.Barrier()
	p.elapsed += time.Since(start)
	sp.End()
}

// SuperstepsHook runs the barrier-per-wave loop of frontier
// algorithms: each iteration runs body (which advances local state and
// returns this rank's count of still-active items), waits for the
// wave's full message cascade at a quiescence barrier, and stops once
// the global active count reaches zero. Returns the number of
// supersteps executed (identical on every rank). When after is non-nil
// it runs on this rank once per superstep — after the wave's quiescence
// barrier and all-done reduction, so the wave's full message cascade is
// reflected in local counters — with the 1-based step number. It runs
// at an aligned point on every rank but must not communicate (it is not
// a collective context).
func (p *Phase) SuperstepsHook(body func() int64, after func(step int64)) int64 {
	sp := p.e.c.Trace().Begin(p.spanRun)
	reg := rtrace.StartRegion(context.Background(), p.spanRun)
	start := time.Now()
	c := p.e.c
	var steps int64
	for {
		steps++
		ss := c.Trace().BeginArg(p.spanStep, steps)
		active := body()
		c.Barrier()
		done := c.AllReduceSum(active) == 0
		ss.End()
		if after != nil {
			after(steps)
		}
		if done {
			break
		}
	}
	p.elapsed += time.Since(start)
	reg.End()
	sp.End()
	return steps
}

// MessageStat is one handler's world-wide traffic under its
// phase-qualified name.
type MessageStat struct {
	ID        ygm.HandlerID
	Name      string
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
}

// LocalMessageStats returns this rank's per-handler counters for every
// handler registered through this engine's phases, in registration
// order. Unlike MessageStats it involves no collectives, so it may be
// called at any point on the owning goroutine — e.g. once per
// superstep to attribute traffic to waves incrementally.
func (e *Engine) LocalMessageStats() []MessageStat {
	st := e.c.Stats()
	out := make([]MessageStat, 0, len(e.handlers))
	for _, h := range e.handlers {
		hs := st.PerHandler[h.ID]
		out = append(out, MessageStat{
			ID:        h.ID,
			Name:      h.Name,
			SentMsgs:  hs.SentMsgs,
			SentBytes: hs.SentBytes,
			RecvMsgs:  hs.RecvMsgs,
		})
	}
	return out
}

// MessageStats aggregates per-handler counters over all ranks for
// every handler registered through this engine's phases, in
// registration order. Collective: every rank must call it at the same
// program point.
func (e *Engine) MessageStats() []MessageStat {
	st := e.c.Stats()
	out := make([]MessageStat, 0, len(e.handlers))
	for _, h := range e.handlers {
		hs := st.PerHandler[h.ID]
		out = append(out, MessageStat{
			ID:        h.ID,
			Name:      h.Name,
			SentMsgs:  e.c.AllReduceSum(hs.SentMsgs),
			SentBytes: e.c.AllReduceSum(hs.SentBytes),
			RecvMsgs:  e.c.AllReduceSum(hs.RecvMsgs),
		})
	}
	return out
}
