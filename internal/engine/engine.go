// Package engine is the async-phase runtime under the DNND
// construction (internal/core). Its programs are SPMD phases that
// register message handlers, emit batched bulk-async traffic (Section
// 4.4 of the paper), and separate at quiescence points; this package
// owns that shape once. It serves construction and the serve lanes
// only; the serve lanes borrow Pool, and no serving path uses a Phase.
// Its parts:
//
//   - Phase groups an algorithm phase's handlers under a stable
//     dot-qualified name ("nd.check.type2") and accumulates the
//     phase's wall time across rounds.
//   - Phase.Run is the batched-submission loop: emit calls interleaved
//     with globally aligned barriers so in-flight volume stays bounded.
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
// protocol instance.
type Engine struct {
	c         *ygm.Comm
	batchSize int64
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

// Phase declares a named phase. Like handler registration, every rank
// must declare the same phases in the same order. Span names for the
// phase's loops are precomputed here so the hot paths never build
// strings.
func (e *Engine) Phase(name string) *Phase {
	return &Phase{
		e:         e,
		name:      name,
		spanLocal: name + ".local",
		spanRun:   name + ".run",
		spanDrain: name + ".drain",
	}
}

// Phase is one algorithm phase: a stable name prefix for its handlers
// and an accumulator for the wall time its loops spend (phases rerun
// every round; Elapsed sums across rounds).
type Phase struct {
	e       *Engine
	name    string
	elapsed time.Duration
	// Precomputed span / runtime-trace region names (see Engine.Phase).
	spanLocal, spanRun, spanDrain string
}

// Name returns the phase's name.
func (p *Phase) Name() string { return p.name }

// Elapsed returns the wall time accumulated by this phase's Local,
// Run, and Drain calls on this rank.
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

// MessageStat is one handler's world-wide traffic under its
// phase-qualified name.
type MessageStat struct {
	ID        ygm.HandlerID
	Name      string
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
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
