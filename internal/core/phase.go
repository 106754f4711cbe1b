package core

import (
	"context"
	rtrace "runtime/trace"
	"time"

	"dnnd/internal/ygm"
)

// phase is one algorithm phase: a stable dot-qualified name prefix for
// its handlers ("nd.check.type2") and an accumulator for the wall time
// its loops spend (phases rerun every round; elapsed sums across
// rounds). Span names are precomputed so the hot paths never build
// strings.
type phase struct {
	c         *ygm.Comm
	batchSize int64          // Config.BatchSize, the Section 4.4 in-flight bound
	catalog   *[]MessageStat // the builder's handler catalog (see register)
	name      string
	elapsed   time.Duration

	spanLocal, spanRun string
}

// newPhase declares a named phase. Like handler registration, every
// rank must declare the same phases in the same order.
func (b *builder[T]) newPhase(name string) *phase {
	return &phase{
		c:         b.c,
		batchSize: b.cfg.BatchSize,
		catalog:   &b.catalog,
		name:      name,
		spanLocal: name + ".local",
		spanRun:   name + ".run",
	}
}

// register installs a handler under the phase-qualified name
// "<phase>.<short>" and enters it in the message catalog. The usual ygm
// rule applies: identical registration order on every rank.
func (p *phase) register(short string, h ygm.Handler) ygm.HandlerID {
	name := p.name + "." + short
	id := p.c.Register(name, h)
	*p.catalog = append(*p.catalog, MessageStat{ID: id, Name: name})
	return id
}

// local runs fn under the phase's clock: purely rank-local work
// (sampling, merging) that needs no communication.
func (p *phase) local(fn func()) {
	sp := p.c.Trace().Begin(p.spanLocal)
	reg := rtrace.StartRegion(context.Background(), p.spanLocal)
	start := time.Now()
	fn()
	p.elapsed += time.Since(start)
	reg.End()
	sp.End()
}

// run executes the batched-submission loop of Section 4.4: emit(i) for
// every local item i in [0, totalLocal), with a global barrier after
// each batch so that world-wide message volume in flight stays under
// the batch size. perItemMsgs is the caller's estimate of messages per
// item; the batch quota divides the global bound by it and by the rank
// count. All ranks execute the same global number of batches (padded
// with empty ones), keeping barrier calls aligned.
func (p *phase) run(totalLocal, perItemMsgs int, emit func(i int)) {
	sp := p.c.Trace().BeginArg(p.spanRun, int64(totalLocal))
	reg := rtrace.StartRegion(context.Background(), p.spanRun)
	start := time.Now()
	if perItemMsgs < 1 {
		perItemMsgs = 1
	}
	c := p.c
	per := int(p.batchSize) / (c.NRanks() * perItemMsgs)
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

// MessageStat is one handler's world-wide traffic under its
// phase-qualified name.
type MessageStat struct {
	ID        ygm.HandlerID
	Name      string
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
}

// messageStats aggregates per-handler counters over all ranks for
// every handler in the catalog, in registration order. Collective:
// every rank must call it at the same program point.
func (b *builder[T]) messageStats() []MessageStat {
	st := b.c.Stats()
	out := make([]MessageStat, len(b.catalog))
	for i, h := range b.catalog {
		hs := st.PerHandler[h.ID]
		out[i] = MessageStat{
			ID:        h.ID,
			Name:      h.Name,
			SentMsgs:  b.c.AllReduceSum(hs.SentMsgs),
			SentBytes: b.c.AllReduceSum(hs.SentBytes),
			RecvMsgs:  b.c.AllReduceSum(hs.RecvMsgs),
		}
	}
	return out
}
