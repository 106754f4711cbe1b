package ygm

import (
	"fmt"
	"sync/atomic"

	"dnnd/internal/obs"
)

// Tracing and metrics publication for a Comm. Both hooks are opt-in and
// nil-safe: with no track attached the hot paths pay one nil check, and
// with no registry attached recordInterval skips the snapshot entirely,
// so traced and untraced runs execute the identical message schedule.

// SetTrace attaches a span track to this rank. Subsequent barriers,
// flushes, and construction phases record spans onto it; mailbox congestion
// high-water marks are emitted as counter samples at each barrier exit.
// Call it before the rank starts communicating (same single-owner rule
// as every other Comm method); pass nil to detach.
func (c *Comm) SetTrace(tr *obs.Track) { c.trace = tr }

// Trace returns the attached span track (nil when tracing is off). The
// returned track's methods are themselves nil-safe, so callers may
// instrument unconditionally: c.Trace().Begin("..."). Safe on a nil
// Comm too (comm-less worker pools in tests).
func (c *Comm) Trace() *obs.Track {
	if c == nil {
		return nil
	}
	return c.trace
}

// SetTracer attaches one track per rank of a local world, named
// "rank N" with the rank as its sort order — the one-track-per-rank
// layout every exported timeline uses. A nil tracer detaches nothing
// and costs nothing.
func (w *World) SetTracer(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	for i, c := range w.comms {
		c.SetTrace(tr.Track(fmt.Sprintf("rank %d", i), i))
	}
}

// PublishMetrics registers every rank of a local world with reg (see
// Comm.PublishMetrics). It is called before Run — no handlers are
// registered yet, so only the top-level ygm_* counters are published;
// their values refresh at every barrier exit during the run.
func (w *World) PublishMetrics(reg *obs.Registry) {
	for _, c := range w.comms {
		c.PublishMetrics(reg)
	}
}

// pubMetrics is the barrier-exit snapshot of a rank's counters. The
// rank's own Stats fields are plain ints mutated by the owning
// goroutine; a metrics dump runs on an HTTP goroutine, so it must never
// read them directly. Instead recordInterval — always on the owning
// goroutine, at every barrier exit — stores the counters into these
// atomic slots, and the registry samples read the slots. Freshness is
// barrier-granularity, which is exactly the cadence at which the
// counters are globally meaningful.
type pubMetrics struct {
	sentMsgs        atomic.Int64
	sentBytes       atomic.Int64
	remoteSentMsgs  atomic.Int64
	remoteSentBytes atomic.Int64
	recvMsgs        atomic.Int64
	flushes         atomic.Int64
	barriers        atomic.Int64
	peakDepth       atomic.Int64
	peakBytes       atomic.Int64
	perHandlerSent  []atomic.Int64
	perHandlerRecv  []atomic.Int64
	handlerIDs      []HandlerID
}

// PublishMetrics registers this rank's communication counters with reg
// under ygm_* names labeled {rank="N"} (per-handler traffic adds a
// handler label with the registered name). Call after all handlers are
// registered and before the world starts exchanging traffic. Values
// update at every barrier exit; reading between barriers returns the
// previous snapshot.
func (c *Comm) PublishMetrics(reg *obs.Registry) {
	p := &pubMetrics{}
	for id := range c.handlers {
		if HandlerID(id) < firstUserHandler {
			continue
		}
		p.handlerIDs = append(p.handlerIDs, HandlerID(id))
	}
	p.perHandlerSent = make([]atomic.Int64, len(p.handlerIDs))
	p.perHandlerRecv = make([]atomic.Int64, len(p.handlerIDs))
	c.pub = p

	rank := fmt.Sprintf(`{rank="%d"}`, c.rank)
	reg.Sample("ygm_sent_msgs"+rank, p.sentMsgs.Load)
	reg.Sample("ygm_sent_bytes"+rank, p.sentBytes.Load)
	reg.Sample("ygm_remote_sent_msgs"+rank, p.remoteSentMsgs.Load)
	reg.Sample("ygm_remote_sent_bytes"+rank, p.remoteSentBytes.Load)
	reg.Sample("ygm_recv_msgs"+rank, p.recvMsgs.Load)
	reg.Sample("ygm_flushes"+rank, p.flushes.Load)
	reg.Sample("ygm_barriers"+rank, p.barriers.Load)
	reg.Sample("ygm_mailbox_peak_depth"+rank, p.peakDepth.Load)
	reg.Sample("ygm_mailbox_peak_bytes"+rank, p.peakBytes.Load)
	for i, id := range p.handlerIDs {
		label := fmt.Sprintf(`{rank="%d",handler=%q}`, c.rank, c.handlerNames[id])
		reg.Sample("ygm_handler_sent_msgs"+label, p.perHandlerSent[i].Load)
		reg.Sample("ygm_handler_recv_msgs"+label, p.perHandlerRecv[i].Load)
	}
}

// publishSnapshot stores current counters into the atomic slots and
// emits mailbox-congestion counter samples onto the trace. Runs on the
// owning goroutine at barrier exit (see recordInterval).
func (c *Comm) publishSnapshot() {
	if c.pub == nil && c.trace == nil {
		return
	}
	c.mbox.mu.Lock()
	depth := int64(c.mbox.peakDepth)
	bytes := c.mbox.peakBytes
	cur := int64(len(c.mbox.q))
	c.mbox.mu.Unlock()

	if c.trace != nil {
		c.trace.Counter("ygm.mailbox.depth", cur)
		c.trace.Counter("ygm.mailbox.peak_depth", depth)
	}
	p := c.pub
	if p == nil {
		return
	}
	p.sentMsgs.Store(c.stats.SentMsgs)
	p.sentBytes.Store(c.stats.SentBytes)
	p.remoteSentMsgs.Store(c.stats.RemoteSentMsgs)
	p.remoteSentBytes.Store(c.stats.RemoteSentBytes)
	p.recvMsgs.Store(c.stats.RecvMsgs)
	p.flushes.Store(c.stats.Flushes)
	p.barriers.Store(c.stats.Barriers)
	p.peakDepth.Store(depth)
	p.peakBytes.Store(bytes)
	for i, id := range p.handlerIDs {
		p.perHandlerSent[i].Store(c.stats.PerHandler[id].SentMsgs)
		p.perHandlerRecv[i].Store(c.stats.PerHandler[id].RecvMsgs)
	}
}
