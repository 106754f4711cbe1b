package obs

import (
	"os"
	"sync/atomic"
	"time"

	"dnnd/internal/splitmix"
)

// Cross-process trace context. A TraceCtx names a position in a
// distributed span tree — the trace it belongs to and the span the
// receiver should parent on — and is what the serve wire protocol
// propagates (msg.SQuery carries one router→shard; msg.SResult echoes
// one back). The model is deliberately minimal: IDs are opaque,
// sampling is a single head-decided bit (whoever starts the trace
// decides; everyone downstream obeys), and parentage is recorded at
// span-end time into the per-process track buffers, so the record
// path stays the PR-5 lock-free slot claim with three extra stores.
type TraceCtx struct {
	TraceID uint64 // 0 = no trace
	SpanID  uint64 // parent span for spans the receiver opens
	Sampled bool   // head-based sampling decision
}

// Valid reports whether the context names a trace.
func (c TraceCtx) Valid() bool { return c.TraceID != 0 }

// TraceIDBits is the width of trace and span IDs. 52 bits keeps every
// ID exactly representable as a JSON number (IEEE doubles are exact to
// 2^53), so Perfetto's JS viewer and the merge tool agree on values;
// 13 hex digits in the span args carry the full ID.
const TraceIDBits = 52

const idMask = (uint64(1) << TraceIDBits) - 1

// idState seeds the per-process ID sequence from the wall clock and
// pid, so independent processes draw from disjoint-with-overwhelming-
// probability sequences without coordination.
var idState = func() *atomic.Uint64 {
	var s atomic.Uint64
	s.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
	return &s
}()

// newID spreads the sequential counter over the ID space.
func newID() uint64 {
	for {
		if id := splitmix.Mix64(idState.Add(1)) & idMask; id != 0 {
			return id
		}
	}
}

// NewTraceID draws a fresh nonzero trace ID.
func NewTraceID() uint64 { return newID() }

// NewSpanID draws a fresh nonzero span ID.
func NewSpanID() uint64 { return newID() }

// BeginTraced opens a cross-process span under parent: the span joins
// parent's trace (or starts a fresh one when parent is zero), gets a
// fresh span ID, and records its parentage at End. On a nil track or
// disabled tracer it returns the zero Span, whose TraceCtx is invalid —
// so nothing propagates downstream and shards stay silent, exactly
// like every other recording call in this package.
func (tr *Track) BeginTraced(name string, parent TraceCtx) Span {
	if tr == nil || !tr.t.enabled.Load() {
		return Span{}
	}
	trace := parent.TraceID
	if trace == 0 {
		trace = NewTraceID()
	}
	return Span{
		tr: tr, name: name, t0: tr.t.now(),
		trace: trace, span: NewSpanID(), parent: parent.SpanID,
	}
}

// TraceCtx returns the context downstream work should parent on: the
// span's own identity, sampled. Zero (invalid) for untraced spans.
func (s Span) TraceCtx() TraceCtx {
	if s.span == 0 {
		return TraceCtx{}
	}
	return TraceCtx{TraceID: s.trace, SpanID: s.span, Sampled: true}
}
