// Package obs is the unified observability layer: span tracing into
// per-rank lock-free event buffers with a Chrome-trace/Perfetto JSON
// exporter (trace.go, perfetto.go), a typed metrics registry shared by
// the construction and the online server (registry.go), the
// log2-bucket histogram the serve metrics are built on (hist.go), and
// an opt-in debug HTTP listener wiring
// net/http/pprof, /metrics, and /trace (debug.go).
//
// The paper's evaluation is instrumentation all the way down —
// per-phase message counts (Fig. 4), phase time breakdowns, and the
// congestion measurements behind the Section 4.4 batching — and this
// package gives those measurements a time dimension: a whole
// multi-rank build renders as one timeline, one track per rank, with
// nested phase/superstep/barrier/flush spans and counter tracks for
// mailbox depth and in-flight queries.
//
// Cost model: tracing is off unless a *Tracer is installed, and every
// recording call on a nil *Track is a nil check; on a live track it is
// one atomic load when the tracer is disabled. Spans are values (no
// allocation), and event capture is an atomic slot claim plus plain
// stores — safe for concurrent writers (serve executors, transport
// goroutines) without locks. The buffers are fixed-capacity: when one
// fills, further events are dropped and counted, never blocking or
// reallocating mid-run.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds in a track buffer.
const (
	// KindSpan is a completed span: [TS, TS+Dur) nanoseconds.
	KindSpan = uint8(iota)
	// KindCounter is one sample of a named counter track (Arg = value).
	KindCounter
	// KindInstant is a zero-duration marker.
	KindInstant
	// KindAsync is a completed async span (Arg = correlation id).
	// Async spans may overlap freely on one track — Perfetto renders
	// them on per-id sub-rows — which is what concurrent serve
	// requests need where synchronous "X" spans must nest.
	KindAsync
	// KindTraced is a completed cross-process span: like KindAsync it
	// may overlap on a track, but it additionally carries a trace ID,
	// its own span ID, and its parent's span ID, so span records from
	// different processes stitch into one tree (tracectx.go, merge.go).
	KindTraced
)

// Event is one recorded trace event. Name must be a stable (typically
// package-level constant) string: events are recorded on hot paths and
// never copy or format names. Arg carries the counter value, a span's
// argument (superstep index, bytes flushed), or zero.
type Event struct {
	ready atomic.Uint32 // 1 once the fields below are published
	Kind  uint8
	Name  string
	Arg   int64
	TS    int64 // nanoseconds since the tracer epoch
	Dur   int64 // span duration in nanoseconds (spans only)
	// Cross-process identity (KindTraced only; zero otherwise).
	Trace  uint64
	Span   uint64
	Parent uint64
}

// DefaultTrackEvents is the per-track event capacity when NewTracer is
// given 0: large enough for the anchor builds' phase/flush/barrier
// spans, small enough (~14 MiB/track) to leave on for a full run.
const DefaultTrackEvents = 1 << 18

// Tracer owns a set of tracks (one per rank, plus auxiliary tracks for
// servers) and the shared epoch their timestamps count from. A nil
// *Tracer is valid everywhere and records nothing.
type Tracer struct {
	enabled   atomic.Bool
	epoch     time.Time
	epochWall int64 // epoch as wall-clock unix nanoseconds
	capacity  int
	mu        sync.Mutex
	tracks    []*Track
}

// NewTracer returns an enabled tracer whose tracks buffer up to
// perTrackEvents events each (0 selects DefaultTrackEvents).
func NewTracer(perTrackEvents int) *Tracer {
	if perTrackEvents <= 0 {
		perTrackEvents = DefaultTrackEvents
	}
	now := time.Now()
	t := &Tracer{epoch: now, epochWall: now.UnixNano(), capacity: perTrackEvents}
	t.enabled.Store(true)
	return t
}

// SetEnabled flips event capture globally. Existing Span values ended
// after a disable record nothing.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether the tracer is capturing.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Track creates (or returns, by name) the named track. ord is the
// Perfetto sort index — ranks pass their rank so the timeline renders
// rank 0 first. Returns nil on a nil tracer, which every recording
// method accepts.
func (t *Tracer) Track(name string, ord int) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.tracks {
		if tr.name == name {
			return tr
		}
	}
	tr := &Track{t: t, name: name, ord: ord, events: make([]Event, t.capacity)}
	t.tracks = append(t.tracks, tr)
	return tr
}

// Tracks snapshots the current track list.
func (t *Tracer) Tracks() []*Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Track, len(t.tracks))
	copy(out, t.tracks)
	return out
}

// now returns nanoseconds since the tracer epoch.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Track is one timeline row. Recording is safe for concurrent writers
// (an atomic slot claim publishes each event exactly once); there is
// no locking and no allocation on the record path.
type Track struct {
	t      *Tracer
	name   string
	ord    int
	events []Event
	next   atomic.Int64
	drops  atomic.Int64
}

// Name returns the track's display name.
func (tr *Track) Name() string {
	if tr == nil {
		return ""
	}
	return tr.name
}

// Drops returns the number of events lost to a full buffer.
func (tr *Track) Drops() int64 {
	if tr == nil {
		return 0
	}
	return tr.drops.Load()
}

// Len returns the number of published events.
func (tr *Track) Len() int {
	if tr == nil {
		return 0
	}
	n := int(tr.next.Load())
	if n > len(tr.events) {
		n = len(tr.events)
	}
	return n
}

// record claims a slot and publishes one event.
func (tr *Track) record(kind uint8, name string, arg, ts, dur int64) {
	i := tr.next.Add(1) - 1
	if i >= int64(len(tr.events)) {
		tr.drops.Add(1)
		return
	}
	e := &tr.events[i]
	e.Kind = kind
	e.Name = name
	e.Arg = arg
	e.TS = ts
	e.Dur = dur
	e.ready.Store(1)
}

// recordTraced publishes one KindTraced event with its span identity.
func (tr *Track) recordTraced(name string, trace, span, parent uint64, ts, dur int64) {
	i := tr.next.Add(1) - 1
	if i >= int64(len(tr.events)) {
		tr.drops.Add(1)
		return
	}
	e := &tr.events[i]
	e.Kind = KindTraced
	e.Name = name
	e.Arg = 0
	e.TS = ts
	e.Dur = dur
	e.Trace = trace
	e.Span = span
	e.Parent = parent
	e.ready.Store(1)
}

// Span is an in-progress span handle. The zero value (returned when
// tracing is off) is valid and End on it is a no-op.
type Span struct {
	tr    *Track
	name  string
	arg   int64
	t0    int64
	async bool
	// Cross-process identity (BeginTraced spans only).
	trace  uint64
	span   uint64
	parent uint64
}

// Begin opens a span. On a nil track or a disabled tracer it costs a
// nil check plus at most one atomic load and returns the zero Span.
func (tr *Track) Begin(name string) Span {
	if tr == nil || !tr.t.enabled.Load() {
		return Span{}
	}
	return Span{tr: tr, name: name, t0: tr.t.now()}
}

// BeginArg opens a span carrying an argument (superstep index, bytes).
func (tr *Track) BeginArg(name string, arg int64) Span {
	if tr == nil || !tr.t.enabled.Load() {
		return Span{}
	}
	return Span{tr: tr, name: name, arg: arg, t0: tr.t.now()}
}

// BeginAsync opens an async span correlated by id. Unlike Begin spans,
// async spans may overlap on a track without nesting, so concurrent
// work (serve requests across executors) records onto one track.
func (tr *Track) BeginAsync(name string, id int64) Span {
	if tr == nil || !tr.t.enabled.Load() {
		return Span{}
	}
	return Span{tr: tr, name: name, arg: id, t0: tr.t.now(), async: true}
}

// End completes the span and records it.
func (s Span) End() {
	if s.tr == nil || !s.tr.t.enabled.Load() {
		return
	}
	if s.span != 0 {
		s.tr.recordTraced(s.name, s.trace, s.span, s.parent, s.t0, s.tr.t.now()-s.t0)
		return
	}
	kind := KindSpan
	if s.async {
		kind = KindAsync
	}
	s.tr.record(kind, s.name, s.arg, s.t0, s.tr.t.now()-s.t0)
}

// Counter records one sample of a counter track (rendered by Perfetto
// as a stepped area chart under the track's process).
func (tr *Track) Counter(name string, v int64) {
	if tr == nil || !tr.t.enabled.Load() {
		return
	}
	tr.record(KindCounter, name, v, tr.t.now(), 0)
}

// Instant records a zero-duration marker.
func (tr *Track) Instant(name string) {
	if tr == nil || !tr.t.enabled.Load() {
		return
	}
	tr.record(KindInstant, name, 0, tr.t.now(), 0)
}

// snapshot returns the published prefix of the track's events. Safe
// while writers are still recording: only slots whose ready flag is
// set are returned, and those are immutable once published.
func (tr *Track) snapshot() []*Event {
	n := tr.Len()
	out := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		e := &tr.events[i]
		if e.ready.Load() == 1 {
			out = append(out, e)
		}
	}
	return out
}
