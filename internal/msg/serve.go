package msg

import (
	"dnnd/internal/knng"
	"dnnd/internal/wire"
)

// The dnnd-serve online query protocol (internal/serve). Frames on the
// wire are length-prefixed: uint32 little-endian frame length counting
// the op byte and the payload, then the op byte, then the payload
// encoded by the codecs below. Every request frame is answered by
// exactly one reply frame carrying the same op.

// Serve protocol op codes. Stats and health replies carry plain UTF-8
// text as the whole payload (no codec); everything else uses the
// structs below.
const (
	SOpHello  uint8 = 1 // empty request -> SHelloReply
	SOpQuery  uint8 = 2 // SQuery -> SResult
	SOpStats  uint8 = 3 // empty request -> metrics dump (plain text)
	SOpHealth uint8 = 4 // empty request -> health probe (plain text)
	SOpIngest uint8 = 5 // SIngest -> SUpdateReply (mutable servers only)
	SOpDelete uint8 = 6 // SDelete -> SUpdateReply (mutable servers only)
	SOpFlush  uint8 = 7 // SFlush -> SUpdateReply after refine+swap completes
	// SOpTopo = 8 lives in router.go (router-only topology op).

	// SOpMetrics: empty request -> bucket-level metrics dump as JSON
	// (obs.FullDump). Unlike SOpStats' quantile text, the reply carries
	// raw log2 histogram buckets, so a scraper (the router's cluster
	// federation) can merge histograms associatively.
	SOpMetrics uint8 = 9
)

// SResult status codes. Everything except SStatusOK and SStatusPartial
// is a typed rejection: the query was not (fully) executed and the
// Neighbors list explains nothing beyond what Status already says.
const (
	// SStatusOK: the query ran to completion.
	SStatusOK uint8 = 0
	// SStatusOverloaded: the admission queue was full; the query was
	// rejected immediately without queueing (backpressure signal).
	SStatusOverloaded uint8 = 1
	// SStatusDraining: the server is shutting down and admits no new
	// queries; in-flight ones still complete.
	SStatusDraining uint8 = 2
	// SStatusDeadline: the query's deadline expired while it was still
	// queued; it was dropped before execution.
	SStatusDeadline uint8 = 3
	// SStatusPartial: the deadline expired mid-traversal; Neighbors
	// holds the best results found so far.
	SStatusPartial uint8 = 4
	// SStatusBadRequest: malformed query (wrong dimensionality, L < 1).
	SStatusBadRequest uint8 = 5
	// SStatusReadOnly: a mutation op (ingest/delete/flush) reached a
	// server running a frozen index.
	SStatusReadOnly uint8 = 6
	// SStatusUnavailable: a router could not reach any replica of at
	// least one shard (after bounded failover) and has no results to
	// return. Single servers never emit it.
	SStatusUnavailable uint8 = 7
)

// SStatusName returns the human label used in reports and metrics.
func SStatusName(s uint8) string {
	switch s {
	case SStatusOK:
		return "ok"
	case SStatusOverloaded:
		return "overloaded"
	case SStatusDraining:
		return "draining"
	case SStatusDeadline:
		return "deadline"
	case SStatusPartial:
		return "partial"
	case SStatusBadRequest:
		return "bad_request"
	case SStatusReadOnly:
		return "read_only"
	case SStatusUnavailable:
		return "unavailable"
	default:
		return "unknown"
	}
}

// SFlagWarm is a retired flag bit. It once asked the server to seed
// the search from a cache of recent results; that cache is gone, and
// servers now ignore the bit, so a query answers the same with or
// without it. The bit stays reserved: do not reuse it for a new
// meaning, since old clients may still set it.
const SFlagWarm uint8 = 1

// SFlagTrace marks a query carrying the optional trailing trace
// context (STrace) after the vector. The flag is the version gate: a
// PR-10+ peer decodes the extra bytes, and because clients only set
// the flag when they actually want tracing, a query without it is
// byte-identical to the pre-PR-10 layout.
const SFlagTrace uint8 = 2

// STrace is the wire form of a distributed trace context: the trace a
// request belongs to, the span the receiver should parent its own
// span on, and the head sampling decision. The layout (two uint64s
// and a flag byte, appended after the variable-length tail of the
// carrying message) is shared by SQuery (router/client -> shard) and
// SResult (shard -> router/client echo).
type STrace struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

func (t *STrace) encode(w *wire.Writer) {
	w.Uint64(t.TraceID)
	w.Uint64(t.SpanID)
	var b uint8
	if t.Sampled {
		b = 1
	}
	w.Uint8(b)
}

func (t *STrace) decode(r *wire.Reader) {
	t.TraceID = r.Uint64()
	t.SpanID = r.Uint64()
	t.Sampled = r.Uint8()&1 != 0
}

// STraceBytes is the encoded size of an STrace — the fixed distance
// of the trace section from a traced query's tail, which is how the
// router patches the parent span in place per attempt.
const STraceBytes = 17

// ReadSTraceTail decodes the STrace section from the last STraceBytes
// of b. The caller guarantees the tail is present (SFlagTrace on a
// query, length arithmetic on a result); this is the router's raw
// accessor — it inspects forwarded frames without decoding the vector.
func ReadSTraceTail(b []byte) STrace {
	t := b[len(b)-STraceBytes:]
	return STrace{
		TraceID: uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56,
		SpanID: uint64(t[8]) | uint64(t[9])<<8 | uint64(t[10])<<16 | uint64(t[11])<<24 |
			uint64(t[12])<<32 | uint64(t[13])<<40 | uint64(t[14])<<48 | uint64(t[15])<<56,
		Sampled: t[16]&1 != 0,
	}
}

// PutSTraceTail overwrites the last STraceBytes of b with tc — the
// router's per-attempt re-parenting patch: same trace, new parent span,
// vector untouched.
func PutSTraceTail(b []byte, tc STrace) {
	t := b[len(b)-STraceBytes:]
	for i := 0; i < 8; i++ {
		t[i] = byte(tc.TraceID >> (8 * i))
		t[8+i] = byte(tc.SpanID >> (8 * i))
	}
	t[16] = 0
	if tc.Sampled {
		t[16] = 1
	}
}

// SHelloReply describes the served index so clients (the loadgen in
// particular) can shape queries without out-of-band configuration.
type SHelloReply struct {
	Elem           string // "float32" | "uint8" | "uint32"
	Metric         string
	N, Dim, K      uint32
	Refined        bool
	DefaultL       uint32
	DefaultEpsilon float32
}

func (m *SHelloReply) Encode(w *wire.Writer) {
	w.String(m.Elem)
	w.String(m.Metric)
	w.Uint32(m.N)
	w.Uint32(m.Dim)
	w.Uint32(m.K)
	w.Bool(m.Refined)
	w.Uint32(m.DefaultL)
	w.Float32(m.DefaultEpsilon)
}

func (m *SHelloReply) Decode(r *wire.Reader) {
	m.Elem = r.String()
	m.Metric = r.String()
	m.N = r.Uint32()
	m.Dim = r.Uint32()
	m.K = r.Uint32()
	m.Refined = r.Bool()
	m.DefaultL = r.Uint32()
	m.DefaultEpsilon = r.Float32()
}

// SQuery is one approximate-nearest-neighbor request. Seed drives the
// server-side entry-point RNG, so a client that sets Seed to
// batchSeed*1_000_003 + i reproduces search.Batch(..., Seed:
// batchSeed) exactly, query for query — the property the e2e suite
// pins. L and Epsilon of 0 select the server's defaults.
type SQuery[T wire.Scalar] struct {
	ID             uint64
	Seed           int64
	L              uint32
	Epsilon        float32
	DeadlineMicros uint32 // 0 = server default; capped by the server
	Flags          uint8  // SFlagTrace (SFlagWarm is reserved, ignored)
	Vec            []T
	// Trace is the optional distributed trace context, on the wire
	// only when Flags&SFlagTrace is set (it trails the vector, so
	// untraced queries keep the pre-PR-10 byte layout exactly).
	Trace STrace
}

// SetTrace attaches a trace context, setting the presence flag.
func (m *SQuery[T]) SetTrace(t STrace) {
	m.Trace = t
	m.Flags |= SFlagTrace
}

func (m *SQuery[T]) Encode(w *wire.Writer) {
	w.Uint64(m.ID)
	w.Int64(m.Seed)
	w.Uint32(m.L)
	w.Float32(m.Epsilon)
	w.Uint32(m.DeadlineMicros)
	w.Uint8(m.Flags)
	wire.PutVector(w, m.Vec)
	if m.Flags&SFlagTrace != 0 {
		m.Trace.encode(w)
	}
}

func (m *SQuery[T]) Decode(r *wire.Reader) {
	m.ID = r.Uint64()
	m.Seed = r.Int64()
	m.L = r.Uint32()
	m.Epsilon = r.Float32()
	m.DeadlineMicros = r.Uint32()
	m.Flags = r.Uint8()
	m.Vec = wire.GetVector[T](r)
	if m.Flags&SFlagTrace != 0 {
		m.Trace.decode(r)
	} else {
		m.Trace = STrace{}
	}
}

// DecodeBorrow is Decode without the vector allocation: Vec either
// aliases the Reader's frame bytes (uint8, zero copy) or is decoded
// into scratch (wider scalars), per wire.GetVectorBorrow. Vec is valid
// only until the frame buffer or scratch is reused; the (possibly
// grown) scratch is returned for the caller's next call.
func (m *SQuery[T]) DecodeBorrow(r *wire.Reader, scratch []T) []T {
	m.ID = r.Uint64()
	m.Seed = r.Int64()
	m.L = r.Uint32()
	m.Epsilon = r.Float32()
	m.DeadlineMicros = r.Uint32()
	m.Flags = r.Uint8()
	m.Vec, scratch = wire.GetVectorBorrow(r, scratch)
	if m.Flags&SFlagTrace != 0 {
		m.Trace.decode(r)
	} else {
		m.Trace = STrace{}
	}
	return scratch
}

// SResult answers one SQuery. QueueMicros and ExecMicros are the
// server-side wait and execution times (saturating at ~71 minutes),
// included so load generators can split client-observed latency into
// network, queue, and compute shares.
type SResult struct {
	ID          uint64
	Status      uint8
	DistEvals   int64
	QueueMicros uint32
	ExecMicros  uint32
	Neighbors   []knng.Neighbor
	// Trace echoes the query's trace context back: TraceID is the
	// query's trace, SpanID the span the server recorded its work
	// under (so a client can cross-reference its request into a merged
	// timeline). Present on the wire — trailing the neighbor list —
	// only when TraceID is nonzero; servers only set it for queries
	// that carried SFlagTrace, so replies to untraced queries keep the
	// pre-PR-10 layout, and presence on decode is keyed by frame
	// length (the pre-PR-10 layout ends exactly at the neighbor list).
	Trace STrace
}

func (m *SResult) Encode(w *wire.Writer) {
	w.Uint64(m.ID)
	w.Uint8(m.Status)
	w.Int64(m.DistEvals)
	w.Uint32(m.QueueMicros)
	w.Uint32(m.ExecMicros)
	knng.PutNeighbors(w, m.Neighbors)
	if m.Trace.TraceID != 0 {
		m.Trace.encode(w)
	}
}

func (m *SResult) Decode(r *wire.Reader) {
	m.ID = r.Uint64()
	m.Status = r.Uint8()
	m.DistEvals = r.Int64()
	m.QueueMicros = r.Uint32()
	m.ExecMicros = r.Uint32()
	m.Neighbors = knng.GetNeighbors(r)
	m.Trace = STrace{}
	if r.Err() == nil && r.Remaining() >= STraceBytes {
		m.Trace.decode(r)
		if m.Trace.TraceID == 0 {
			// Not a canonical trace section (encode omits zero trace
			// IDs); treat as absent so re-encoding stays a fixed point.
			m.Trace = STrace{}
		}
	}
}

// The mutable-index ops (PR 8). SResult and SHelloReply layouts are
// byte-pinned and unchanged; mutation traffic gets its own codecs and
// its own reply type instead.

// SIngest appends vectors to the served index's delta log. The
// assigned point IDs are consecutive from SUpdateReply.First; the new
// points become searchable after the next refinement publishes a
// snapshot (trigger one eagerly with SOpFlush).
type SIngest[T wire.Scalar] struct {
	ID   uint64
	Vecs [][]T
}

func (m *SIngest[T]) Encode(w *wire.Writer) {
	w.Uint64(m.ID)
	w.Uint32(uint32(len(m.Vecs)))
	for _, v := range m.Vecs {
		wire.PutVector(w, v)
	}
}

func (m *SIngest[T]) Decode(r *wire.Reader) {
	m.ID = r.Uint64()
	n := r.Count(4) // each vector carries at least its length prefix
	if r.Err() != nil {
		m.Vecs = nil
		return
	}
	m.Vecs = make([][]T, 0, n)
	for i := 0; i < n; i++ {
		m.Vecs = append(m.Vecs, wire.GetVector[T](r))
	}
}

// SDelete tombstones points by ID. Deletes are visible to queries
// immediately (dead points are never returned) and physically removed
// at the next compaction. Unknown or already-dead IDs are counted out
// of SUpdateReply.Count, not errors.
type SDelete struct {
	ID  uint64
	IDs []knng.ID
}

func (m *SDelete) Encode(w *wire.Writer) {
	w.Uint64(m.ID)
	w.Uint32s(m.IDs)
}

func (m *SDelete) Decode(r *wire.Reader) {
	m.ID = r.Uint64()
	m.IDs = r.Uint32s()
}

// SFlush forces a refinement over the pending delta and blocks until
// the refined snapshot is published (the deterministic barrier the e2e
// suite and batch loaders use; background refinement triggers cover
// steady-state traffic).
type SFlush struct {
	ID uint64
}

func (m *SFlush) Encode(w *wire.Writer) { w.Uint64(m.ID) }
func (m *SFlush) Decode(r *wire.Reader) { m.ID = r.Uint64() }

// SUpdateReply answers every mutation op. Gen is the snapshot
// generation the mutation landed in (for SOpFlush, the freshly
// published one); First/Count report assigned IDs for ingests and the
// newly-tombstoned count for deletes.
type SUpdateReply struct {
	ID     uint64
	Status uint8
	Gen    uint64
	First  uint64 // first assigned point ID (ingest)
	Count  uint32 // vectors ingested / IDs newly tombstoned
}

func (m *SUpdateReply) Encode(w *wire.Writer) {
	w.Uint64(m.ID)
	w.Uint8(m.Status)
	w.Uint64(m.Gen)
	w.Uint64(m.First)
	w.Uint32(m.Count)
}

func (m *SUpdateReply) Decode(r *wire.Reader) {
	m.ID = r.Uint64()
	m.Status = r.Uint8()
	m.Gen = r.Uint64()
	m.First = r.Uint64()
	m.Count = r.Uint32()
}
