package msg

import (
	"math"

	"dnnd/internal/knng"
	"dnnd/internal/wire"
)

// The construction messages, in handler-registration order. Direction
// notes use the paper's Section 4.3 vocabulary: v is the vertex whose
// owner initiates a step, owner(x) is the rank owning point x.

// InitReq is the random-initialization distance request (Algorithm 1
// lines 2-5): owner(v) ships v's feature vector to owner(u) to have
// theta(v, u) evaluated.
type InitReq[T wire.Scalar] struct {
	V, U uint32
	Vec  []T
}

func (m *InitReq[T]) Encode(w *wire.Writer) {
	m.EncodeHead(w)
	wire.PutVector(w, m.Vec)
}

// EncodeHead encodes everything before the trailing vector — the whole
// materialized record when the vector travels by reference (an
// in-process world resolves it as the dataset row of V; see
// ygm.Comm.AsyncCharged). EncodeHead followed by wire.PutVector is
// byte-for-byte Encode.
func (m *InitReq[T]) EncodeHead(w *wire.Writer) {
	w.Uint32(m.V)
	w.Uint32(m.U)
}

func (m *InitReq[T]) Decode(r *wire.Reader) {
	m.DecodeHead(r)
	m.Vec = wire.GetVector[T](r)
}

// DecodeHead decodes everything before the trailing vector. The hot
// path uses it with its own vector extractor (borrowed view or reused
// scratch) called directly afterwards — a func-valued extractor
// parameter would force the Reader to escape and cost one heap
// allocation per message.
func (m *InitReq[T]) DecodeHead(r *wire.Reader) {
	m.V = r.Uint32()
	m.U = r.Uint32()
}

// InitResp returns the computed initialization distance to owner(v).
type InitResp struct {
	V, U uint32
	D    float32
}

func (m *InitResp) Encode(w *wire.Writer) {
	w.Uint32(m.V)
	w.Uint32(m.U)
	w.Float32(m.D)
}

func (m *InitResp) Decode(r *wire.Reader) {
	m.V = r.Uint32()
	m.U = r.Uint32()
	m.D = r.Float32()
}

// Reverse is one entry of the Section 4.2 reverse-matrix exchange: v
// holds u in its old (or new) list, announced to owner(u), where row u
// of the reversed matrix lives. The same layout serves both the
// reverse-old and reverse-new handlers; the handler ID distinguishes
// them.
type Reverse struct {
	U, V uint32
}

func (m *Reverse) Encode(w *wire.Writer) {
	w.Uint32(m.U)
	w.Uint32(m.V)
}

func (m *Reverse) Decode(r *wire.Reader) {
	m.U = r.Uint32()
	m.V = r.Uint32()
}

// Type1 is the neighbor-check request (Section 4.3): the center vertex
// asks owner(U1) to check the pair (U1, U2).
type Type1 struct {
	U1, U2 uint32
}

func (m *Type1) Encode(w *wire.Writer) {
	w.Uint32(m.U1)
	w.Uint32(m.U2)
}

func (m *Type1) Decode(r *wire.Reader) {
	m.U1 = r.Uint32()
	m.U2 = r.Uint32()
}

// Type2 forwards U1's feature vector to owner(U2). With HasBound set it
// is the paper's Type 2+ message: Bound carries U1's farthest-neighbor
// distance so owner(U2) can suppress a useless Type 3 reply (4.3.3).
type Type2[T wire.Scalar] struct {
	U1, U2   uint32
	HasBound bool
	// Bound is U1's prune bound when HasBound; Decode leaves it at
	// math.MaxFloat32 otherwise ("no bound"), which is what the
	// receiving protocol logic compares against.
	Bound float32
	Vec   []T
}

func (m *Type2[T]) Encode(w *wire.Writer) {
	m.EncodeHead(w)
	wire.PutVector(w, m.Vec)
}

// EncodeHead encodes everything before the trailing vector (see
// InitReq.EncodeHead; here the by-reference vector is the row of U1).
func (m *Type2[T]) EncodeHead(w *wire.Writer) {
	w.Uint32(m.U1)
	w.Uint32(m.U2)
	if m.HasBound {
		w.Uint8(1)
		w.Float32(m.Bound)
	} else {
		w.Uint8(0)
	}
}

func (m *Type2[T]) Decode(r *wire.Reader) {
	m.DecodeHead(r)
	m.Vec = wire.GetVector[T](r)
}

// DecodeHead decodes everything before the trailing vector (see
// InitReq.DecodeHead).
func (m *Type2[T]) DecodeHead(r *wire.Reader) {
	m.U1 = r.Uint32()
	m.U2 = r.Uint32()
	m.HasBound = r.Uint8() == 1
	m.Bound = math.MaxFloat32
	if m.HasBound {
		m.Bound = r.Float32()
	}
}

// Type3 returns the evaluated distance theta(U1, U2) to owner(U1)
// (one-sided flow only).
type Type3 struct {
	U1, U2 uint32
	D      float32
}

func (m *Type3) Encode(w *wire.Writer) {
	w.Uint32(m.U1)
	w.Uint32(m.U2)
	w.Float32(m.D)
}

func (m *Type3) Decode(r *wire.Reader) {
	m.U1 = r.Uint32()
	m.U2 = r.Uint32()
	m.D = r.Float32()
}

// OptEdge ships one directed edge (V -> U, D) to owner(U) for the
// Section 4.5 reverse-edge merge.
type OptEdge struct {
	U, V uint32
	D    float32
}

func (m *OptEdge) Encode(w *wire.Writer) {
	w.Uint32(m.U)
	w.Uint32(m.V)
	w.Float32(m.D)
}

func (m *OptEdge) Decode(r *wire.Reader) {
	m.U = r.Uint32()
	m.V = r.Uint32()
	m.D = r.Float32()
}

// GatherRow delivers vertex V's final neighbor list to the gather root.
// New/old flags are not encoded; decoded entries have New == false.
type GatherRow struct {
	V         uint32
	Neighbors []knng.Neighbor
}

func (m *GatherRow) Encode(w *wire.Writer) {
	w.Uint32(m.V)
	putNeighbors(w, m.Neighbors)
}

func (m *GatherRow) Decode(r *wire.Reader) {
	m.V = r.Uint32()
	m.Neighbors = getNeighbors(r)
}
