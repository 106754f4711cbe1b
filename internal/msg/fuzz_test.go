package msg

import (
	"bytes"
	"testing"

	"dnnd/internal/wire"
)

// The fuzz property for every codec: Decode must never panic on
// arbitrary bytes, and when a decode consumes a frame cleanly the
// re-encoded form is a fixed point — encode(decode(b)) decoded and
// encoded again yields the same bytes. Comparing canonical bytes
// rather than structs keeps the property honest for non-canonical
// inputs (a Type2 flag byte of 2 decodes as "no bound" and re-encodes
// as 0) and for NaN payloads (bit patterns survive, Go == does not).

type codec interface {
	Encode(*wire.Writer)
	Decode(*wire.Reader)
}

func checkCodec(t *testing.T, m codec, data []byte) {
	t.Helper()
	r := wire.NewReader(data)
	m.Decode(r)
	if r.Finish() != nil {
		return // corrupt frame rejected: that is the contract
	}
	w1 := wire.NewWriter(len(data))
	m.Encode(w1)
	canon := append([]byte(nil), w1.Bytes()...)

	r2 := wire.NewReader(canon)
	m.Decode(r2)
	if err := r2.Finish(); err != nil {
		t.Fatalf("%T: canonical re-decode failed: %v (frame %x)", m, err, canon)
	}
	w2 := wire.NewWriter(len(canon))
	m.Encode(w2)
	if !bytes.Equal(canon, w2.Bytes()) {
		t.Fatalf("%T: encoding is not a fixed point:\nfirst  %x\nsecond %x", m, canon, w2.Bytes())
	}
}

// headCodec is a vector-carrying message whose head can travel alone
// (the by-reference form, see InitReq.EncodeHead).
type headCodec interface {
	codec
	EncodeHead(*wire.Writer)
	DecodeHead(*wire.Reader)
}

// checkHeadOnly pins how the two record shapes stay apart: a frame that
// is exactly a head — DecodeHead consumes it cleanly — must be rejected
// by the full decoder with an ordinary decode error (no panic, no
// vector conjured from nothing), so a head-only record that strays onto
// the byte path cannot be mis-read as a message.
func checkHeadOnly(t *testing.T, m headCodec, data []byte) {
	t.Helper()
	r := wire.NewReader(data)
	m.DecodeHead(r)
	if r.Finish() != nil {
		return // not a bare head
	}
	full := wire.NewReader(data)
	m.Decode(full)
	if full.Finish() == nil {
		t.Fatalf("%T: full decoder accepted a head-only record %x", m, data)
	}
}

// headSeed is a selector-prefixed head-only corpus entry.
func headSeed(sel byte, m headCodec) []byte {
	w := wire.NewWriter(16)
	m.EncodeHead(w)
	return append([]byte{sel}, w.Bytes()...)
}

func FuzzCoreMessages(f *testing.F) {
	// One seed per selector so the corpus reaches every codec.
	for sel := byte(0); sel < 10; sel++ {
		f.Add([]byte{sel, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 128, 63})
	}
	// Head-only records, as an in-process world sends them.
	f.Add(headSeed(0, &InitReq[float32]{V: 1, U: 2}))
	f.Add(headSeed(1, &InitReq[uint8]{V: 1, U: 2}))
	f.Add(headSeed(5, &Type2[float32]{U1: 1, U2: 2}))
	f.Add(headSeed(5, &Type2[float32]{U1: 1, U2: 2, HasBound: true, Bound: 0.5}))
	f.Add(headSeed(6, &Type2[uint8]{U1: 1, U2: 2, HasBound: true, Bound: 0.5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, frame := data[0], data[1:]
		switch sel % 10 {
		case 0:
			checkCodec(t, &InitReq[float32]{}, frame)
			checkHeadOnly(t, &InitReq[float32]{}, frame)
		case 1:
			checkCodec(t, &InitReq[uint8]{}, frame)
			checkHeadOnly(t, &InitReq[uint8]{}, frame)
		case 2:
			checkCodec(t, &InitResp{}, frame)
		case 3:
			checkCodec(t, &Reverse{}, frame)
		case 4:
			checkCodec(t, &Type1{}, frame)
		case 5:
			checkCodec(t, &Type2[float32]{}, frame)
			checkHeadOnly(t, &Type2[float32]{}, frame)
		case 6:
			checkCodec(t, &Type2[uint8]{}, frame)
			checkHeadOnly(t, &Type2[uint8]{}, frame)
		case 7:
			checkCodec(t, &Type3{}, frame)
		case 8:
			checkCodec(t, &OptEdge{}, frame)
		case 9:
			checkCodec(t, &GatherRow{}, frame)
		}
	})
}

// tracedSeed builds a selector-prefixed corpus entry from a codec so
// the fuzzers start from well-formed traced frames (the optional
// STrace tail) as well as the historic untraced ones.
func tracedSeed(sel byte, m codec) []byte {
	w := wire.NewWriter(64)
	m.Encode(w)
	return append([]byte{sel}, w.Bytes()...)
}

func FuzzServeMessages(f *testing.F) {
	for sel := byte(0); sel < 10; sel++ {
		f.Add([]byte{sel, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	}
	// Traced forms of the codecs that grew the optional trace tail.
	tq := &SQuery[float32]{ID: 1, L: 2, Vec: []float32{1}}
	tq.SetTrace(STrace{TraceID: 3, SpanID: 4, Sampled: true})
	f.Add(tracedSeed(1, tq))
	f.Add(tracedSeed(4, &SResult{ID: 1, Trace: STrace{TraceID: 3, SpanID: 4, Sampled: true}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, frame := data[0], data[1:]
		switch sel % 10 {
		case 0:
			checkCodec(t, &SHelloReply{}, frame)
		case 1:
			checkCodec(t, &SQuery[float32]{}, frame)
		case 2:
			checkCodec(t, &SQuery[uint8]{}, frame)
		case 3:
			checkCodec(t, &SQuery[uint32]{}, frame)
		case 4:
			checkCodec(t, &SResult{}, frame)
		case 5:
			checkCodec(t, &SIngest[float32]{}, frame)
		case 6:
			checkCodec(t, &SIngest[uint8]{}, frame)
		case 7:
			checkCodec(t, &SDelete{}, frame)
		case 8:
			checkCodec(t, &SFlush{}, frame)
		case 9:
			checkCodec(t, &SUpdateReply{}, frame)
		}
	})
}

func FuzzRouterMessages(f *testing.F) {
	// A 1-shard, 1-replica topology as the corpus seed; the mutator
	// grows it from there. The historic seed starts with byte 1, which
	// selector-maps to RTopology below, so its coverage is preserved.
	f.Add([]byte{1, 0, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 'a', ':', '1', 0, 7, 0, 0, 0, 0, 0, 0, 0})
	// The messages the router rewrites in place: traced queries (whose
	// tail it re-parents per attempt) and traced result echoes.
	tq := &SQuery[uint8]{ID: 9, L: 4, Vec: []uint8{1, 2, 3, 4}}
	tq.SetTrace(STrace{TraceID: 7, SpanID: 8, Sampled: true})
	f.Add(tracedSeed(0, tq))
	f.Add(tracedSeed(2, &SResult{ID: 9, Trace: STrace{TraceID: 7, SpanID: 8}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, frame := data[0], data[1:]
		switch sel % 3 {
		case 0:
			checkCodec(t, &SQuery[uint8]{}, frame)
		case 1:
			checkCodec(t, &RTopology{}, frame)
		case 2:
			checkCodec(t, &SResult{}, frame)
		}
	})
}
