package msg

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"dnnd/internal/knng"
	"dnnd/internal/wire"
)

// These tests pin every message's byte layout to the hand-rolled
// writer sequence its handler used before the codec layer existed (in
// internal/core/build.go and graphopt.go). The reference closures
// below ARE those sequences, transcribed call for call; if an Encode
// ever drifts from its
// reference, comm byte totals drift with it and the core golden
// determinism suite breaks.

type encoder interface{ Encode(*wire.Writer) }

func checkGolden(t *testing.T, name string, m encoder, ref func(w *wire.Writer)) {
	t.Helper()
	got := wire.NewWriter(64)
	m.Encode(got)
	want := wire.NewWriter(64)
	ref(want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s encoding drifted:\ngot  %x\nwant %x", name, got.Bytes(), want.Bytes())
	}
}

func TestCoreMessageLayouts(t *testing.T) {
	fvec := []float32{1.5, -2.25, 3}
	uvec := []uint8{7, 0, 255}

	checkGolden(t, "InitReq[float32]",
		&InitReq[float32]{V: 9, U: 1002, Vec: fvec},
		func(w *wire.Writer) {
			w.Uint32(9)
			w.Uint32(1002)
			wire.PutVector(w, fvec)
		})
	checkGolden(t, "InitReq[uint8]",
		&InitReq[uint8]{V: 9, U: 1002, Vec: uvec},
		func(w *wire.Writer) {
			w.Uint32(9)
			w.Uint32(1002)
			wire.PutVector(w, uvec)
		})
	checkGolden(t, "InitResp",
		&InitResp{V: 3, U: 8, D: 0.125},
		func(w *wire.Writer) {
			w.Uint32(3)
			w.Uint32(8)
			w.Float32(0.125)
		})
	checkGolden(t, "Reverse",
		&Reverse{U: 44, V: 17},
		func(w *wire.Writer) {
			w.Uint32(44)
			w.Uint32(17)
		})
	checkGolden(t, "Type1",
		&Type1{U1: 5, U2: 6},
		func(w *wire.Writer) {
			w.Uint32(5)
			w.Uint32(6)
		})
	checkGolden(t, "Type2+bound",
		&Type2[float32]{U1: 5, U2: 6, HasBound: true, Bound: 2.5, Vec: fvec},
		func(w *wire.Writer) {
			w.Uint32(5)
			w.Uint32(6)
			w.Uint8(1)
			w.Float32(2.5)
			wire.PutVector(w, fvec)
		})
	checkGolden(t, "Type2-unbounded",
		&Type2[float32]{U1: 5, U2: 6, Vec: fvec},
		func(w *wire.Writer) {
			w.Uint32(5)
			w.Uint32(6)
			w.Uint8(0)
			wire.PutVector(w, fvec)
		})
	checkGolden(t, "Type3",
		&Type3{U1: 5, U2: 6, D: 1.75},
		func(w *wire.Writer) {
			w.Uint32(5)
			w.Uint32(6)
			w.Float32(1.75)
		})
	checkGolden(t, "OptEdge",
		&OptEdge{U: 12, V: 90, D: 0.5},
		func(w *wire.Writer) {
			w.Uint32(12)
			w.Uint32(90)
			w.Float32(0.5)
		})
	ns := []knng.Neighbor{{ID: 2, Dist: 0.5, New: true}, {ID: 7, Dist: 1.25}}
	checkGolden(t, "GatherRow",
		&GatherRow{V: 31, Neighbors: ns},
		func(w *wire.Writer) {
			w.Uint32(31)
			w.Uint32(uint32(len(ns)))
			for _, e := range ns {
				w.Uint32(e.ID)
				w.Float32(e.Dist)
			}
		})
}

// The head of a vector-carrying message is what an in-process world
// materializes; the vector is charged, not sent (ygm.Comm.AsyncCharged).
// For the charged size to equal the byte path's, EncodeHead followed by
// wire.PutVector must be byte-for-byte Encode, and the head itself must
// keep its hand-rolled layout.
func TestHeadPlusVectorIsEncode(t *testing.T) {
	type headEncoder interface {
		encoder
		EncodeHead(*wire.Writer)
	}
	fvec := []float32{1.5, -2.25, 3}
	uvec := []uint8{7, 0, 255}
	bound := math.Float32bits(0.75)
	cases := []struct {
		name string
		m    headEncoder
		vec  func(w *wire.Writer)
		head []byte
	}{
		{"InitReq[float32]", &InitReq[float32]{V: 9, U: 1002, Vec: fvec},
			func(w *wire.Writer) { wire.PutVector(w, fvec) },
			[]byte{9, 0, 0, 0, 0xea, 3, 0, 0}},
		{"InitReq[uint8]", &InitReq[uint8]{V: 9, U: 1002, Vec: uvec},
			func(w *wire.Writer) { wire.PutVector(w, uvec) },
			[]byte{9, 0, 0, 0, 0xea, 3, 0, 0}},
		{"Type2[float32]", &Type2[float32]{U1: 5, U2: 6, Vec: fvec},
			func(w *wire.Writer) { wire.PutVector(w, fvec) },
			[]byte{5, 0, 0, 0, 6, 0, 0, 0, 0}},
		{"Type2+[float32]", &Type2[float32]{U1: 5, U2: 6, HasBound: true, Bound: 0.75, Vec: fvec},
			func(w *wire.Writer) { wire.PutVector(w, fvec) },
			[]byte{5, 0, 0, 0, 6, 0, 0, 0, 1, byte(bound), byte(bound >> 8), byte(bound >> 16), byte(bound >> 24)}},
		{"Type2[uint8]", &Type2[uint8]{U1: 5, U2: 6, Vec: uvec},
			func(w *wire.Writer) { wire.PutVector(w, uvec) },
			[]byte{5, 0, 0, 0, 6, 0, 0, 0, 0}},
		{"Type2+[uint8]", &Type2[uint8]{U1: 5, U2: 6, HasBound: true, Bound: 0.75, Vec: uvec},
			func(w *wire.Writer) { wire.PutVector(w, uvec) },
			[]byte{5, 0, 0, 0, 6, 0, 0, 0, 1, byte(bound), byte(bound >> 8), byte(bound >> 16), byte(bound >> 24)}},
	}
	for _, tc := range cases {
		w := wire.NewWriter(64)
		tc.m.EncodeHead(w)
		if !bytes.Equal(w.Bytes(), tc.head) {
			t.Errorf("%s head drifted:\ngot  %x\nwant %x", tc.name, w.Bytes(), tc.head)
		}
		tc.vec(w)
		full := wire.NewWriter(64)
		tc.m.Encode(full)
		if !bytes.Equal(w.Bytes(), full.Bytes()) {
			t.Errorf("%s: EncodeHead+PutVector is not Encode:\ngot  %x\nwant %x", tc.name, w.Bytes(), full.Bytes())
		}
	}
}

// TestRoundTrips: decode(encode(m)) reproduces m (modulo flags that do
// not cross the wire), and consumes the frame exactly.
func TestRoundTrips(t *testing.T) {
	roundTrip := func(name string, m encoder, decode func(r *wire.Reader) any, want any) {
		t.Helper()
		w := wire.NewWriter(64)
		m.Encode(w)
		r := wire.NewReader(w.Bytes())
		got := decode(r)
		if err := r.Finish(); err != nil {
			t.Errorf("%s: decode did not consume frame: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\ngot  %+v\nwant %+v", name, got, want)
		}
	}

	initReq := InitReq[float32]{V: 1, U: 2, Vec: []float32{3, 4}}
	roundTrip("InitReq", &initReq, func(r *wire.Reader) any {
		var d InitReq[float32]
		d.Decode(r)
		return d
	}, initReq)

	t2 := Type2[uint8]{U1: 1, U2: 2, HasBound: true, Bound: 9, Vec: []uint8{5}}
	roundTrip("Type2+bound", &t2, func(r *wire.Reader) any {
		var d Type2[uint8]
		d.Decode(r)
		return d
	}, t2)

	// Unbounded Type 2 decodes Bound to MaxFloat32 ("no bound").
	t2u := Type2[uint8]{U1: 1, U2: 2, Vec: []uint8{5}}
	want := t2u
	want.Bound = math.MaxFloat32
	roundTrip("Type2-unbounded", &t2u, func(r *wire.Reader) any {
		var d Type2[uint8]
		d.Decode(r)
		return d
	}, want)

	// New flags do not survive the wire.
	gr := GatherRow{V: 3, Neighbors: []knng.Neighbor{{ID: 1, Dist: 2, New: true}}}
	grWant := GatherRow{V: 3, Neighbors: []knng.Neighbor{{ID: 1, Dist: 2}}}
	roundTrip("GatherRow", &gr, func(r *wire.Reader) any {
		var d GatherRow
		d.Decode(r)
		return d
	}, grWant)
}
