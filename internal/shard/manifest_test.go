package shard

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dnnd/internal/knng"
	"dnnd/internal/wire"
)

// validManifest is a 2-shard split of 5 points.
func validManifest() *Manifest {
	return &Manifest{
		Elem: "float32", Metric: "l2", K: 4, Dim: 3, N: 5, Refined: true,
		Shards: []ShardInfo{
			{Count: 3, Globals: []knng.ID{0, 2, 4}},
			{Count: 2, Globals: []knng.ID{3, 1}},
		},
	}
}

func encode(m *Manifest) []byte {
	var w wire.Writer
	m.Encode(&w)
	return w.Bytes()
}

func TestValidateRejections(t *testing.T) {
	if err := validManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(m *Manifest)
		want   string
	}{
		{"unknown elem", func(m *Manifest) { m.Elem = "float64" }, "unknown element type"},
		{"zero dim", func(m *Manifest) { m.Dim = 0 }, "zero dimensionality"},
		{"no shards", func(m *Manifest) { m.Shards = nil }, "no shards"},
		{"count/table mismatch", func(m *Manifest) { m.Shards[1].Count = 3 }, "disagrees"},
		{"sum != N", func(m *Manifest) { m.N = 6 }, "sum to 5"},
		{"out-of-range global", func(m *Manifest) { m.Shards[1].Globals[0] = 5 }, "out-of-range global 5"},
		{"duplicate global", func(m *Manifest) { m.Shards[1].Globals[0] = 2 }, "more than one shard"},
	}
	for _, tc := range cases {
		m := validManifest()
		tc.mutate(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestManifestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := validManifest()
	if err := SaveManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}

	// An invalid manifest is refused before anything is written over
	// the committed one.
	bad := validManifest()
	bad.N = 4
	if err := SaveManifest(dir, bad); err == nil {
		t.Fatal("SaveManifest accepted an invalid manifest")
	}
	if got, err := LoadManifest(dir); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after a refused save: %+v, %v", got, err)
	}
}

// FuzzManifest: Decode never panics on arbitrary bytes, and a frame
// that decodes cleanly and validates is canonical — it re-encodes to
// exactly the bytes it came from, so a manifest a router accepts has
// one meaning.
func FuzzManifest(f *testing.F) {
	f.Add(encode(validManifest()))
	m := validManifest()
	m.Refined = false
	m.Elem = "uint8"
	f.Add(encode(m))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		r := wire.NewReader(data)
		m.Decode(r)
		if r.Finish() != nil || m.Validate() != nil {
			return
		}
		if got := encode(&m); !bytes.Equal(got, data) {
			t.Fatalf("accepted manifest is not canonical:\n read %x\nwrote %x", data, got)
		}
	})
}
