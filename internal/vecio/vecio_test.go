package vecio

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"dnnd/internal/wire"
)

func TestFvecsRoundTrip(t *testing.T) {
	data := [][]float32{{1, 2, 3}, {4.5, -6.25}, {}}
	var buf bytes.Buffer
	if err := Write(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := Read[float32](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[0]) != 3 || got[1][1] != -6.25 || len(got[2]) != 0 {
		t.Fatalf("round trip = %v", got)
	}
}

func TestBvecsRoundTrip(t *testing.T) {
	data := [][]uint8{{0, 128, 255}, {7}}
	var buf bytes.Buffer
	if err := Write(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := Read[uint8](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][2] != 255 || got[1][0] != 7 {
		t.Fatalf("round trip = %v", got)
	}
}

func TestIvecsRoundTrip(t *testing.T) {
	data := [][]uint32{{10, 20, 30}, {1 << 20}}
	var buf bytes.Buffer
	if err := Write(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := Read[uint32](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][1] != 20 || got[1][0] != 1<<20 {
		t.Fatalf("round trip = %v", got)
	}
}

// TestWriteBytesPinned pins the file bytes of each element type: a
// little-endian int32 dimension, then the elements little-endian.
func TestWriteBytesPinned(t *testing.T) {
	check := func(name string, write func(*bytes.Buffer) error, want []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s bytes = % x, want % x", name, buf.Bytes(), want)
		}
	}
	check("fvecs", func(b *bytes.Buffer) error { return Write(b, [][]float32{{1, -2.5}, {}}) }, []byte{
		2, 0, 0, 0, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x20, 0xc0,
		0, 0, 0, 0,
	})
	check("bvecs", func(b *bytes.Buffer) error { return Write(b, [][]uint8{{0, 7, 255}}) }, []byte{
		3, 0, 0, 0, 0, 7, 255,
	})
	check("ivecs", func(b *bytes.Buffer) error { return Write(b, [][]uint32{{1, 1 << 20}}) }, []byte{
		2, 0, 0, 0, 1, 0, 0, 0, 0x00, 0x00, 0x10, 0x00,
	})
}

func TestEmptyFile(t *testing.T) {
	got, err := Read[float32](bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty fvecs = %v, %v", got, err)
	}
}

func TestTruncatedRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, [][]float32{{1, 2, 3}})
	raw := buf.Bytes()
	if _, err := Read[float32](bytes.NewReader(raw[:len(raw)-2])); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncated record = %v, want ErrBadFormat", err)
	}
	// Truncated header (partial dim field).
	if _, err := Read[float32](bytes.NewReader(raw[:2])); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncated header = %v, want ErrBadFormat", err)
	}
}

func TestNegativeDimensionRejected(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF} // dim = -1
	if _, err := Read[uint8](bytes.NewReader(raw)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("negative dim = %v, want ErrBadFormat", err)
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	fv := filepath.Join(dir, "x.fvecs")
	bv := filepath.Join(dir, "x.bvecs")
	iv := filepath.Join(dir, "x.ivecs")

	if err := WriteFile(fv, [][]float32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile[float32](fv); err != nil || got[0][1] != 2 {
		t.Fatalf("fvecs file = %v, %v", got, err)
	}
	if err := WriteFile(bv, [][]uint8{{3}}); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile[uint8](bv); err != nil || got[0][0] != 3 {
		t.Fatalf("bvecs file = %v, %v", got, err)
	}
	if err := WriteFile(iv, [][]uint32{{4}}); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile[uint32](iv); err != nil || got[0][0] != 4 {
		t.Fatalf("ivecs file = %v, %v", got, err)
	}
	if _, err := ReadFile[float32](filepath.Join(dir, "missing.fvecs")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestQuickFvecsRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		data := make([][]float32, n)
		for i := range data {
			v := make([]float32, rng.Intn(30))
			for j := range v {
				v[j] = rng.Float32()
			}
			data[i] = v
		}
		var buf bytes.Buffer
		if err := Write(&buf, data); err != nil {
			return false
		}
		got, err := Read[float32](&buf)
		if err != nil || len(got) != len(data) {
			return false
		}
		for i := range data {
			if len(got[i]) != len(data[i]) {
				return false
			}
			for j := range data[i] {
				if got[i][j] != data[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRead decodes arbitrary bytes as fvecs, bvecs and ivecs. A decode
// must not panic; one that succeeds must re-encode to exactly the input
// bytes, and one that fails must wrap ErrBadFormat.
func FuzzRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x20, 0xc0, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 7, 255})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzOne[float32](t, raw)
		fuzzOne[uint8](t, raw)
		fuzzOne[uint32](t, raw)
	})
}

func fuzzOne[T wire.Scalar](t *testing.T, raw []byte) {
	data, err := Read[T](bytes.NewReader(raw))
	if err != nil {
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: error %v does not wrap ErrBadFormat", wire.ElemName[T](), err)
		}
		return
	}
	var buf bytes.Buffer
	if err := Write(&buf, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("%s: re-encode = % x, want % x", wire.ElemName[T](), buf.Bytes(), raw)
	}
}
