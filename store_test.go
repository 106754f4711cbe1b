package dnnd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/metall"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
)

// saveLoadRoundTrip persists a small brute-force index and reloads it,
// checking the graph, the dataset, and every storeMeta field survive.
func saveLoadRoundTrip[T Scalar](t *testing.T, data [][]T, kind MetricKind, refined bool) {
	t.Helper()
	const k = 4
	dist, err := metric.For[T](kind)
	if err != nil {
		t.Fatal(err)
	}
	g := brute.KNNGraph(data, k, dist, 0)
	ix, err := NewIndex(g, data, kind, k)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := Save(dir, ix, refined); err != nil {
		t.Fatal(err)
	}

	// The dataset object's bytes are fixed: magic, row count, then each
	// row as a uint32 length and its little-endian elements.
	mgr, err := metall.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := mgr.Get(objDataset)
	mgr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := datasetBlob(data); !bytes.Equal(blob, want) {
		t.Fatalf("dataset blob changed:\n got %x\nwant %x", blob, want)
	}

	if elem, err := StoreElem(dir); err != nil || elem != wire.ElemName[T]() {
		t.Fatalf("StoreElem = %q, %v; want %q", elem, err, wire.ElemName[T]())
	}
	lx, gotRefined, err := LoadWithMeta[T](dir)
	if err != nil {
		t.Fatal(err)
	}
	if gotRefined != refined {
		t.Fatalf("Refined round-trip: got %v, want %v", gotRefined, refined)
	}
	if lx.K() != k || lx.Metric() != kind || lx.Len() != len(data) {
		t.Fatalf("meta round-trip: k=%d metric=%q n=%d", lx.K(), lx.Metric(), lx.Len())
	}
	for i, row := range lx.Data() {
		if len(row) != len(data[i]) {
			t.Fatalf("dataset row %d: %d elems, want %d", i, len(row), len(data[i]))
		}
		for j := range row {
			if row[j] != data[i][j] {
				t.Fatalf("dataset[%d][%d] = %v, want %v", i, j, row[j], data[i][j])
			}
		}
	}
	for v := range data {
		got, want := lx.Graph().Neighbors[v], g.Neighbors[v]
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d neighbors, want %d", v, len(got), len(want))
		}
		for j := range want {
			if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
				t.Fatalf("vertex %d neighbor %d: got %+v, want %+v", v, j, got[j], want[j])
			}
		}
	}
}

// datasetBlob encodes rows the way the dataset object lays them out,
// independently of the wire package.
func datasetBlob[T Scalar](rows [][]T) []byte {
	out := binary.LittleEndian.AppendUint32(nil, datasetMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rows)))
	for _, row := range rows {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(row)))
		for _, x := range row {
			switch x := any(x).(type) {
			case float32:
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
			case uint8:
				out = append(out, x)
			case uint32:
				out = binary.LittleEndian.AppendUint32(out, x)
			}
		}
	}
	return out
}

// TestDatasetHostileCount: a dataset blob whose row count its bytes
// cannot hold is rejected before the row table is allocated.
func TestDatasetHostileCount(t *testing.T) {
	blob := binary.LittleEndian.AppendUint32(nil, datasetMagic)
	blob = binary.LittleEndian.AppendUint32(blob, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := unmarshalDataset[float32](blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("dataset blob claiming 2^20 rows in 8 bytes accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting an 8-byte dataset blob allocated %d bytes", grew)
	}
}

func TestStoreRoundTripAllElems(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, dim = 40, 6

	f32 := make([][]float32, n)
	for i := range f32 {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		f32[i] = v
	}
	u8 := make([][]uint8, n)
	for i := range u8 {
		v := make([]uint8, dim)
		for j := range v {
			v[j] = uint8(rng.Intn(256))
		}
		u8[i] = v
	}
	// uint32 rows are sorted distinct sets (Jaccard data).
	u32 := make([][]uint32, n)
	for i := range u32 {
		v := make([]uint32, 0, dim)
		for x := uint32(0); x < 4*dim; x++ {
			if rng.Intn(4) == 0 && len(v) < dim {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			v = append(v, uint32(i))
		}
		u32[i] = v
	}

	t.Run("float32", func(t *testing.T) { saveLoadRoundTrip(t, f32, metric.SquaredL2, false) })
	t.Run("float32Refined", func(t *testing.T) { saveLoadRoundTrip(t, f32, metric.SquaredL2, true) })
	t.Run("uint8", func(t *testing.T) { saveLoadRoundTrip(t, u8, metric.L2, true) })
	t.Run("uint32", func(t *testing.T) { saveLoadRoundTrip(t, u32, metric.Jaccard, false) })
}

// TestRefineRejectsSmallM: a degree cap multiplier below 1 is an error,
// returned before the store is touched — m=0 used to prune every list
// to one neighbor.
func TestRefineRejectsSmallM(t *testing.T) {
	data := [][]float32{{0, 1}, {1, 0}, {1, 1}, {0, 0}, {2, 2}, {3, 1}}
	dist, err := metric.For[float32](metric.SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(brute.KNNGraph(data, 3, dist, 0), data, metric.SquaredL2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := Save(dir, ix, false); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)
	for _, m := range []float64{0, 0.5} {
		if err := Refine[float32](dir, m); err == nil {
			t.Errorf("Refine(m=%v) accepted", m)
		}
	}
	if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("a rejected Refine changed the store's files")
	}
}

// readTree maps every regular file under dir to its contents.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStoreElemMismatchTyped: loading with the wrong element
// instantiation surfaces a *MismatchError a server can branch on, not
// an opaque formatted error.
func TestStoreElemMismatchTyped(t *testing.T) {
	data := [][]float32{{0, 1}, {1, 0}, {1, 1}, {0, 0}, {2, 2}}
	dist, err := metric.For[float32](metric.SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	g := brute.KNNGraph(data, 2, dist, 0)
	ix, err := NewIndex(g, data, metric.SquaredL2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := Save(dir, ix, false); err != nil {
		t.Fatal(err)
	}

	_, _, err = LoadWithMeta[uint8](dir)
	var mm *MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("elem mismatch returned %T (%v), want *MismatchError", err, err)
	}
	if mm.Field != "elem" || mm.Got != "float32" || mm.Want != "uint8" || mm.Dir != dir {
		t.Fatalf("mismatch detail: %+v", mm)
	}
	if mm.Error() == "" {
		t.Fatalf("empty error text")
	}
}

// TestStoreVersionMismatchTyped: a datastore from a future format
// version is refused with a typed version mismatch instead of being
// misread.
func TestStoreVersionMismatchTyped(t *testing.T) {
	data := [][]float32{{0, 1}, {1, 0}, {1, 1}, {0, 0}, {2, 2}}
	dist, err := metric.For[float32](metric.SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	g := brute.KNNGraph(data, 2, dist, 0)
	ix, err := NewIndex(g, data, metric.SquaredL2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := Save(dir, ix, false); err != nil {
		t.Fatal(err)
	}

	// Tamper: bump the stored version.
	mgr, err := metall.OpenOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mgr.Get(objMeta)
	if err != nil {
		t.Fatal(err)
	}
	var meta storeMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta.Version = storeVersion + 1
	raw, err = json.Marshal(&meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Put(objMeta, raw); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = LoadWithMeta[float32](dir)
	var mm *MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("version mismatch returned %T (%v), want *MismatchError", err, err)
	}
	if mm.Field != "version" || mm.Got != "3" || mm.Want != "1|2" {
		t.Fatalf("mismatch detail: %+v", mm)
	}
}

// The Dist a loaded store's index hands to serve.Source (dnnd-serve
// passes ix.Dist()) must resolve to its metric's block kernel;
// otherwise every served query would be scored pair by pair, silently.
func TestLoadedDistResolvesToManyKernel(t *testing.T) {
	data := testData(5, 120, 8)
	for _, kind := range []MetricKind{metric.L2, metric.SquaredL2, metric.Cosine} {
		dist, err := metric.For[float32](kind)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewIndex(brute.KNNGraph(data, 4, dist, 0), data, kind, 4)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "store")
		if err := Save(dir, ix, true); err != nil {
			t.Fatal(err)
		}
		loaded, _, _, _, err := LoadMutable[float32](dir)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := metric.KernelFor[float32](kind)
		got := metric.KernelOf(loaded.Dist())
		if got.Many == nil || reflect.ValueOf(got.Many).Pointer() != reflect.ValueOf(want.Many).Pointer() {
			t.Errorf("%s: the loaded index's Dist does not resolve to the block kernel", kind)
		}
	}
}
