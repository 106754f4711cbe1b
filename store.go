package dnnd

import (
	"encoding/json"
	"fmt"

	"dnnd/internal/knng"
	"dnnd/internal/metall"
	"dnnd/internal/wire"
)

// Datastore object names.
const (
	objMeta    = "meta"
	objGraph   = "graph"
	objDataset = "dataset"
	objDelta   = "delta"      // append-only log of vectors not yet refined into the graph
	objTombs   = "tombstones" // knng.TombSet blob over [0, BaseN+DeltaN)
)

// Store format versions. Every writer produces v2, the MVCC manifest:
// a generation counter, the base/delta split, and the delta +
// tombstone objects beside meta, graph and dataset. v1 is the frozen
// single-snapshot layout (meta + graph + dataset) earlier builds wrote;
// the one reader still opens it, as generation 0 with nothing pending,
// because stores outlive binaries.
const (
	storeVersionV1 = 1
	storeVersion   = 2
)

// MismatchError reports a typed incompatibility between a persisted
// datastore and what the caller asked for: an unknown format version,
// or an element type different from the requested instantiation.
// Callers distinguish the two via Field ("version" or "elem") and can
// recover — e.g. the serve and query commands re-dispatch on
// StoreElem after an elem mismatch.
type MismatchError struct {
	Dir   string // datastore directory
	Field string // "version" | "elem"
	Got   string // what the store holds
	Want  string // what this build understands / the caller requested
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("dnnd: store %s: %s mismatch: have %s, want %s",
		e.Dir, e.Field, e.Got, e.Want)
}

// storeMeta describes a persisted index (JSON inside the datastore).
// The v2 fields version the snapshot manifest: Gen counts published
// snapshots (every SaveMutable commit bumps it), BaseN is the vertex
// count the graph object covers, DeltaN the pending vectors in the
// delta log, TombN the tombstoned IDs. v1 stores carry none of them
// (BaseN = N, everything else zero).
type storeMeta struct {
	Version int        `json:"version"`
	K       int        `json:"k"`
	Metric  MetricKind `json:"metric"`
	Elem    string     `json:"elem"`
	N       int        `json:"n"`
	Refined bool       `json:"refined"` // Section 4.5 optimization applied

	Gen    int64 `json:"gen,omitempty"`
	BaseN  int   `json:"base_n,omitempty"`
	DeltaN int   `json:"delta_n,omitempty"`
	TombN  int   `json:"tomb_n,omitempty"`
}

// Save persists an index (graph + dataset + metadata) into a
// Metall-style datastore directory, creating or updating it, as a
// clean generation-0 snapshot. The paper's construct executable does
// exactly this so the optimize and query executables can reattach
// later.
func Save[T Scalar](dir string, ix *Index[T], refined bool) error {
	return SaveMutable(dir, ix, refined, nil, nil, 0)
}

// Load reattaches to a datastore written by Save. The element type T
// must match the stored one.
func Load[T Scalar](dir string) (*Index[T], error) {
	ix, _, err := LoadWithMeta[T](dir)
	return ix, err
}

// LoadWithMeta is Load plus the stored metadata (e.g. the Refined
// flag). It refuses a store with pending mutations (see CheckClean).
func LoadWithMeta[T Scalar](dir string) (*Index[T], bool, error) {
	ix, _, _, st, err := LoadMutable[T](dir)
	if err != nil {
		return nil, false, err
	}
	if err := st.CheckClean(dir); err != nil {
		return nil, false, err
	}
	return ix, st.Refined, nil
}

// readMeta decodes a datastore's metadata object.
func readMeta(mgr *metall.Manager) (storeMeta, error) {
	var meta storeMeta
	raw, err := mgr.Get(objMeta)
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return meta, fmt.Errorf("dnnd: bad store metadata: %w", err)
	}
	return meta, nil
}

// StoreElem reports the element type ("float32", "uint8", "uint32")
// of a persisted index, so command-line tools can dispatch to the
// right Load instantiation.
func StoreElem(dir string) (string, error) {
	mgr, err := metall.Open(dir)
	if err != nil {
		return "", err
	}
	defer mgr.Close()
	meta, err := readMeta(mgr)
	return meta.Elem, err
}

// Refine applies the Section 4.5 graph optimization to a stored index
// in place: merge reverse edges and prune degrees to k*m, m >= 1. It
// mirrors the paper's separate graph-optimization executable, and
// writes the result back at the next generation.
func Refine[T Scalar](dir string, m float64) error {
	if !(m >= 1) {
		return fmt.Errorf("dnnd: degree cap multiplier m=%v must be >= 1", m)
	}
	ix, _, _, st, err := LoadMutable[T](dir)
	if err != nil {
		return err
	}
	if err := st.CheckClean(dir); err != nil {
		return err
	}
	if st.Refined {
		return fmt.Errorf("dnnd: store %s is already refined", dir)
	}
	ix.graph.Optimize(ix.k, m)
	return SaveMutable(dir, ix, true, nil, nil, st.Gen+1)
}

// StoreState describes a store's manifest, as returned by LoadMutable.
// A v1 store reads as generation 0 with no pending mutations.
type StoreState struct {
	Version int
	Gen     int64 // published-snapshot generation, bumped by every SaveMutable
	K       int
	Metric  MetricKind
	BaseN   int // vertices the persisted graph covers
	DeltaN  int // pending delta-log vectors (not yet in the graph)
	TombN   int // tombstoned IDs
	Refined bool
}

// CheckClean returns an error when the store at dir has pending
// mutations (delta vectors or tombstones). A frozen reader must refuse
// such a store — it would miss ingested points and resurface deleted
// ones — and open it with LoadMutable or compact it first.
func (st StoreState) CheckClean(dir string) error {
	if st.DeltaN != 0 || st.TombN != 0 {
		return fmt.Errorf(
			"dnnd: store %s has pending mutations (delta %d, tombstones %d); use LoadMutable or compact it first",
			dir, st.DeltaN, st.TombN)
	}
	return nil
}

// SaveMutable persists a mutable index as a v2 MVCC snapshot: the base
// index (graph + dataset, BaseN vertices), the pending delta log
// (vectors ingested but not yet refined into a graph), and the
// tombstone set, under generation gen. The commit is atomic through
// metall's temp+rename manifest machinery — a crash mid-save leaves
// the previous generation intact. It is the only store writer.
func SaveMutable[T Scalar](dir string, ix *Index[T], refined bool, pending [][]T, tombs *Tombstones, gen int64) error {
	mgr, err := metall.OpenOrCreate(dir)
	if err != nil {
		return err
	}
	n := len(ix.data) + len(pending)
	// Freeze the tombstone set once up front: callers (the server's
	// Publish hook) pass the live set of a published snapshot, which
	// concurrent deletes keep mutating. Deriving TombN and the persisted
	// bitset from separate reads of the live set can disagree, producing
	// a store LoadMutable rejects as inconsistent.
	frozen := tombs.CloneGrow(n)
	meta := storeMeta{
		Version: storeVersion,
		K:       ix.k,
		Metric:  ix.kind,
		Elem:    wire.ElemName[T](),
		N:       n,
		Refined: refined,
		Gen:     gen,
		BaseN:   len(ix.data),
		DeltaN:  len(pending),
		TombN:   frozen.Count(),
	}
	rawMeta, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	for _, obj := range []struct {
		name string
		data []byte
	}{
		{objMeta, rawMeta},
		{objGraph, ix.graph.Marshal()},
		{objDataset, marshalDataset(ix.data)},
		{objDelta, marshalDataset(pending)},
		{objTombs, frozen.Marshal()},
	} {
		if err := mgr.Put(obj.name, obj.data); err != nil {
			return err
		}
	}
	return mgr.Close()
}

// LoadMutable reattaches to a store: the base index, the pending delta
// vectors, the tombstone set (grown to cover base+delta), and the
// manifest state. It is the only store reader, and it reads both
// formats — a v1 store comes back as generation 0 with an empty delta
// and no tombstones.
func LoadMutable[T Scalar](dir string) (*Index[T], [][]T, *Tombstones, StoreState, error) {
	var st StoreState
	mgr, err := metall.Open(dir)
	if err != nil {
		return nil, nil, nil, st, err
	}
	defer mgr.Close()

	meta, err := readMeta(mgr)
	if err != nil {
		return nil, nil, nil, st, err
	}
	if meta.Version != storeVersionV1 && meta.Version != storeVersion {
		return nil, nil, nil, st, &MismatchError{
			Dir: dir, Field: "version",
			Got:  fmt.Sprintf("%d", meta.Version),
			Want: fmt.Sprintf("%d|%d", storeVersionV1, storeVersion),
		}
	}
	if meta.Elem != wire.ElemName[T]() {
		return nil, nil, nil, st, &MismatchError{
			Dir: dir, Field: "elem", Got: meta.Elem, Want: wire.ElemName[T](),
		}
	}
	if meta.Version == storeVersionV1 {
		meta.BaseN, meta.DeltaN, meta.TombN, meta.Gen = meta.N, 0, 0, 0
	}
	if meta.BaseN < 0 || meta.DeltaN < 0 || meta.N != meta.BaseN+meta.DeltaN {
		return nil, nil, nil, st, fmt.Errorf("dnnd: store inconsistent: meta N=%d, BaseN=%d, DeltaN=%d",
			meta.N, meta.BaseN, meta.DeltaN)
	}

	rawGraph, err := mgr.Get(objGraph)
	if err != nil {
		return nil, nil, nil, st, err
	}
	g, err := knng.Unmarshal(rawGraph)
	if err != nil {
		return nil, nil, nil, st, err
	}
	rawData, err := mgr.Get(objDataset)
	if err != nil {
		return nil, nil, nil, st, err
	}
	data, err := unmarshalDataset[T](rawData)
	if err != nil {
		return nil, nil, nil, st, err
	}
	if len(data) != meta.BaseN || g.NumVertices() != meta.BaseN {
		return nil, nil, nil, st, fmt.Errorf("dnnd: store inconsistent: meta BaseN=%d, dataset %d, graph %d",
			meta.BaseN, len(data), g.NumVertices())
	}

	var pending [][]T
	tombs := NewTombstones(meta.BaseN)
	if meta.Version == storeVersion {
		rawDelta, err := mgr.Get(objDelta)
		if err != nil {
			return nil, nil, nil, st, err
		}
		if pending, err = unmarshalDataset[T](rawDelta); err != nil {
			return nil, nil, nil, st, err
		}
		if len(pending) != meta.DeltaN {
			return nil, nil, nil, st, fmt.Errorf("dnnd: store inconsistent: meta DeltaN=%d, delta log %d",
				meta.DeltaN, len(pending))
		}
		rawTombs, err := mgr.Get(objTombs)
		if err != nil {
			return nil, nil, nil, st, err
		}
		if tombs, err = knng.UnmarshalTombSet(rawTombs); err != nil {
			return nil, nil, nil, st, err
		}
		if tombs.Len() > meta.N {
			return nil, nil, nil, st, fmt.Errorf("dnnd: store inconsistent: tombstone set covers %d IDs, store holds %d",
				tombs.Len(), meta.N)
		}
		tombs = tombs.CloneGrow(meta.N)
		if tombs.Count() != meta.TombN {
			return nil, nil, nil, st, fmt.Errorf("dnnd: store inconsistent: meta TombN=%d, tombstone set %d",
				meta.TombN, tombs.Count())
		}
	}

	ix, err := NewIndex(g, data, meta.Metric, meta.K)
	if err != nil {
		return nil, nil, nil, st, err
	}
	st = StoreState{
		Version: meta.Version,
		Gen:     meta.Gen,
		K:       meta.K,
		Metric:  meta.Metric,
		BaseN:   meta.BaseN,
		DeltaN:  meta.DeltaN,
		TombN:   meta.TombN,
		Refined: meta.Refined,
	}
	return ix, pending, tombs, st, nil
}

// Compact folds a mutable store's pending mutations into its base:
// delta vectors join the dataset, tombstoned points are physically
// removed (surviving IDs are compacted dense — the returned mapping
// translates old IDs to new, knng.InvalidID for removed points; it is
// nil when there were no tombstones and IDs are unchanged), and a
// warm-started refinement repairs the graph. The result is written
// back as a clean snapshot at the next generation. opt.K and
// opt.Metric default to the store's own values.
func Compact[T Scalar](dir string, opt BuildOptions) ([]ID, error) {
	ix, pending, tombs, st, err := LoadMutable[T](dir)
	if err != nil {
		return nil, err
	}
	if len(pending) == 0 && tombs.Count() == 0 {
		return nil, fmt.Errorf("dnnd: store %s has nothing to compact", dir)
	}
	if opt.K == 0 {
		opt.K = st.K
	}
	if opt.Metric == "" {
		opt.Metric = st.Metric
	}

	combined := make([][]T, 0, len(ix.data)+len(pending))
	combined = append(combined, ix.data...)
	combined = append(combined, pending...)
	// The prior covers only the base rows: the delta rows start from a
	// search of it, exactly like Refresh's appended rows.
	var (
		kept    [][]T
		res     *BuildResult
		mapping []ID
	)
	if dead := tombs.Snapshot(); len(dead) > 0 {
		kept, res, mapping, err = compactRows(combined, dead, ix.graph, opt)
	} else {
		kept = combined
		res, err = runBuild(combined, ix.graph, nil, opt)
	}
	if err != nil {
		return nil, err
	}
	newIx, err := NewIndex(res.Graph, kept, opt.Metric, opt.K)
	if err != nil {
		return nil, err
	}
	if err := SaveMutable(dir, newIx, !opt.SkipRefine, nil, nil, st.Gen+1); err != nil {
		return nil, err
	}
	return mapping, nil
}

const datasetMagic uint32 = 0x54534456 // "VDST"

func marshalDataset[T Scalar](data [][]T) []byte {
	size := 8
	for _, v := range data {
		size += wire.VectorBytes[T](len(v))
	}
	w := wire.NewWriter(size)
	w.Uint32(datasetMagic)
	w.Uint32(uint32(len(data)))
	for _, v := range data {
		wire.PutVector(w, v)
	}
	return w.Bytes()
}

func unmarshalDataset[T Scalar](p []byte) ([][]T, error) {
	r := wire.NewReader(p)
	if r.Uint32() != datasetMagic {
		return nil, fmt.Errorf("dnnd: bad dataset blob")
	}
	n := r.Count(4) // every vector carries at least its 4-byte length
	if r.Err() != nil {
		return nil, fmt.Errorf("dnnd: bad dataset header: %w", r.Err())
	}
	data := make([][]T, n)
	for i := range data {
		data[i] = wire.GetVector[T](r)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("dnnd: corrupt dataset blob: %w", err)
	}
	return data, nil
}
