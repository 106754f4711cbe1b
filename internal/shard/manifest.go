// Package shard holds the shard manifest shared between the offline
// splitter (dnnd.Split, in the root package) and the online cluster
// router (internal/router). It is deliberately a leaf package — no
// serve or router dependency — so the root package can write manifests
// without dragging the whole cluster runtime into its import graph.
package shard

import (
	"fmt"

	"dnnd/internal/knng"
	"dnnd/internal/metall"
	"dnnd/internal/wire"
)

// ManifestObject is the metall object name the manifest is stored
// under (its own datastore directory, sibling to the shard stores).
const ManifestObject = "router-manifest"

const (
	manifestMagic   uint32 = 0x444e524d // "DNRM" little-endian
	manifestVersion uint32 = 1
)

// ShardInfo describes one shard's slice of the split dataset. Globals
// is the local→global ID map: the point a shard serves under local ID
// i is global point Globals[i]. Count duplicates len(Globals) on the
// wire so a truncated Globals table is caught as an inconsistency, not
// silently served.
type ShardInfo struct {
	Count   uint32
	Globals []knng.ID
}

// Manifest is the persisted description of a split: which global IDs
// live on which shard, plus the cluster-wide shape (element type,
// metric, dimensionality, construction k) a router needs to validate
// queries and synthesize hello replies without touching any shard.
type Manifest struct {
	Elem    string // "float32" | "uint8" | "uint32"
	Metric  string
	K       uint32
	Dim     uint32
	N       uint32 // total points; shard counts sum to it
	Refined bool
	Shards  []ShardInfo
}

// ElemSize returns the on-wire bytes per vector element, or 0 for an
// unknown element name.
func (m *Manifest) ElemSize() int {
	switch m.Elem {
	case "float32", "uint32":
		return 4
	case "uint8":
		return 1
	default:
		return 0
	}
}

func (m *Manifest) Encode(w *wire.Writer) {
	w.Uint32(manifestMagic)
	w.Uint32(manifestVersion)
	w.String(m.Elem)
	w.String(m.Metric)
	w.Uint32(m.K)
	w.Uint32(m.Dim)
	w.Uint32(m.N)
	w.Bool(m.Refined)
	w.Uint32(uint32(len(m.Shards)))
	for _, sh := range m.Shards {
		w.Uint32(sh.Count)
		w.Uint32s(sh.Globals)
	}
}

// Decode reads a manifest, leaving any error in r. Only canonical
// encodings decode: a wrong magic or version, or a refined flag other
// than 0 or 1, fails r.
func (m *Manifest) Decode(r *wire.Reader) {
	if r.Uint32() != manifestMagic && r.Err() == nil {
		reject(r)
		return
	}
	if v := r.Uint32(); v != manifestVersion && r.Err() == nil {
		reject(r)
		return
	}
	m.Elem = r.String()
	m.Metric = r.String()
	m.K = r.Uint32()
	m.Dim = r.Uint32()
	m.N = r.Uint32()
	refined := r.Uint8()
	if refined > 1 {
		reject(r)
		return
	}
	m.Refined = refined == 1
	// Each shard carries at least its count word and the Globals length
	// prefix — the floor that keeps a corrupt shard count from forcing
	// a huge allocation.
	ns := r.Count(8)
	if r.Err() != nil {
		m.Shards = nil
		return
	}
	m.Shards = make([]ShardInfo, 0, ns)
	for i := 0; i < ns; i++ {
		var sh ShardInfo
		sh.Count = r.Uint32()
		sh.Globals = r.Uint32s()
		m.Shards = append(m.Shards, sh)
	}
}

// reject forces r into its error state: an empty buffer cannot
// satisfy a one-byte read.
func reject(r *wire.Reader) {
	r.Reset(nil)
	r.Uint8()
}

// Validate checks the manifest's internal consistency: a known element
// type, per-shard counts matching their Globals tables, and the tables
// together forming exactly a permutation of [0, N). A router refuses
// to start on anything less — serving through a corrupt ID map would
// silently return wrong neighbors, the worst possible failure mode.
func (m *Manifest) Validate() error {
	if m.ElemSize() == 0 {
		return fmt.Errorf("shard: manifest has unknown element type %q", m.Elem)
	}
	if m.Dim == 0 {
		return fmt.Errorf("shard: manifest has zero dimensionality")
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: manifest has no shards")
	}
	var total uint64
	for i, sh := range m.Shards {
		if int(sh.Count) != len(sh.Globals) {
			return fmt.Errorf("shard: shard %d count %d disagrees with its %d-entry global ID table",
				i, sh.Count, len(sh.Globals))
		}
		total += uint64(sh.Count)
	}
	if total != uint64(m.N) {
		return fmt.Errorf("shard: shard counts sum to %d, manifest N is %d", total, m.N)
	}
	seen := make([]bool, m.N)
	for i, sh := range m.Shards {
		for _, g := range sh.Globals {
			if uint32(g) >= m.N {
				return fmt.Errorf("shard: shard %d maps a local ID to out-of-range global %d (N=%d)",
					i, g, m.N)
			}
			if seen[g] {
				return fmt.Errorf("shard: global ID %d appears on more than one shard", g)
			}
			seen[g] = true
		}
	}
	return nil
}

// SaveManifest persists the manifest into a metall datastore directory
// (creating or updating it), with the same temp+rename commit
// discipline every other dnnd store uses.
func SaveManifest(dir string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	mgr, err := metall.OpenOrCreate(dir)
	if err != nil {
		return err
	}
	var w wire.Writer
	m.Encode(&w)
	if err := mgr.Put(ManifestObject, w.Bytes()); err != nil {
		mgr.Close()
		return err
	}
	return mgr.Close()
}

// LoadManifest reattaches to a manifest written by SaveManifest,
// rejecting anything that fails decoding or Validate.
func LoadManifest(dir string) (*Manifest, error) {
	mgr, err := metall.Open(dir)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	raw, err := mgr.Get(ManifestObject)
	if err != nil {
		return nil, err
	}
	var m Manifest
	r := wire.NewReader(raw)
	m.Decode(r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("shard: corrupt manifest in %s: %w", dir, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
