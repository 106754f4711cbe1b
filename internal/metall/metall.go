// Package metall is the stand-in for LLNL's Metall persistent memory
// allocator in this reproduction. The paper uses Metall so that the
// k-NNG construction executable can persist the graph and the dataset,
// and the optimization and query programs can reattach to them later
// without bespoke file I/O.
//
// Go cannot transparently map heap data structures into files the way
// Metall's mmap-backed C++ allocator can, so this package provides the
// equivalent *workflow*: a datastore directory holding named binary
// objects with a checksummed manifest and atomic (temp+rename) commit.
// Construct -> Close -> Open -> Optimize -> Close -> Open -> Query runs
// against the same store, which is what the evaluation exercises.
package metall

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// manifestName is the manifest file inside a datastore directory.
const manifestName = "metall-manifest.json"

const storeVersion = 1

// ErrClosed is returned by operations on a closed Manager.
var ErrClosed = errors.New("metall: datastore is closed")

// ErrNotFound is returned by Get for unknown object names.
var ErrNotFound = errors.New("metall: object not found")

// ErrCorrupt wraps integrity failures (bad manifest, checksum
// mismatches, truncated object files).
var ErrCorrupt = errors.New("metall: datastore corrupt")

type manifest struct {
	Version   int             `json:"version"`
	CreatedAt time.Time       `json:"created_at"`
	UpdatedAt time.Time       `json:"updated_at"`
	Objects   []manifestEntry `json:"objects"`
}

type manifestEntry struct {
	Name     string `json:"name"`
	File     string `json:"file"`
	Size     int64  `json:"size"`
	Checksum uint32 `json:"checksum_crc32c"`
}

// Manager is an open datastore. It buffers writes in memory; Close
// persists them atomically. A Manager is not safe for concurrent use.
type Manager struct {
	dir     string
	created time.Time
	entries map[string]manifestEntry // committed state
	pending map[string][]byte        // uncommitted writes
	cache   map[string][]byte        // loaded committed objects
	seq     int
	closed  bool
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func newManager(dir string, created time.Time) *Manager {
	return &Manager{
		dir:     dir,
		created: created,
		entries: make(map[string]manifestEntry),
		pending: make(map[string][]byte),
		cache:   make(map[string][]byte),
	}
}

// Open attaches to an existing datastore directory. The manifest is
// validated before anything is read through it: every entry must have
// a unique non-empty name, a non-negative size, and a canonical object
// file name, so no entry can point outside the directory or share a
// file another entry's rewrite would delete.
func Open(dir string) (*Manager, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("metall: open %s: %w", dir, err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("%w: bad manifest: %v", ErrCorrupt, err)
	}
	if mf.Version != storeVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, mf.Version)
	}
	m := newManager(dir, mf.CreatedAt)
	files := make(map[string]bool, len(mf.Objects))
	for _, e := range mf.Objects {
		n, ok := objectSeq(e.File)
		switch {
		case e.Name == "":
			return nil, fmt.Errorf("%w: manifest entry with empty name", ErrCorrupt)
		case !ok:
			return nil, fmt.Errorf("%w: object %q: bad file name %q", ErrCorrupt, e.Name, e.File)
		case e.Size < 0:
			return nil, fmt.Errorf("%w: object %q: negative size %d", ErrCorrupt, e.Name, e.Size)
		}
		if _, dup := m.entries[e.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate object %q", ErrCorrupt, e.Name)
		}
		if files[e.File] {
			return nil, fmt.Errorf("%w: object %q: file %q already in use", ErrCorrupt, e.Name, e.File)
		}
		files[e.File] = true
		m.entries[e.Name] = e
		// Resume the object-file sequence after the highest number in
		// use, not at the object count: committed files keep climbing
		// (obj-000006 after five objects were rewritten once), and a
		// lower seq would make the next commit overwrite live files and
		// then delete them as stale.
		m.seq = max(m.seq, n)
	}
	return m, nil
}

// objectFile names the object file with sequence number n.
func objectFile(n int) string { return fmt.Sprintf("obj-%06d.bin", n) }

// objectSeq parses a file name objectFile produced, reporting false
// for anything else.
func objectSeq(file string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(file, "obj-"), ".bin"))
	if err != nil || n < 1 || objectFile(n) != file {
		return 0, false
	}
	return n, true
}

// OpenOrCreate opens dir if it holds a datastore and otherwise starts
// a new one there (the directory is created if missing; the store
// exists on disk from its first Close).
func OpenOrCreate(dir string) (*Manager, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return Open(dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("metall: create %s: %w", dir, err)
	}
	return newManager(dir, time.Now().UTC()), nil
}

// Put stores data under name. The write is buffered until Close; the
// data slice is retained and must not be mutated afterwards.
func (m *Manager) Put(name string, data []byte) error {
	if m.closed {
		return ErrClosed
	}
	if name == "" {
		return errors.New("metall: empty object name")
	}
	m.pending[name] = data
	return nil
}

// Get returns the current contents of the named object (pending write
// if any, else committed bytes, integrity-checked on first load).
func (m *Manager) Get(name string) ([]byte, error) {
	if m.closed {
		return nil, ErrClosed
	}
	if data, ok := m.pending[name]; ok {
		return data, nil
	}
	if data, ok := m.cache[name]; ok {
		return data, nil
	}
	e, ok := m.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	data, err := os.ReadFile(filepath.Join(m.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("%w: object %q: %v", ErrCorrupt, name, err)
	}
	if int64(len(data)) != e.Size {
		return nil, fmt.Errorf("%w: object %q: size %d, manifest says %d",
			ErrCorrupt, name, len(data), e.Size)
	}
	if sum := crc32.Checksum(data, crcTable); sum != e.Checksum {
		return nil, fmt.Errorf("%w: object %q: checksum mismatch", ErrCorrupt, name)
	}
	m.cache[name] = data
	return data, nil
}

// commit durably persists all pending writes: object files are
// written first, then the manifest replaces the old one via rename, so
// a crash leaves either the old or the new store intact.
func (m *Manager) commit() error {
	if len(m.pending) == 0 && m.manifestExists() {
		return nil
	}
	var stale []string
	for name, data := range m.pending {
		old, hadOld := m.entries[name]
		m.seq++
		file := objectFile(m.seq)
		path := filepath.Join(m.dir, file)
		if err := writeFileSync(path, data); err != nil {
			return fmt.Errorf("metall: commit object %q: %w", name, err)
		}
		m.entries[name] = manifestEntry{
			Name:     name,
			File:     file,
			Size:     int64(len(data)),
			Checksum: crc32.Checksum(data, crcTable),
		}
		m.cache[name] = data
		if hadOld {
			stale = append(stale, old.File)
		}
	}
	if err := m.writeManifest(); err != nil {
		return err
	}
	// Only after the new manifest is durable may old object files go.
	for _, file := range stale {
		os.Remove(filepath.Join(m.dir, file))
	}
	m.pending = make(map[string][]byte)
	return nil
}

func (m *Manager) manifestExists() bool {
	_, err := os.Stat(filepath.Join(m.dir, manifestName))
	return err == nil
}

func (m *Manager) writeManifest() error {
	mf := manifest{
		Version:   storeVersion,
		CreatedAt: m.created,
		UpdatedAt: time.Now().UTC(),
	}
	for _, e := range m.entries {
		mf.Objects = append(mf.Objects, e)
	}
	sort.Slice(mf.Objects, func(i, j int) bool { return mf.Objects[i].Name < mf.Objects[j].Name })
	raw, err := json.MarshalIndent(&mf, "", "  ")
	if err != nil {
		return fmt.Errorf("metall: encode manifest: %w", err)
	}
	tmp := filepath.Join(m.dir, manifestName+".tmp")
	if err := writeFileSync(tmp, raw); err != nil {
		return fmt.Errorf("metall: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(m.dir, manifestName)); err != nil {
		return fmt.Errorf("metall: install manifest: %w", err)
	}
	return nil
}

// Close commits pending writes and marks the Manager unusable.
func (m *Manager) Close() error {
	if m.closed {
		return ErrClosed
	}
	err := m.commit()
	m.closed = true
	m.pending = nil
	m.cache = nil
	return err
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
