package metall

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestCreatePutGetCloseOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, err := OpenOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("graph", []byte("graph-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("dataset", []byte("dataset-bytes")); err != nil {
		t.Fatal(err)
	}
	// Readable before commit.
	got, err := m.Get("graph")
	if err != nil || string(got) != "graph-bytes" {
		t.Fatalf("pre-commit Get = %q, %v", got, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err = m2.Get("dataset")
	if err != nil || string(got) != "dataset-bytes" {
		t.Fatalf("post-reopen Get = %q, %v", got, err)
	}
	got, err = m2.Get("graph")
	if err != nil || string(got) != "graph-bytes" {
		t.Errorf("post-reopen Get = %q, %v", got, err)
	}
	if _, err := m2.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of missing object = %v, want ErrNotFound", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedReopenCommitCycles is the regression test for the
// sequence-counter bug: Open used to resume the object-file counter at
// the object COUNT rather than the highest file number in use, so the
// third open+put+close cycle rewrote the live object files and then
// deleted them as stale — silently destroying the store. An online
// mutable index commits every published generation this way.
func TestRepeatedReopenCommitCycles(t *testing.T) {
	dir := t.TempDir()
	names := []string{"meta", "graph", "dataset", "delta", "tombstones"}
	for cycle := 0; cycle < 5; cycle++ {
		m, err := OpenOrCreate(dir)
		if err != nil {
			t.Fatalf("cycle %d: open: %v", cycle, err)
		}
		for _, name := range names {
			payload := []byte(name + "-gen-" + string(rune('0'+cycle)))
			if err := m.Put(name, payload); err != nil {
				t.Fatalf("cycle %d: put %s: %v", cycle, name, err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}

		r, err := Open(dir)
		if err != nil {
			t.Fatalf("cycle %d: reopen: %v", cycle, err)
		}
		for _, name := range names {
			want := name + "-gen-" + string(rune('0'+cycle))
			got, err := r.Get(name)
			if err != nil {
				t.Fatalf("cycle %d: get %s: %v", cycle, name, err)
			}
			if string(got) != want {
				t.Fatalf("cycle %d: %s = %q, want %q", cycle, name, got, want)
			}
		}
		r.Close()
	}
	// No stale object files left behind: exactly one file per object
	// plus the manifest.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(names)+1 {
		var fn []string
		for _, f := range files {
			fn = append(fn, f.Name())
		}
		t.Errorf("store holds %d files after 5 cycles, want %d: %v", len(files), len(names)+1, fn)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of missing store should fail")
	}
}

// TestOverwriteAndDelete: rewriting an object replaces its bytes, and
// the commit deletes the file the old version lived in.
func TestOverwriteAndDelete(t *testing.T) {
	dir := t.TempDir()
	m, _ := OpenOrCreate(dir)
	m.Put("k", []byte("v1"))
	if err := m.commit(); err != nil {
		t.Fatal(err)
	}
	m.Put("k", []byte("v2"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _ := Open(dir)
	got, err := m2.Get("k")
	if err != nil || string(got) != "v2" {
		t.Errorf("after overwrite = %q, %v", got, err)
	}
	m2.Close()
	// The overwritten object's file is deleted: one object file left.
	files, _ := os.ReadDir(dir)
	bins := 0
	for _, f := range files {
		if filepath.Ext(f.Name()) == ".bin" {
			bins++
		}
	}
	if bins != 1 {
		t.Errorf("%d object files for one object", bins)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	m, _ := OpenOrCreate(dir)
	m.Put("obj", bytes.Repeat([]byte{7}, 100))
	m.Close()

	// Flip a byte in the object file.
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if filepath.Ext(f.Name()) == ".bin" {
			path := filepath.Join(dir, f.Name())
			data, _ := os.ReadFile(path)
			data[50] ^= 0xFF
			os.WriteFile(path, data, 0o644)
		}
	}
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Get("obj"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get on corrupted object = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedObjectDetected(t *testing.T) {
	dir := t.TempDir()
	m, _ := OpenOrCreate(dir)
	m.Put("obj", bytes.Repeat([]byte{9}, 64))
	m.Close()
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if filepath.Ext(f.Name()) == ".bin" {
			os.Truncate(filepath.Join(dir, f.Name()), 10)
		}
	}
	m2, _ := Open(dir)
	if _, err := m2.Get("obj"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get on truncated object = %v, want ErrCorrupt", err)
	}
}

func TestBadManifestRejected(t *testing.T) {
	dir := t.TempDir()
	m, _ := OpenOrCreate(dir)
	m.Put("x", []byte("y"))
	m.Close()
	os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644)
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with bad manifest = %v, want ErrCorrupt", err)
	}
}

func TestClosedManagerRefusesOperations(t *testing.T) {
	dir := t.TempDir()
	m, _ := OpenOrCreate(dir)
	m.Close()
	if err := m.Put("a", nil); !errors.Is(err, ErrClosed) {
		t.Error("Put after Close")
	}
	if _, err := m.Get("a"); !errors.Is(err, ErrClosed) {
		t.Error("Get after Close")
	}
	if err := m.Close(); !errors.Is(err, ErrClosed) {
		t.Error("double Close should report ErrClosed")
	}
}

func TestEmptyNameRejected(t *testing.T) {
	m, _ := OpenOrCreate(t.TempDir())
	defer m.Close()
	if err := m.Put("", []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestQuickPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	i := 0
	prop := func(data []byte) bool {
		i++
		name := string(rune('a'+i%26)) + "obj"
		if err := m.Put(name, data); err != nil {
			return false
		}
		if err := m.commit(); err != nil {
			return false
		}
		got, err := m.Get(name)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitIsAtomicUnderReopen(t *testing.T) {
	// A store with uncommitted writes reopened from disk must show only
	// the committed state.
	dir := t.TempDir()
	m, _ := OpenOrCreate(dir)
	m.Put("committed", []byte("yes"))
	m.commit()
	m.Put("pending", []byte("no"))
	// No commit, no Close: simulate a crash by just reopening.
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Get("pending"); !errors.Is(err, ErrNotFound) {
		t.Errorf("uncommitted write: Get = %v, want ErrNotFound", err)
	}
	if got, err := m2.Get("committed"); err != nil || string(got) != "yes" {
		t.Errorf("committed write: Get = %q, %v", got, err)
	}
	m2.Close()
}

// TestFailedManifestInstallKeepsOldStore: a commit whose manifest
// cannot be written (here its temporary path is a directory) fails and
// leaves the previous generation whole: the old manifest still names
// the old object files, and none of them was removed. A manifest
// written in place, or an old object removed before the new manifest is
// installed, would each lose it at a crash at that point.
func TestFailedManifestInstallKeepsOldStore(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Put("a", []byte("v1"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Put("a", []byte("v2"))
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err == nil {
		t.Fatal("commit succeeded although its manifest could not be written")
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}

	m, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, err := m.Get("a"); err != nil || string(got) != "v1" {
		t.Fatalf("after a failed commit Get(a) = %q, %v; want the previous generation's v1", got, err)
	}
}

func TestWriteFileSyncFailure(t *testing.T) {
	if err := writeFileSync(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x")); err == nil {
		t.Error("write into missing directory accepted")
	}
}

// writeManifestEntries replaces dir's manifest with one listing
// entries.
func writeManifestEntries(t *testing.T, dir string, entries []manifestEntry) {
	t.Helper()
	raw, err := json.Marshal(manifest{Version: storeVersion, Objects: entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsEscapingFile: a manifest entry whose file leaves the
// store directory is refused at Open. Accepted, Get would read the
// outside file and the next commit rewriting that object would delete
// it.
func TestOpenRejectsEscapingFile(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	victim := filepath.Join(root, "victim")
	payload := []byte("not part of any store")
	if err := os.WriteFile(victim, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	m, _ := OpenOrCreate(dir)
	m.Put("meta", []byte("x"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	writeManifestEntries(t, dir, []manifestEntry{{
		Name: "meta", File: "../victim",
		Size: int64(len(payload)), Checksum: crc32.Checksum(payload, crcTable),
	}})

	m, err := Open(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with an entry pointing at ../victim = %v, want ErrCorrupt", err)
	}
	if err == nil {
		if got, err := m.Get("meta"); err == nil {
			t.Errorf("Get read %q from outside the store", got)
		}
		m.Put("meta", []byte("y"))
		m.Close()
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("file outside the store was removed: %v", err)
	}
}

// TestOpenRejectsBadEntries: every other malformed manifest entry is
// refused at Open too.
func TestOpenRejectsBadEntries(t *testing.T) {
	ok := manifestEntry{Name: "a", File: "obj-000001.bin"}
	for name, entries := range map[string][]manifestEntry{
		"empty name":     {{Name: "", File: "obj-000001.bin"}},
		"duplicate name": {ok, {Name: "a", File: "obj-000002.bin"}},
		"shared file":    {ok, {Name: "b", File: "obj-000001.bin"}},
		"negative size":  {{Name: "a", File: "obj-000001.bin", Size: -1}},
		"absolute file":  {{Name: "a", File: "/etc/passwd"}},
		"short digits":   {{Name: "a", File: "obj-1.bin"}},
		"signed digits":  {{Name: "a", File: "obj-+00001.bin"}},
		"zero sequence":  {{Name: "a", File: "obj-000000.bin"}},
	} {
		dir := t.TempDir()
		writeManifestEntries(t, dir, entries)
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
	dir := t.TempDir()
	writeManifestEntries(t, dir, []manifestEntry{ok, {Name: "b", File: "obj-1000000.bin"}})
	if _, err := Open(dir); err != nil {
		t.Errorf("valid manifest (7-digit sequence) rejected: %v", err)
	}
}

// FuzzOpen: Open never panics on arbitrary manifest bytes, and a
// manifest it accepts keeps every object inside the store: reading
// each object and then rewriting all of them touches no file outside
// the directory.
func FuzzOpen(f *testing.F) {
	seed := func(entries ...manifestEntry) []byte {
		raw, _ := json.Marshal(manifest{Version: storeVersion, Objects: entries})
		return raw
	}
	f.Add(seed(manifestEntry{Name: "meta", File: "obj-000001.bin", Size: 1},
		manifestEntry{Name: "graph", File: "obj-000002.bin"}))
	f.Add(seed(manifestEntry{Name: "meta", File: "../victim"}))
	f.Add(seed(manifestEntry{Name: "a", File: "obj-000001.bin"}, manifestEntry{Name: "a", File: "obj-000002.bin"}))
	f.Add(seed(manifestEntry{Name: "a", File: "obj-000001.bin", Size: -5}))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		victim := filepath.Join(root, "victim")
		if err := os.WriteFile(victim, []byte("v"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open error %v is not ErrCorrupt", err)
			}
			return
		}
		for name, e := range m.entries {
			if filepath.Dir(filepath.Join(dir, e.File)) != dir {
				t.Fatalf("accepted object %q lives at %q, outside the store", name, e.File)
			}
			m.Get(name) // missing object files are ErrCorrupt, never a panic
			m.Put(name, []byte("rewritten"))
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close of an accepted store: %v", err)
		}
		if _, err := os.Stat(victim); err != nil {
			t.Fatalf("file outside the store was removed: %v", err)
		}
	})
}
