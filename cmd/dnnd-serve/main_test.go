package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"dnnd"
	"dnnd/internal/metall"
)

// TestMain lets a test re-run this binary as the dnnd-serve command:
// with DNND_SERVE_MAIN=1 set, the process is main() with the given
// arguments, so exit status and stderr are observed exactly as a user
// would see them.
func TestMain(m *testing.M) {
	if os.Getenv("DNND_SERVE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// badMetaStore writes a datastore whose metadata names float32 but an
// unknown format version: StoreElem accepts it, every loader rejects it.
func badMetaStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	mgr, err := metall.OpenOrCreate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Put("meta", []byte(`{"version":99,"elem":"float32"}`)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dirtyStore writes a valid store with one tombstoned point: only a
// mutable server may open it.
func dirtyStore(t *testing.T) string {
	t.Helper()
	data := [][]float32{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	g := &dnnd.Graph{Neighbors: make([][]dnnd.Neighbor, len(data))}
	for v := range g.Neighbors {
		g.Neighbors[v] = []dnnd.Neighbor{{ID: dnnd.ID((v + 1) % len(data)), Dist: 1}}
	}
	ix, err := dnnd.NewIndex(g, data, "sql2", 1)
	if err != nil {
		t.Fatal(err)
	}
	tombs := dnnd.NewTombstones(len(data))
	tombs.Kill(2)
	dir := t.TempDir()
	if err := dnnd.SaveMutable(dir, ix, false, nil, tombs, 1); err != nil {
		t.Fatal(err)
	}
	return dir
}

// A missing, corrupt or (without -mutable) dirty store must exit 1
// with one "dnnd-serve: ..." line on stderr, never a nil-pointer
// goroutine dump.
func TestBadStoreExitsWithMessage(t *testing.T) {
	for name, args := range map[string][]string{
		"empty dir":        {"-store", t.TempDir()},
		"bad meta":         {"-store", badMetaStore(t)},
		"bad meta mutable": {"-store", badMetaStore(t), "-mutable"},
		"dirty frozen":     {"-store", dirtyStore(t), "-addr", "127.0.0.1:0"},
	} {
		// A store the server wrongly accepts would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DNND_SERVE_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: want exit status 1, got %v", name, err)
		}
		msg := stderr.String()
		if strings.Contains(msg, "panic:") {
			t.Errorf("%s: panicked:\n%s", name, msg)
		}
		if name == "dirty frozen" && !strings.Contains(msg, "pending mutations") {
			t.Errorf("%s: want a pending-mutations refusal, got %q", name, msg)
		}
		if !strings.HasPrefix(msg, "dnnd-serve: ") || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
			t.Errorf("%s: want one dnnd-serve: line on stderr, got %q", name, msg)
		}
	}
}
