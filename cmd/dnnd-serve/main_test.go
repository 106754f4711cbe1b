package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

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
	mgr, err := metall.Create(dir)
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

// A missing or corrupt store must exit 1 with one "dnnd-serve: ..."
// line on stderr, never a nil-pointer goroutine dump.
func TestBadStoreExitsWithMessage(t *testing.T) {
	for name, args := range map[string][]string{
		"empty dir":        {"-store", t.TempDir()},
		"bad meta":         {"-store", badMetaStore(t)},
		"bad meta mutable": {"-store", badMetaStore(t), "-mutable"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DNND_SERVE_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: want exit status 1, got %v", name, err)
		}
		msg := stderr.String()
		if strings.Contains(msg, "panic:") {
			t.Errorf("%s: panicked:\n%s", name, msg)
		}
		if !strings.HasPrefix(msg, "dnnd-serve: ") || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
			t.Errorf("%s: want one dnnd-serve: line on stderr, got %q", name, msg)
		}
	}
}
