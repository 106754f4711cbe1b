package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dnnd"
	"dnnd/internal/vecio"
)

// TestMain lets a test re-run this binary as the dnnd-query command:
// with DNND_QUERY_MAIN=1 set, the process is main() with the given
// arguments, so exit status and output are observed exactly as a user
// would see them.
func TestMain(m *testing.M) {
	if os.Getenv("DNND_QUERY_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// floatStore saves a small float32 store of dimension dim.
func floatStore(t *testing.T, n, dim int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32(rng.NormFloat64())
		}
	}
	res, err := dnnd.Build(data, dnnd.BuildOptions{K: 4, Metric: "l2", Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := dnnd.NewIndex(res.Graph, data, res.Metric, res.K)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := dnnd.Save(dir, ix, true); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runQuery(t *testing.T, store string, queries [][]float32) (int, string, string) {
	t.Helper()
	qfile := filepath.Join(t.TempDir(), "q.fvecs")
	if err := vecio.WriteFvecsFile(qfile, queries); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-store", store, "-queries", qfile, "-l", "3")
	cmd.Env = append(os.Environ(), "DNND_QUERY_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// .fvecs records carry their own dimension, so a query file can
// disagree with the store row by row. A shorter query must not be
// scored against a prefix of each row, nor a longer one panic: both
// exit 1 with one line naming the query.
func TestQueryDimensionMismatchExits(t *testing.T) {
	store := floatStore(t, 60, 4)
	ok := []float32{0.1, 0.2, 0.3, 0.4}
	if code, out, errOut := runQuery(t, store, [][]float32{ok, ok}); code != 0 || !strings.Contains(out, "2 queries") {
		t.Fatalf("matching queries: exit %d\nstdout %q\nstderr %q", code, out, errOut)
	}
	for name, tc := range map[string]struct {
		queries [][]float32
		want    string
	}{
		"shorter": {[][]float32{ok, {1, 2, 3}}, "dnnd-query: query 1 has dimension 3, store has 4\n"},
		"longer":  {[][]float32{{1, 2, 3, 4, 5}, ok}, "dnnd-query: query 0 has dimension 5, store has 4\n"},
	} {
		code, _, errOut := runQuery(t, store, tc.queries)
		if code != 1 || errOut != tc.want {
			t.Errorf("%s: exit %d, stderr %q; want exit 1, stderr %q", name, code, errOut, tc.want)
		}
	}
}
