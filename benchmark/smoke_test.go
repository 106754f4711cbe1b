package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

const manifestPath = "../BENCHMARK.json"

// TestManifest keeps BENCHMARK.json and spec.go one definition.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(describe(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(manifestPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from spec.go; run go test -run TestManifest -update", manifestPath)
	}
}

// TestSmoke runs every workload, untraced and traced, at -quick scale
// and checks that exactly the declared metrics come out, so a later
// change that moves a public function the benchmark calls, or renames a
// metric on one side only, fails here and not in the driver.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, runSeconds, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.report)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, d.Name)
				case v.Unit != d.Unit || !unitRE.MatchString(v.Unit) || !nameRE.MatchString(d.Name):
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, d.Name, v.Value)
				case idleOn(w, d.Name) && v.Value != 0:
					t.Errorf("%s: %s = %v on a workload declared idle for it", w.Name, d.Name, v.Value)
				}
			}
		}
	}
}
