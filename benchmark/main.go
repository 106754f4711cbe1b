// Command benchmark is the repository's benchmark: it runs one
// workload in one process, prints every metric by name with its unit,
// checks that the outputs are correct, and ends with the one-line JSON
// result BENCHMARK.json's contract asks for.
//
//	bash benchmark/run.sh --workload build-deep-r4 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -selfcheck -n 10
//
// spec.go is the definition (workloads, metrics, bounds); README.md
// says why they are what they are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir is where everything the benchmark writes goes, relative to
// the directory it is run from (the checkout root under run.sh).
const buildDir = ".bench_build"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 1, "seed for the generated inputs and the build")
		seconds   = flag.Int("seconds", runSeconds, "nominal measured seconds; scales the number of timed cycles")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
		quick     = flag.Bool("quick", false, "smoke-test scale: tiny inputs, one timed cycle")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two interleaved sets and compare them")
		n         = flag.Int("n", 5, "runs per set for -selfcheck")
	)
	flag.Parse()
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*n, *seconds)
	default:
		w, ok := workloadByName(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		var res *result
		if res, err = runWorkload(w, *seed, *seconds, *trace != 0, *quick); err == nil {
			res.print(os.Stdout)
			if !res.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	report string // the human-readable part, printed first
}

func (res *result) print(f *os.File) {
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // only NaN/Inf can fail, and emit rejects those
	}
	fmt.Fprintf(f, "%s%s\n", res.report, line)
}

// cyclesFor turns --seconds into the number of timed cycles: fixed
// work per cycle, nominalCycles of them at runSeconds.
func cyclesFor(seconds int) int {
	c := int(math.Round(float64(nominalCycles*seconds) / runSeconds))
	return max(c, 2)
}

// runWorkload runs one workload once and assembles its result.
func runWorkload(w workload, seed int64, seconds int, traced, quick bool) (*result, error) {
	procs := min(runtime.NumCPU(), clients)
	runtime.GOMAXPROCS(procs)
	cycles := cyclesFor(seconds)
	if quick {
		w, cycles, probeScale = w.quick(), 2, 50
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := newRunner(w, seed, cycles, tr, workDir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := r.run(); err != nil {
		return nil, err
	}

	var out strings.Builder
	fmt.Fprintf(&out, "workload %s seed %d trace %v quick %v: %s n=%d ranks=%d l=%d epsilon=%g cycles=1+%d GOMAXPROCS=%d wall=%.1fs\n",
		w.Name, seed, traced, quick, w.preset, w.n, w.ranks, w.l, w.epsilon, cycles, procs, time.Since(start).Seconds())
	if tr != nil {
		r.set("harness.self_s", tr.unattributed().Seconds())
		path := filepath.Join(buildDir, "trace-"+w.Name+".json")
		if err := tr.writeJSON(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(&out, "spans written to %s\n", path)
		tr.writeTable(&out)
	}
	for _, name := range r.sortedNames() {
		fmt.Fprintf(&out, "%-28s %16.6g %s\n", name, r.vals[name], unitOf(name))
	}
	for _, note := range r.notes {
		fmt.Fprintln(&out, "#", note)
	}
	fmt.Fprintf(&out, "ops_attempted %d ops_failed %d\n", r.attempted, r.failed)

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok && !idleOn(w, d.Name) {
			return nil, fmt.Errorf("workload %s did not measure %s", w.Name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	res.report = out.String()
	return res, nil
}

// idleOn reports whether the workload never enters the layer a metric
// belongs to, in which case the metric is emitted as 0.
func idleOn(w workload, metric string) bool {
	for _, prefix := range w.idle {
		if strings.HasPrefix(metric, prefix) {
			return true
		}
	}
	return false
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
