// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (Section 5), plus ablations of the
// design choices DESIGN.md calls out. Each runner returns a structured
// result and renders the same rows/series the paper reports as a
// markdown table, so `dnnd-bench <exp>` regenerates the artifacts.
//
// Scale note: the paper's billion-point runs are replaced by scaled
// synthetic datasets (see internal/dataset); runners report both the
// paper's configuration and the scaled one in their output. Every rank
// of a construction runs in one process, so wall time shows the host's
// cores, not the paper's nodes; the scaling experiment (Figure 3)
// prints measured, hardware-independent counters beside it — distance
// evaluations, remote messages and bytes, and bytes sent per rank.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dnnd/internal/brute"
	"dnnd/internal/core"
	"dnnd/internal/dataset"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/recall"
	"dnnd/internal/search"
	"dnnd/internal/wire"
)

// Options configures the harness.
type Options struct {
	// Out receives the rendered report (defaults to io.Discard).
	Out io.Writer
	// Seed drives dataset generation and algorithm sampling.
	Seed int64
	// Quick shrinks datasets and sweeps for smoke tests.
	Quick bool
	// Entries overrides the per-dataset point count (0 = experiment
	// default, which already accounts for Quick).
	Entries int
	// Queries is the query-set size (0 = default).
	Queries int
}

func (o *Options) fill() {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// billionEntries is the scaled stand-in size for the two
// billion-point datasets in non-quick runs.
const billionEntries = 10000

func (o *Options) billionN() int {
	if o.Entries > 0 {
		return o.Entries
	}
	if o.Quick {
		return 1500
	}
	return billionEntries
}

func (o *Options) smallN(p dataset.Preset) int {
	if o.Entries > 0 {
		return o.Entries
	}
	if o.Quick {
		return 600
	}
	return p.DefaultEntries
}

func (o *Options) queryN() int {
	if o.Queries > 0 {
		return o.Queries
	}
	if o.Quick {
		return 100
	}
	return 1000
}

// BuildOut bundles one DNND construction's artifacts: rank 0's
// Result with the gathered graph, each rank's counters and their
// aggregate, and the build's wall time.
type BuildOut struct {
	*core.LocalBuild
	Wall time.Duration
}

// BuildDNND constructs a k-NNG from a generated dataset over `ranks`
// simulated ranks, dispatching on the dataset's element type.
func BuildDNND(d *dataset.Data, ranks int, cfg core.Config) (*BuildOut, error) {
	switch d.Preset.Elem {
	case dataset.ElemFloat32:
		return buildTyped(d.F32, d.Preset.Metric, ranks, cfg, nil)
	case dataset.ElemUint8:
		return buildTyped(d.U8, d.Preset.Metric, ranks, cfg, nil)
	default:
		return buildTyped(d.U32, d.Preset.Metric, ranks, cfg, nil)
	}
}

// buildTyped runs a DNND construction through core.BuildLocal, warm
// started from prior when it is non-nil.
func buildTyped[T wire.Scalar](data [][]T, kind metric.Kind, ranks int, cfg core.Config, prior *knng.Graph) (*BuildOut, error) {
	if kind == metric.L2 {
		// Construction compares distances only; squared L2 gives the
		// same graph cheaper (both the paper's L2 datasets qualify).
		kind = metric.SquaredL2
	}
	kern, err := metric.KernelFor[T](kind)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := core.BuildLocal(data, ranks, kern, cfg, prior, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return &BuildOut{LocalBuild: out, Wall: time.Since(start)}, nil
}

// TradeoffPoint is one (parameter, recall, throughput) sample of a
// quality/performance curve (Figure 2).
type TradeoffPoint struct {
	Param     float64 // epsilon for DNND, ef for HNSW
	Recall    float64
	QPS       float64
	DistEvals int64
}

// QueryCurveDNND sweeps epsilon over a built graph, measuring
// recall@k and query throughput (single-threaded, as relative measure).
func QueryCurveDNND(d *dataset.Data, g *knng.Graph, truth [][]knng.ID, queries *dataset.Data, k int, epsSweep []float64) ([]TradeoffPoint, error) {
	switch d.Preset.Elem {
	case dataset.ElemFloat32:
		return queryCurveTyped(d.F32, queries.F32, d.Preset.Metric, g, truth, k, epsSweep)
	case dataset.ElemUint8:
		return queryCurveTyped(d.U8, queries.U8, d.Preset.Metric, g, truth, k, epsSweep)
	default:
		return queryCurveTyped(d.U32, queries.U32, d.Preset.Metric, g, truth, k, epsSweep)
	}
}

func queryCurveTyped[T wire.Scalar](data, queries [][]T, kind metric.Kind, g *knng.Graph, truth [][]knng.ID, k int, epsSweep []float64) ([]TradeoffPoint, error) {
	if kind == metric.L2 {
		kind = metric.SquaredL2
	}
	dist, err := metric.For[T](kind)
	if err != nil {
		return nil, err
	}
	var out []TradeoffPoint
	for _, eps := range epsSweep {
		start := time.Now()
		res, st := search.Batch(g, data, dist, queries, search.Options{L: k, Epsilon: eps, Seed: 7}, 1)
		wall := time.Since(start)
		out = append(out, TradeoffPoint{
			Param:     eps,
			Recall:    recall.AtK(search.IDs(res), truth, k),
			QPS:       float64(len(queries)) / wall.Seconds(),
			DistEvals: st.DistEvals,
		})
	}
	return out, nil
}

// GroundTruth computes exact query neighbors for recall scoring.
func GroundTruth(d, queries *dataset.Data, k int) ([][]knng.ID, error) {
	switch d.Preset.Elem {
	case dataset.ElemFloat32:
		return truthTyped(d.F32, queries.F32, d.Preset.Metric, k)
	case dataset.ElemUint8:
		return truthTyped(d.U8, queries.U8, d.Preset.Metric, k)
	default:
		return truthTyped(d.U32, queries.U32, d.Preset.Metric, k)
	}
}

func truthTyped[T wire.Scalar](data, queries [][]T, kind metric.Kind, k int) ([][]knng.ID, error) {
	if kind == metric.L2 {
		kind = metric.SquaredL2
	}
	dist, err := metric.For[T](kind)
	if err != nil {
		return nil, err
	}
	return brute.TruthIDs(brute.QueryKNN(data, queries, k, dist, 0)), nil
}

// markdown table rendering ---------------------------------------------

type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table { return &table{headers: headers} }

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(t.headers))
		for i := range t.headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

func header(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "\n## "+format+"\n\n", args...)
}
