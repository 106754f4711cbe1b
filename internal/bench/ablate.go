package bench

import (
	"fmt"
	"time"

	"dnnd/internal/core"
	"dnnd/internal/dataset"
)

// BatchRow is one batch-size ablation measurement (Section 4.4).
type BatchRow struct {
	BatchSize int64
	Wall      time.Duration
	Barriers  int64
	Msgs      int64
	// PeakMailbox counts the deepest inbound queue observed on any
	// rank — the congestion the batching technique bounds.
	PeakMailbox      int64
	PeakMailboxBytes int64
}

// BatchSizeAblation varies the Section 4.4 application-level batch
// size. Small batches spend time in barriers; huge batches let
// unbounded traffic pile up (on a real network: congestion — here:
// memory pressure and mailbox depth). The paper picks 2^25-2^29 at
// cluster scale; this scaled experiment shows the same U-shape cause.
func BatchSizeAblation(opt Options) ([]BatchRow, error) {
	opt.fill()
	sizes := []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 22}
	if opt.Quick {
		sizes = []int64{1 << 10, 1 << 16}
	}
	p, err := dataset.ByName("deep")
	if err != nil {
		return nil, err
	}
	d := dataset.Generate(p, opt.billionN(), opt.Seed)

	var rows []BatchRow
	for _, bs := range sizes {
		cfg := core.DefaultConfig(10)
		cfg.Seed = opt.Seed
		cfg.Optimize = false
		cfg.BatchSize = bs
		out, err := BuildDNND(d, 4, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BatchRow{
			BatchSize:        bs,
			Wall:             out.Wall,
			Barriers:         out.Stats.Barriers,
			Msgs:             out.Stats.SentMsgs,
			PeakMailbox:      out.Stats.PeakMailboxDepth,
			PeakMailboxBytes: out.Stats.PeakMailboxBytes,
		})
	}

	header(opt.Out, "Ablation (Sec 4.4): communication batch size")
	t := newTable("Batch size", "Wall", "Barriers", "Messages", "Peak mailbox depth", "Peak mailbox MiB")
	for _, r := range rows {
		t.row(fmt.Sprint(r.BatchSize), secs(r.Wall), fmt.Sprint(r.Barriers), fmt.Sprint(r.Msgs),
			fmt.Sprint(r.PeakMailbox), f2(float64(r.PeakMailboxBytes)/(1<<20)))
	}
	t.render(opt.Out)
	return rows, nil
}

// GraphOptRow is one graph-optimization ablation measurement.
type GraphOptRow struct {
	Variant  string
	M        float64
	Recall   float64
	QPS      float64
	MaxDeg   int
	AvgDeg   float64
	SymRatio float64
}

// GraphOptAblation measures the effect of the Section 4.5 graph
// optimizations (reverse-edge merge + degree pruning) on query quality
// and speed, sweeping the prune factor m.
func GraphOptAblation(opt Options) ([]GraphOptRow, error) {
	opt.fill()
	const k = 10
	ms := []float64{1.0, 1.5, 2.0}
	if opt.Quick {
		ms = []float64{1.5}
	}
	p, err := dataset.ByName("deep")
	if err != nil {
		return nil, err
	}
	d := dataset.Generate(p, opt.billionN(), opt.Seed)
	queries := dataset.GenerateQueries(p, opt.queryN(), opt.Seed)
	truth, err := GroundTruth(d, queries, k)
	if err != nil {
		return nil, err
	}

	eval := func(variant string, m float64, out *BuildOut) (GraphOptRow, error) {
		pts, err := QueryCurveDNND(d, out.Graph, truth, queries, k, []float64{0.1})
		if err != nil {
			return GraphOptRow{}, err
		}
		return GraphOptRow{
			Variant:  variant,
			M:        m,
			Recall:   pts[0].Recall,
			QPS:      pts[0].QPS,
			MaxDeg:   out.Graph.MaxDegree(),
			AvgDeg:   out.Graph.AvgDegree(),
			SymRatio: out.Graph.SymmetrizationRatio(),
		}, nil
	}

	var rows []GraphOptRow
	// Raw graph (no Section 4.5).
	cfg := core.DefaultConfig(k)
	cfg.Seed = opt.Seed
	cfg.Optimize = false
	out, err := BuildDNND(d, 4, cfg)
	if err != nil {
		return nil, err
	}
	row, err := eval("raw", 0, out)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	for _, m := range ms {
		cfg := core.DefaultConfig(k)
		cfg.Seed = opt.Seed
		cfg.Optimize = true
		cfg.PruneFactor = m
		out, err := BuildDNND(d, 4, cfg)
		if err != nil {
			return nil, err
		}
		row, err := eval("optimized", m, out)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	header(opt.Out, "Ablation (Sec 4.5): reverse-edge merge + degree pruning")
	t := newTable("Variant", "m", "recall@10 (eps=0.1)", "QPS", "max deg", "avg deg", "sym ratio")
	for _, r := range rows {
		t.row(r.Variant, f2(r.M), f3(r.Recall), f2(r.QPS), fmt.Sprint(r.MaxDeg), f2(r.AvgDeg), f2(r.SymRatio))
	}
	t.render(opt.Out)
	return rows, nil
}

// CommAblRow is one protocol-variant measurement.
type CommAblRow struct {
	Variant string
	Msgs    int64
	Bytes   int64
	Recall  float64
}

// CommSavingAblation toggles the three Section 4.3 techniques one at a
// time, measuring neighbor-check traffic and resulting graph quality:
// one-sided communication alone halves Type 1/2 traffic but adds Type 3
// replies; redundant-check skipping and distance pruning then cut the
// Type 2+/Type 3 volume further.
func CommSavingAblation(opt Options) ([]CommAblRow, error) {
	opt.fill()
	const k = 10
	variants := []struct {
		name  string
		proto core.Protocol
	}{
		{"two-sided (Fig 1a)", core.TwoSided},
		{"one-sided only", core.OneSided},
		{"+ skip redundant", core.SkipRedundant},
		{"+ prune distant (full)", core.PruneDistant},
	}
	p, err := dataset.ByName("deep")
	if err != nil {
		return nil, err
	}
	d := dataset.Generate(p, opt.billionN(), opt.Seed)

	var rows []CommAblRow
	for _, v := range variants {
		cfg := core.DefaultConfig(k)
		cfg.Seed = opt.Seed
		cfg.Optimize = false
		cfg.Protocol = v.proto
		out, err := BuildDNND(d, 4, cfg)
		if err != nil {
			return nil, err
		}
		r, err := graphRecall(d, out.Graph, k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CommAblRow{
			Variant: v.name,
			Msgs:    out.Result.Comm.CheckMsgs,
			Bytes:   out.Result.Comm.CheckBytes,
			Recall:  r,
		})
	}

	header(opt.Out, "Ablation (Sec 4.3): which communication saving matters")
	t := newTable("Variant", "Check msgs", "Check bytes", "Graph recall")
	for _, r := range rows {
		t.row(r.Variant, fmt.Sprint(r.Msgs), fmt.Sprint(r.Bytes), f3(r.Recall))
	}
	t.render(opt.Out)
	return rows, nil
}
