package bench

import (
	"fmt"
	"runtime"
	"time"

	"dnnd/internal/dataset"
	"dnnd/internal/ygm"
)

// Fig3Row is one construction measurement of Figure 3 / Table 3.
type Fig3Row struct {
	Dataset string
	System  string // "DNND k10" or "Hnsw A" ...
	Ranks   int    // "nodes"; 1 for HNSW
	// Wall is measured with every rank in this process, sharing the
	// host's cores.
	Wall time.Duration
	// The counters below are zero for HNSW rows.
	DistEvals int64       // Result.DistEvals
	Msgs      int64       // Result.Comm.TotalMsgs, self-sends included
	Stats     ygm.Stats   // world aggregate (remote messages and bytes)
	PerRank   []ygm.Stats // each rank's counters
}

// RankBytes returns the max and the mean over ranks of bytes sent per
// rank: the busiest rank's traffic and, beside the mean, its imbalance.
func (r Fig3Row) RankBytes() (maxBytes int64, meanBytes float64) {
	if len(r.PerRank) == 0 {
		return 0, 0
	}
	var sum int64
	for _, s := range r.PerRank {
		sum += s.SentBytes
		maxBytes = max(maxBytes, s.SentBytes)
	}
	return maxBytes, float64(sum) / float64(len(r.PerRank))
}

// Fig3Construction reproduces Figure 3 / Table 3: k-NNG construction
// time versus the number of "nodes" (ranks), for k = 10, 20, 30, on
// the two billion-scale stand-ins, against the Table 2 Hnswlib
// configurations built on one node. Every rank runs in this process,
// so wall time shows the host's cores, not the paper's nodes; the
// report therefore prints the measured, hardware-independent counters
// beside it: distance evaluations, remote messages and bytes, and the
// max and mean over ranks of bytes sent per rank.
func Fig3Construction(opt Options) ([]Fig3Row, error) {
	opt.fill()
	ks := []int{10, 20, 30}
	rankSets := map[int][]int{
		// Paper: k=10 from 4 nodes, k=20 from 8, k=30 from 16; we keep
		// the staggering but include smaller counts that fit memory.
		10: {1, 2, 4, 8, 16},
		20: {2, 4, 8, 16},
		30: {4, 8, 16},
	}
	hnswCfgs := map[string][]struct {
		label  string
		m, efc int
	}{
		"deep":   {{"Hnsw A", 64, 50}, {"Hnsw B", 64, 200}},
		"bigann": {{"Hnsw C", 32, 25}, {"Hnsw D", 64, 200}},
	}
	if opt.Quick {
		ks = []int{5}
		rankSets = map[int][]int{5: {1, 2, 4}}
		hnswCfgs = map[string][]struct {
			label  string
			m, efc int
		}{
			"deep":   {{"Hnsw A", 8, 25}},
			"bigann": {{"Hnsw C", 8, 25}},
		}
	}

	var rows []Fig3Row
	for _, name := range []string{"deep", "bigann"} {
		p, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		d := dataset.Generate(p, opt.billionN(), opt.Seed)

		for _, k := range ks {
			for _, ranks := range rankSets[k] {
				cfg := opt.coreConfig(k)
				cfg.Seed = opt.Seed
				out, err := BuildDNND(d, ranks, cfg)
				if err != nil {
					return nil, fmt.Errorf("bench: %s k=%d ranks=%d: %w", name, k, ranks, err)
				}
				rows = append(rows, Fig3Row{
					Dataset:   name,
					System:    fmt.Sprintf("DNND k%d", k),
					Ranks:     ranks,
					Wall:      out.Wall,
					DistEvals: out.Result.DistEvals,
					Msgs:      out.Result.Comm.TotalMsgs,
					Stats:     out.Stats,
					PerRank:   out.PerRank,
				})
			}
		}

		for _, hc := range hnswCfgs[name] {
			run, err := RunHNSW(d, d, nil, 1, hc.m, hc.efc, nil, opt.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig3Row{
				Dataset: name, System: hc.label, Ranks: 1,
				Wall: run.BuildWall,
			})
		}
	}

	header(opt.Out, "Figure 3 / Table 3: k-NNG construction vs nodes (ranks)")
	fmt.Fprintf(opt.Out, "Wall is in-process: every rank shares one host with %d cores (GOMAXPROCS %d).\n"+
		"Remote counts exclude a rank's messages to itself; bytes per rank include them.\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, name := range []string{"deep", "bigann"} {
		plot := asciiPlot{
			Title:  fmt.Sprintf("Figure 3 (%s): nodes (x, log) vs max bytes sent per rank (y, log)", name),
			XLabel: "nodes", YLabel: "MB", LogX: true, LogY: true,
		}
		bySystem := map[string]*plotSeries{}
		var order []string
		for _, r := range rows {
			maxBytes, _ := r.RankBytes()
			if r.Dataset != name || maxBytes <= 0 {
				continue
			}
			s, ok := bySystem[r.System]
			if !ok {
				s = &plotSeries{Label: r.System}
				bySystem[r.System] = s
				order = append(order, r.System)
			}
			s.Points = append(s.Points, [2]float64{float64(r.Ranks), float64(maxBytes) / 1e6})
		}
		for _, sys := range order {
			plot.Series = append(plot.Series, *bySystem[sys])
		}
		plot.render(opt.Out)
	}
	t := newTable("Dataset", "System", "Nodes", "Wall (in-process)", "Dist evals",
		"Remote msgs", "Remote MB", "Max MB/rank", "Mean MB/rank")
	for _, r := range rows {
		if r.PerRank == nil {
			t.row(r.Dataset, r.System, fmt.Sprint(r.Ranks), secs(r.Wall), "-", "-", "-", "-", "-")
			continue
		}
		maxBytes, meanBytes := r.RankBytes()
		t.row(r.Dataset, r.System, fmt.Sprint(r.Ranks), secs(r.Wall), fmt.Sprint(r.DistEvals),
			fmt.Sprint(r.Stats.RemoteSentMsgs), mb(float64(r.Stats.RemoteSentBytes)),
			mb(float64(maxBytes)), mb(meanBytes))
	}
	t.render(opt.Out)
	return rows, nil
}

func mb(bytes float64) string { return fmt.Sprintf("%.1f", bytes/1e6) }
