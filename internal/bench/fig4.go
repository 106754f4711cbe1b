package bench

import (
	"fmt"

	"dnnd/internal/core"
	"dnnd/internal/dataset"
)

// Fig4Row is one (dataset, protocol) message-accounting measurement.
type Fig4Row struct {
	Dataset   string
	Protocol  string // "unoptimized" | "optimized"
	Type1     int64
	Type2     int64 // Type 2 (unoptimized) or Type 2+ (optimized)
	Type3     int64
	Msgs      int64 // neighbor-check total
	Bytes     int64
	MsgRatio  float64 // vs the unoptimized row of the same dataset
	ByteRatio float64
}

// Fig4CommSaving reproduces Figure 4: the number (4a) and byte volume
// (4b) of neighbor-check messages with and without the Section 4.3
// communication-saving techniques, k=10 on the two billion-scale
// stand-ins. The paper reports roughly 50% reductions on both axes;
// BigANN's bytes are smaller than DEEP's because its vectors are uint8.
func Fig4CommSaving(opt Options) ([]Fig4Row, error) {
	opt.fill()
	const k = 10
	ranks := 16
	if opt.Quick {
		ranks = 4
	}

	var rows []Fig4Row
	for _, name := range []string{"deep", "bigann"} {
		p, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		d := dataset.Generate(p, opt.billionN(), opt.Seed)

		var unopt Fig4Row
		for _, mode := range []string{"unoptimized", "optimized"} {
			cfg := core.DefaultConfig(k)
			cfg.Seed = opt.Seed
			cfg.Optimize = false
			if mode == "unoptimized" {
				cfg.Protocol = core.Unoptimized()
			}
			out, err := BuildDNND(d, ranks, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: fig4 %s %s: %w", name, mode, err)
			}
			c := out.Result.Comm
			row := Fig4Row{
				Dataset:  name,
				Protocol: mode,
				Type1:    c.Type1Msgs,
				Type2:    c.Type2Msgs,
				Type3:    c.Type3Msgs,
				Msgs:     c.CheckMsgs,
				Bytes:    c.CheckBytes,
			}
			if mode == "unoptimized" {
				unopt = row
				row.MsgRatio, row.ByteRatio = 1, 1
			} else {
				row.MsgRatio = float64(row.Msgs) / float64(unopt.Msgs)
				row.ByteRatio = float64(row.Bytes) / float64(unopt.Bytes)
			}
			rows = append(rows, row)
		}
	}

	header(opt.Out, "Figure 4: neighbor-check communication, unoptimized vs optimized (paper: ~50%% reduction)")
	t := newTable("Dataset", "Protocol", "Type1", "Type2(+)", "Type3", "Msgs", "Bytes", "Msg ratio", "Byte ratio")
	for _, r := range rows {
		t.row(r.Dataset, r.Protocol,
			fmt.Sprint(r.Type1), fmt.Sprint(r.Type2), fmt.Sprint(r.Type3),
			fmt.Sprint(r.Msgs), fmt.Sprint(r.Bytes), f2(r.MsgRatio), f2(r.ByteRatio))
	}
	t.render(opt.Out)
	return rows, nil
}
