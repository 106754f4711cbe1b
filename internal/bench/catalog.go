package bench

import (
	"fmt"
	"strings"

	"dnnd/internal/dataset"
	"dnnd/internal/obs"
)

// CatalogRow is one handler's traffic in a representative run: the
// stable phase-qualified name pins the wire-protocol position, so rows
// are comparable across PRs even as internals move.
type CatalogRow struct {
	Name  string
	Phase string
	Msgs  int64
	Bytes int64
	Recv  int64
}

// MessageCatalog builds the deep stand-in over 4 ranks, then prints
// every construction message handler (nd.*) with its phase-qualified
// name and traffic. Zero-traffic handlers are listed too: a protocol
// leg that stops firing is as much a regression signal as one that
// doubles.
func MessageCatalog(opt Options) ([]CatalogRow, error) {
	opt.fill()
	const k = 10
	const ranks = 4
	p, err := dataset.ByName("deep")
	if err != nil {
		return nil, err
	}
	d := dataset.Generate(p, opt.billionN(), opt.Seed)

	out, err := BuildDNND(d, ranks, opt.coreConfig(k))
	if err != nil {
		return nil, err
	}

	var rows []CatalogRow
	for _, ms := range out.PerMessage {
		phase := ms.Name
		if i := strings.LastIndexByte(phase, '.'); i >= 0 {
			phase = phase[:i]
		}
		rows = append(rows, CatalogRow{
			Name: ms.Name, Phase: phase,
			Msgs: ms.SentMsgs, Bytes: ms.SentBytes, Recv: ms.RecvMsgs,
		})
	}

	header(opt.Out, "Message catalog: per-handler traffic (deep stand-in, %d ranks)", ranks)
	t := newTable("Message", "Phase", "Sent msgs", "Sent bytes", "Recv msgs")
	for _, r := range rows {
		t.row(r.Name, r.Phase, fmt.Sprint(r.Msgs), fmt.Sprint(r.Bytes), fmt.Sprint(r.Recv))
	}
	t.render(opt.Out)

	// The same rows in the shared registry text format (one
	// `name{labels} value` line per sample), so the catalog is directly
	// diffable against dnnd-serve's /metrics and a build's debug dump.
	reg := obs.NewRegistry()
	for i := range rows {
		r := rows[i]
		reg.Sample(fmt.Sprintf("dnnd_handler_sent_msgs{handler=%q}", r.Name), func() int64 { return r.Msgs })
		reg.Sample(fmt.Sprintf("dnnd_handler_sent_bytes{handler=%q}", r.Name), func() int64 { return r.Bytes })
		reg.Sample(fmt.Sprintf("dnnd_handler_recv_msgs{handler=%q}", r.Name), func() int64 { return r.Recv })
	}
	header(opt.Out, "Message catalog: registry text dump")
	reg.DumpText(opt.Out)
	return rows, nil
}
