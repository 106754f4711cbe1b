package bench

import (
	"bytes"
	"strings"
	"testing"
)

func quickOpts(buf *bytes.Buffer) Options {
	return Options{Out: buf, Seed: 1, Quick: true}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table1(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	if rows[6].Name != "deep" || rows[6].PaperEntries != 1_000_000_000 {
		t.Errorf("deep row = %+v", rows[6])
	}
	out := buf.String()
	if !strings.Contains(out, "fashion-mnist") || !strings.Contains(out, "jaccard") {
		t.Errorf("report missing expected content:\n%s", out)
	}
}

func TestSec52Recall(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Sec52Recall(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 small datasets", len(rows))
	}
	// The paper reports >= 0.93 everywhere and >= 0.99 on most sets;
	// at quick scale every preset read 0.97-0.99 over seeds 1-5.
	for _, r := range rows {
		if r.Recall < 0.96 {
			t.Errorf("%s: recall %.3f, want >= 0.96", r.Dataset, r.Recall)
		}
		if r.Iters < 1 {
			t.Errorf("%s: no descent rounds", r.Dataset)
		}
	}
}

func TestFig4CommSaving(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig4CommSaving(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byDataset := map[string][]Fig4Row{}
	for _, r := range rows {
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	for name, rs := range byDataset {
		if rs[0].Protocol != "unoptimized" || rs[1].Protocol != "optimized" {
			t.Fatalf("%s: row order %v", name, rs)
		}
		// The paper's "~50 %" on both axes. Over seeds 1-5 the message
		// ratio read 0.55 and the byte ratio 0.48-0.50 on both
		// datasets; the bands leave about 0.04 on each side.
		if r := rs[1].MsgRatio; r < 0.50 || r > 0.60 {
			t.Errorf("%s: optimized msg ratio %.3f, want 0.50-0.60", name, r)
		}
		if r := rs[1].ByteRatio; r < 0.44 || r > 0.54 {
			t.Errorf("%s: optimized byte ratio %.3f, want 0.44-0.54", name, r)
		}
		// Unoptimized flow has no Type 3 messages.
		if rs[0].Type3 != 0 {
			t.Errorf("%s: unoptimized run sent %d Type3 msgs", name, rs[0].Type3)
		}
		if rs[1].Type3 == 0 {
			t.Errorf("%s: optimized run sent no Type3 msgs", name)
		}
	}
	// BigANN bytes must be smaller than DEEP's (uint8 vs float32), as
	// in Figure 4b.
	if byDataset["bigann"][1].Bytes >= byDataset["deep"][1].Bytes {
		t.Errorf("bigann bytes %d not below deep bytes %d",
			byDataset["bigann"][1].Bytes, byDataset["deep"][1].Bytes)
	}
}

func TestFig2QualityTradeoff(t *testing.T) {
	var buf bytes.Buffer
	series, err := Fig2QualityTradeoff(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: 2 DNND k values + 1 HNSW config per dataset.
	if len(series) != 6 {
		t.Fatalf("%d series, want 6", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Errorf("series %s/%s empty", s.Dataset, s.Label)
		}
		for _, p := range s.Points {
			if p.Recall < 0 || p.Recall > 1 || p.QPS <= 0 {
				t.Errorf("series %s/%s bad point %+v", s.Dataset, s.Label, p)
			}
		}
	}
	// Larger k must not hurt best-achievable recall (DNND k10 >= k5).
	best := map[string]float64{}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Recall > best[s.Dataset+s.Label] {
				best[s.Dataset+s.Label] = p.Recall
			}
		}
	}
	if best["deepDNND k10"]+0.02 < best["deepDNND k5"] {
		t.Errorf("k10 best recall %.3f well below k5 %.3f", best["deepDNND k10"], best["deepDNND k5"])
	}
}

func TestFig3Construction(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig3Construction(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// Quick: per dataset 3 DNND rank counts + 1 HNSW row.
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Wall <= 0 {
			t.Errorf("row %+v has no wall time", r)
		}
	}
	for _, r := range rows {
		if !strings.HasPrefix(r.System, "DNND") {
			continue
		}
		if len(r.PerRank) != r.Ranks {
			t.Fatalf("%s %s R=%d: %d per-rank stats", r.Dataset, r.System, r.Ranks, len(r.PerRank))
		}
		if r.Ranks == 1 && (r.Stats.RemoteSentMsgs != 0 || r.Stats.RemoteSentBytes != 0) {
			t.Errorf("%s %s R=1: remote msgs %d bytes %d, want 0",
				r.Dataset, r.System, r.Stats.RemoteSentMsgs, r.Stats.RemoteSentBytes)
		}
		var msgs int64
		for _, s := range r.PerRank {
			msgs += s.SentMsgs
		}
		if msgs != r.Msgs {
			t.Errorf("%s %s R=%d: per-rank sent msgs sum to %d, Result.Comm.TotalMsgs = %d",
				r.Dataset, r.System, r.Ranks, msgs, r.Msgs)
		}
		maxBytes, meanBytes := r.RankBytes()
		if meanBytes <= 0 || float64(maxBytes) < meanBytes {
			t.Errorf("%s %s R=%d: bytes per rank max %d mean %.1f, want max >= mean > 0",
				r.Dataset, r.System, r.Ranks, maxBytes, meanBytes)
		}
	}
}

func TestTable2HnswSurvey(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table2HnswSurvey(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 { // quick: 2x2 grid x 2 datasets
		t.Fatalf("%d rows, want 8", len(res.Rows))
	}
	labels := map[string]bool{}
	for _, r := range res.Rows {
		if r.Label != "" {
			labels[r.Label] = true
		}
		if r.BuildWall <= 0 {
			t.Errorf("row %+v lacks build time", r)
		}
	}
	// The best-quality labels must always be assigned.
	hasB := false
	hasD := false
	for l := range labels {
		if strings.Contains(l, "Hnsw B") {
			hasB = true
		}
		if strings.Contains(l, "Hnsw D") {
			hasD = true
		}
	}
	if !hasB || !hasD {
		t.Errorf("best-quality labels missing: %v", labels)
	}
	if res.DNNDRecallK10["deep"] <= 0.5 {
		t.Errorf("DNND baseline recall %.3f suspiciously low", res.DNNDRecallK10["deep"])
	}
}

func TestBatchSizeAblation(t *testing.T) {
	var buf bytes.Buffer
	rows, err := BatchSizeAblation(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Barriers <= rows[1].Barriers {
		t.Errorf("smaller batch should mean more barriers: %+v", rows)
	}
	// What the batch bounds is the memory in flight: over seeds 1-5,
	// batch 1 024 peaked at about 1/45 of batch 65 536's mailbox bytes.
	if 10*rows[0].PeakMailboxBytes > rows[1].PeakMailboxBytes {
		t.Errorf("peak mailbox bytes %d at batch %d, want <= 1/10 of %d at batch %d",
			rows[0].PeakMailboxBytes, rows[0].BatchSize, rows[1].PeakMailboxBytes, rows[1].BatchSize)
	}
}

func TestGraphOptAblation(t *testing.T) {
	var buf bytes.Buffer
	rows, err := GraphOptAblation(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	raw, opt := rows[0], rows[1]
	if opt.SymRatio <= raw.SymRatio {
		t.Errorf("optimization did not raise symmetrization: %.2f -> %.2f", raw.SymRatio, opt.SymRatio)
	}
	if opt.Recall+0.05 < raw.Recall {
		t.Errorf("optimization hurt recall: %.3f -> %.3f", raw.Recall, opt.Recall)
	}
}

func TestCommSavingAblation(t *testing.T) {
	var buf bytes.Buffer
	rows, err := CommSavingAblation(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Full optimization must send the fewest bytes of all variants.
	full := rows[3]
	for _, r := range rows[:3] {
		if full.Bytes >= r.Bytes {
			t.Errorf("full protocol bytes %d not below %q bytes %d", full.Bytes, r.Variant, r.Bytes)
		}
	}
	// Each technique must save at its measured strength, not only in
	// order. Over seeds 1-5: one-sided 47-48 % of two-sided bytes,
	// skip redundant 4.8-5.7 % of one-sided bytes, prune distant 29 % of
	// skip redundant's messages.
	saved := func(after, before int64) float64 { return 1 - float64(after)/float64(before) }
	if s := saved(rows[1].Bytes, rows[0].Bytes); s < 0.40 {
		t.Errorf("one-sided saves %.3f of two-sided bytes, want >= 0.40", s)
	}
	if s := saved(rows[2].Bytes, rows[1].Bytes); s < 0.03 {
		t.Errorf("skip redundant saves %.3f of bytes, want >= 0.03", s)
	}
	if s := saved(rows[3].Msgs, rows[2].Msgs); s < 0.20 {
		t.Errorf("prune distant saves %.3f of messages, want >= 0.20", s)
	}
	// All variants must produce comparable quality.
	for _, r := range rows {
		if r.Recall < 0.7 {
			t.Errorf("%q recall %.3f too low", r.Variant, r.Recall)
		}
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tab := newTable("a", "long-header")
	tab.row("x", "1")
	tab.row("yyyy", "2")
	tab.render(&buf)
	out := buf.String()
	if !strings.Contains(out, "| a    | long-header |") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("%d lines, want 4", len(lines))
	}
}

func TestEntryPointAblation(t *testing.T) {
	var buf bytes.Buffer
	rows, err := EntryPointAblation(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	random, tree := rows[0], rows[1]
	if tree.Recall+0.05 < random.Recall {
		t.Errorf("rp-tree entries hurt recall: %.3f vs %.3f", tree.Recall, random.Recall)
	}
	if tree.DistEvals >= random.DistEvals {
		t.Errorf("rp-tree entries did not reduce evals: %d vs %d", tree.DistEvals, random.DistEvals)
	}
}

func TestIncrementalAblation(t *testing.T) {
	var buf bytes.Buffer
	rows, err := IncrementalAblation(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	cold, warm := rows[1], rows[2]
	if warm.DistEvals >= cold.DistEvals/2 {
		t.Errorf("warm refinement evals %d not well below cold %d", warm.DistEvals, cold.DistEvals)
	}
	if warm.Recall+0.05 < cold.Recall {
		t.Errorf("warm recall %.3f well below cold %.3f", warm.Recall, cold.Recall)
	}
}
