package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dnnd/internal/metric"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// The golden determinism suite pins fixed-seed single-rank construction
// outcomes to literal values captured before the phase-engine refactor:
// message totals, per-handler sent counts and bytes, distance-eval
// counts, and a checksum of the gathered graph. Any structural change
// to the codec or phase layers that alters behavior — one byte on the
// wire, one extra message, one reordered RNG draw — fails here with the
// exact counter that moved. (Single rank because multi-rank arrival
// order is nondeterministic.)

// goldenOutcome is everything a scenario pins.
type goldenOutcome struct {
	Iters      int
	DistEvals  int64
	Tasks      int64
	Comm       MessageTotals
	GraphHash  uint64
	PerHandler map[string][2]int64 // name -> {SentMsgs, SentBytes}
}

// goldenBuild runs one fixed-seed build on a single-rank world and
// extracts the pinned quantities, including rank 0's per-handler
// counters keyed by registered handler name.
func goldenBuild[T wire.Scalar](t *testing.T, data [][]T, kind metric.Kind, cfg Config) goldenOutcome {
	t.Helper()
	kern, err := metric.KernelFor[T](kind)
	if err != nil {
		t.Fatal(err)
	}
	w := ygm.NewLocalWorld(1)
	var mu sync.Mutex
	var out goldenOutcome
	runErr := w.Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), c.NRanks())
		res, err := BuildKernel(c, shard, kern, cfg)
		if err != nil {
			return err
		}
		st := c.Stats()
		mu.Lock()
		defer mu.Unlock()
		out = goldenOutcome{
			Iters:      res.Iters,
			DistEvals:  res.DistEvals,
			Tasks:      res.TasksDeferred,
			Comm:       res.Comm,
			GraphHash:  graphHash(res),
			PerHandler: map[string][2]int64{},
		}
		for id, hs := range st.PerHandler {
			name := c.HandlerName(ygm.HandlerID(id))
			if hs.SentMsgs > 0 && name[0] != '_' {
				out.PerHandler[name] = [2]int64{hs.SentMsgs, hs.SentBytes}
			}
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// graphHash folds the gathered graph (vertex order, neighbor IDs,
// float32 distance bits, New flags) into one FNV-64a value.
func graphHash(res *Result) uint64 {
	h := fnv.New64a()
	var buf [13]byte
	for v := 0; v < res.Graph.NumVertices(); v++ {
		for _, e := range res.Graph.Neighbors[v] {
			put32 := func(off int, x uint32) {
				buf[off] = byte(x)
				buf[off+1] = byte(x >> 8)
				buf[off+2] = byte(x >> 16)
				buf[off+3] = byte(x >> 24)
			}
			put32(0, uint32(v))
			put32(4, e.ID)
			put32(8, math.Float32bits(e.Dist))
			buf[12] = 0
			if e.New {
				buf[12] = 1
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// goldenData is the fixed dataset shared by the scenarios.
func goldenData() ([][]float32, [][]uint8) {
	rng := rand.New(rand.NewSource(99))
	fdata := clusteredData(rng, 300, 12, 8)
	udata := make([][]uint8, 240)
	for i := range udata {
		v := make([]uint8, 24)
		for j := range v {
			v[j] = uint8(rng.Intn(256))
		}
		udata[i] = v
	}
	return fdata, udata
}

func goldenConfig(k int) Config {
	cfg := DefaultConfig(k)
	cfg.Seed = 12345
	cfg.Optimize = true
	return cfg
}

func TestGoldenDeterminism(t *testing.T) {
	fdata, udata := goldenData()

	scenarios := []struct {
		name  string
		build func(t *testing.T) goldenOutcome
	}{
		{"sql2-optimized", func(t *testing.T) goldenOutcome {
			return goldenBuild(t, fdata, metric.SquaredL2, goldenConfig(6))
		}},
		{"sql2-twosided", func(t *testing.T) goldenOutcome {
			cfg := goldenConfig(6)
			cfg.Protocol = Unoptimized()
			return goldenBuild(t, fdata, metric.SquaredL2, cfg)
		}},
		{"hamming-uint8", func(t *testing.T) goldenOutcome {
			return goldenBuild(t, udata, metric.Hamming, goldenConfig(6))
		}},
		// Cosine pins the norm-precomputed fused kernel (Kernel.FnPre).
		{"cosine-optimized", func(t *testing.T) goldenOutcome {
			return goldenBuild(t, fdata, metric.Cosine, goldenConfig(6))
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.build(t)
			names := make([]string, 0, len(got.PerHandler))
			for n := range got.PerHandler {
				names = append(names, n)
			}
			sort.Strings(names)
			t.Logf("golden[%q] = %#v", sc.name, got)
			for _, n := range names {
				t.Logf("  handler %-18s msgs=%d bytes=%d", n, got.PerHandler[n][0], got.PerHandler[n][1])
			}
			want, ok := goldenExpected[sc.name]
			if !ok {
				t.Fatalf("no golden entry for %q — capture the logged values", sc.name)
			}
			assertGolden(t, got, want)
		})
	}
}

func assertGolden(t *testing.T, got goldenOutcome, want goldenOutcome) {
	t.Helper()
	if got.Iters != want.Iters {
		t.Errorf("Iters = %d, want %d", got.Iters, want.Iters)
	}
	if got.DistEvals != want.DistEvals {
		t.Errorf("DistEvals = %d, want %d", got.DistEvals, want.DistEvals)
	}
	if got.Tasks != want.Tasks {
		t.Errorf("TasksDeferred = %d, want %d", got.Tasks, want.Tasks)
	}
	if got.Comm != want.Comm {
		t.Errorf("Comm totals = %+v,\nwant %+v", got.Comm, want.Comm)
	}
	if got.GraphHash != want.GraphHash {
		t.Errorf("graph hash = %#x, want %#x", got.GraphHash, want.GraphHash)
	}
	for name, w := range want.PerHandler {
		g, ok := got.PerHandler[name]
		if !ok {
			t.Errorf("handler %q missing (have %v)", name, handlerNames(got.PerHandler))
			continue
		}
		if g != w {
			t.Errorf("handler %q = {msgs %d, bytes %d}, want {msgs %d, bytes %d}",
				name, g[0], g[1], w[0], w[1])
		}
	}
	for name := range got.PerHandler {
		if _, ok := want.PerHandler[name]; !ok {
			t.Errorf("unexpected traffic on handler %q: %v", name, got.PerHandler[name])
		}
	}
}

func handlerNames(m map[string][2]int64) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// goldenExpected holds the values captured before the phase-engine
// refactor (PR 3); the refactor must reproduce them bit-for-bit.
// Handler names are the phase-qualified names of the new registration
// path; the counters predate it (captured under the old flat names,
// which map 1:1: nd.initreq -> nd.init.req, nd.revold ->
// nd.reverse.old, nd.type1 -> nd.check.type1, nd.optedge ->
// nd.opt.edge, nd.gather -> nd.gather.row, and so on).
var goldenExpected = map[string]goldenOutcome{
	"sql2-optimized": {
		Iters: 6, DistEvals: 28059, Tasks: 7456,
		Comm: MessageTotals{
			Type1Msgs: 30632, Type1Bytes: 428848,
			Type2Msgs: 26259, Type2Bytes: 1864389,
			Type3Msgs: 12109, Type3Bytes: 217962,
			InitMsgs: 3600, InitBytes: 151200,
			RevMsgs: 10272, RevBytes: 143808,
			OptMsgs: 1800, OptBytes: 32400,
			TotalMsgs: 84972, TotalBytes: 2860767,
			CheckMsgs: 69000, CheckBytes: 2511199,
		},
		GraphHash: 0xb295072a45d651a9,
		PerHandler: map[string][2]int64{
			"nd.init.req":    {1800, 118800},
			"nd.init.resp":   {1800, 32400},
			"nd.reverse.old": {5545, 77630},
			"nd.reverse.new": {4727, 66178},
			"nd.check.type1": {30632, 428848},
			"nd.check.type2": {26259, 1864389},
			"nd.check.type3": {12109, 217962},
			"nd.opt.edge":    {1800, 32400},
			"nd.gather.row":  {300, 22160},
		},
	},
	"sql2-twosided": {
		Iters: 6, DistEvals: 63572, Tasks: 63008,
		Comm: MessageTotals{
			Type1Msgs: 61772, Type1Bytes: 864808,
			Type2Msgs: 61772, Type2Bytes: 4138724,
			Type3Msgs: 0, Type3Bytes: 0,
			InitMsgs: 3600, InitBytes: 151200,
			RevMsgs: 10268, RevBytes: 143752,
			OptMsgs: 1800, OptBytes: 32400,
			TotalMsgs: 139512, TotalBytes: 5352924,
			CheckMsgs: 123544, CheckBytes: 5003532,
		},
		GraphHash: 0x178f6ce97e74a54e,
		PerHandler: map[string][2]int64{
			"nd.init.req":    {1800, 118800},
			"nd.init.resp":   {1800, 32400},
			"nd.reverse.old": {5514, 77196},
			"nd.reverse.new": {4754, 66556},
			"nd.check.type1": {61772, 864808},
			"nd.check.type2": {61772, 4138724},
			"nd.opt.edge":    {1800, 32400},
			"nd.gather.row":  {300, 22040},
		},
	},
	"hamming-uint8": {
		Iters: 6, DistEvals: 19809, Tasks: 4324,
		Comm: MessageTotals{
			Type1Msgs: 19034, Type1Bytes: 266476,
			Type2Msgs: 18369, Type2Bytes: 863343,
			Type3Msgs: 888, Type3Bytes: 15984,
			InitMsgs: 2880, InitBytes: 86400,
			RevMsgs: 8333, RevBytes: 116662,
			OptMsgs: 1440, OptBytes: 25920,
			TotalMsgs: 51184, TotalBytes: 1392929,
			CheckMsgs: 38291, CheckBytes: 1145803,
		},
		GraphHash: 0x6cd054684630dcaa,
		PerHandler: map[string][2]int64{
			"nd.init.req":    {1440, 60480},
			"nd.init.resp":   {1440, 25920},
			"nd.reverse.old": {5759, 80626},
			"nd.reverse.new": {2574, 36036},
			"nd.check.type1": {19034, 266476},
			"nd.check.type2": {18369, 863343},
			"nd.check.type3": {888, 15984},
			"nd.opt.edge":    {1440, 25920},
			"nd.gather.row":  {240, 18144},
		},
	},
	// Captured at the last commit that still carried the map-based
	// reference build, which produced this same outcome field for field
	// (PR 19).
	"cosine-optimized": {
		Iters: 6, DistEvals: 27814, Tasks: 7418,
		Comm: MessageTotals{
			Type1Msgs: 30479, Type1Bytes: 426706,
			Type2Msgs: 26014, Type2Bytes: 1846994,
			Type3Msgs: 12087, Type3Bytes: 217566,
			InitMsgs: 3600, InitBytes: 151200,
			RevMsgs: 10270, RevBytes: 143780,
			OptMsgs: 1800, OptBytes: 32400,
			TotalMsgs: 84550, TotalBytes: 2840846,
			CheckMsgs: 68580, CheckBytes: 2491266,
		},
		GraphHash: 0x368d67741ec5e8bf,
		PerHandler: map[string][2]int64{
			"nd.init.req":    {1800, 118800},
			"nd.init.resp":   {1800, 32400},
			"nd.reverse.old": {5555, 77770},
			"nd.reverse.new": {4715, 66010},
			"nd.check.type1": {30479, 426706},
			"nd.check.type2": {26014, 1846994},
			"nd.check.type3": {12087, 217566},
			"nd.opt.edge":    {1800, 32400},
			"nd.gather.row":  {300, 22200},
		},
	},
}
