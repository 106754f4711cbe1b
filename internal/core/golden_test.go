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
// outcomes to literal values (goldenExpected says when they were
// taken): message totals, per-handler sent counts and bytes, distance-eval
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

// goldenExpected holds the pinned outcomes. At one rank every check
// pair is co-owned and checked in place, so the check handlers carry no
// traffic (any message on them fails as unexpected); the counts were
// re-pinned once when co-owned pairs stopped taking the Type 1/2/3
// protocol. The two-sided graph hash did not move then: each endpoint
// still takes the same distance, now evaluated once instead of twice.
// Tasks alone was re-pinned once more when init replies stopped being
// staged and were applied on arrival: every other field held.
var goldenExpected = map[string]goldenOutcome{
	"sql2-optimized": {
		Iters: 6, DistEvals: 28155, Tasks: 6791,
		Comm: MessageTotals{
			InitMsgs: 3600, InitBytes: 151200,
			RevMsgs: 10270, RevBytes: 143780,
			OptMsgs: 1800, OptBytes: 32400,
			TotalMsgs: 15970, TotalBytes: 349524,
		},
		GraphHash: 0xaaaca34bf39a6b12,
		PerHandler: map[string][2]int64{
			"nd.init.req":    {1800, 118800},
			"nd.init.resp":   {1800, 32400},
			"nd.reverse.old": {5509, 77126},
			"nd.reverse.new": {4761, 66654},
			"nd.opt.edge":    {1800, 32400},
			"nd.gather.row":  {300, 22144},
		},
	},
	"sql2-twosided": {
		Iters: 6, DistEvals: 32686, Tasks: 6893,
		Comm: MessageTotals{
			InitMsgs: 3600, InitBytes: 151200,
			RevMsgs: 10268, RevBytes: 143752,
			OptMsgs: 1800, OptBytes: 32400,
			TotalMsgs: 15968, TotalBytes: 349392,
		},
		GraphHash: 0x178f6ce97e74a54e,
		PerHandler: map[string][2]int64{
			"nd.init.req":    {1800, 118800},
			"nd.init.resp":   {1800, 32400},
			"nd.reverse.old": {5514, 77196},
			"nd.reverse.new": {4754, 66556},
			"nd.opt.edge":    {1800, 32400},
			"nd.gather.row":  {300, 22040},
		},
	},
	"hamming-uint8": {
		Iters: 5, DistEvals: 19149, Tasks: 3902,
		Comm: MessageTotals{
			InitMsgs: 2880, InitBytes: 86400,
			RevMsgs: 6893, RevBytes: 96502,
			OptMsgs: 1440, OptBytes: 25920,
			TotalMsgs: 11453, TotalBytes: 226878,
		},
		GraphHash: 0x80fd31795cfa744e,
		PerHandler: map[string][2]int64{
			"nd.init.req":    {1440, 60480},
			"nd.init.resp":   {1440, 25920},
			"nd.reverse.old": {4337, 60718},
			"nd.reverse.new": {2556, 35784},
			"nd.opt.edge":    {1440, 25920},
			"nd.gather.row":  {240, 18056},
		},
	},
	"cosine-optimized": {
		Iters: 6, DistEvals: 27643, Tasks: 6729,
		Comm: MessageTotals{
			InitMsgs: 3600, InitBytes: 151200,
			RevMsgs: 10266, RevBytes: 143724,
			OptMsgs: 1800, OptBytes: 32400,
			TotalMsgs: 15966, TotalBytes: 349532,
		},
		GraphHash: 0xc8d5fcbee572cd56,
		PerHandler: map[string][2]int64{
			"nd.init.req":    {1800, 118800},
			"nd.init.resp":   {1800, 32400},
			"nd.reverse.old": {5561, 77854},
			"nd.reverse.new": {4705, 65870},
			"nd.opt.edge":    {1800, 32400},
			"nd.gather.row":  {300, 22208},
		},
	},
}
