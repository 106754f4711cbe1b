package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dnnd/internal/bootstrap"
	"dnnd/internal/metric"
	"dnnd/internal/msg"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// In an in-process world the vector-carrying messages travel by
// reference (builder.data). These tests hold that path against the
// byte path of the TCP transport, which exists anyway wherever bytes
// must, so the differential needs no second implementation.

type worldRunner func(fn func(rank int, c *ygm.Comm) error) error

func localRunner(nranks int) worldRunner {
	return func(fn func(rank int, c *ygm.Comm) error) error {
		return ygm.NewLocalWorld(nranks).Run(func(c *ygm.Comm) error { return fn(c.Rank(), c) })
	}
}

func tcpRunner(nranks int) worldRunner {
	return func(fn func(rank int, c *ygm.Comm) error) error { return bootstrap.RunLocal(nranks, fn) }
}

// pathOutcome is one build seen from outside: rank 0's result and
// every rank's comm counters.
type pathOutcome struct {
	res   *Result
	stats []ygm.Stats
}

func (o pathOutcome) total() ygm.Stats {
	var s ygm.Stats
	for _, st := range o.stats {
		s.Add(st)
	}
	return s
}

// runPath builds over the given world, every rank on its Partition
// shard of data.
func runPath(t *testing.T, run worldRunner, nranks int, data [][]float32, cfg Config) pathOutcome {
	t.Helper()
	out := pathOutcome{stats: make([]ygm.Stats, nranks)}
	var mu sync.Mutex
	err := run(func(rank int, c *ygm.Comm) error {
		res, err := Build(c, Partition(data, rank, nranks), metric.SquaredL2Float32, cfg)
		if err != nil {
			return err
		}
		stats := c.Stats()
		mu.Lock()
		defer mu.Unlock()
		out.stats[rank] = stats
		if rank == 0 {
			out.res = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func handlerStats(t *testing.T, s ygm.Stats, name string) ygm.HandlerStats {
	t.Helper()
	for _, hs := range s.PerHandler {
		if hs.Name == name {
			return hs
		}
	}
	t.Fatalf("no handler %q in stats", name)
	return ygm.HandlerStats{}
}

// (a) One rank, where the schedule is deterministic: the in-process
// by-reference build and the TCP byte build agree on the graph, the
// descent counters and EVERY field of ygm.Stats — per-handler
// messages and bytes (the Figure 4 quantities), flushes, mailbox
// high-water marks. This is the exact pin behind "charged, not
// materialized": nothing observable may tell the paths apart.
func TestByRefMatchesBytes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n, dim, cls int
	}{
		{"gist-like-960d", 240, 960, 6},
		{"deep-like-96d", 500, 96, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := clusteredData(rand.New(rand.NewSource(41)), tc.n, tc.dim, tc.cls)
			cfg := DefaultConfig(10)
			cfg.Seed = 5
			cfg.workers = envWorkers(t)
			ref := runPath(t, localRunner(1), 1, data, cfg)
			tcp := runPath(t, tcpRunner(1), 1, data, cfg)

			for _, other := range []struct {
				name string
				o    pathOutcome
			}{{"tcp", tcp}} {
				if g, w := graphHash(other.o.res), graphHash(ref.res); g != w {
					t.Errorf("%s: graph hash %016x, by-reference %016x", other.name, g, w)
				}
				if other.o.res.Iters != ref.res.Iters || other.o.res.DistEvals != ref.res.DistEvals {
					t.Errorf("%s: iters/evals %d/%d, by-reference %d/%d", other.name,
						other.o.res.Iters, other.o.res.DistEvals, ref.res.Iters, ref.res.DistEvals)
				}
				if other.o.res.Comm != ref.res.Comm {
					t.Errorf("%s: comm totals diverge:\n%+v\nby-reference\n%+v", other.name, other.o.res.Comm, ref.res.Comm)
				}
				if !reflect.DeepEqual(other.o.stats[0], ref.stats[0]) {
					t.Errorf("%s: ygm.Stats diverge:\n%+v\nby-reference\n%+v", other.name, other.o.stats[0], ref.stats[0])
				}
			}
			// At one rank the check phase sends nothing; the init requests
			// are the vector-carrying messages that still travel.
			st := ref.stats[0]
			if st.Flushes == 0 || st.PeakMailboxBytes == 0 || handlerStats(t, st, "nd.init.req").SentMsgs == 0 {
				t.Errorf("build too small to exercise the pinned counters: %+v", st)
			}
		})
	}
}

// (b) Four ranks: arrival order is free, so counts wander, but the
// charged size of a vector-carrying message is a constant of the
// protocol — record header + head + encoded vector — and must hold
// exactly, on the in-process by-reference path and on the TCP byte
// path, at any rank count. Quality must not depend on the path either.
func TestByRefChargedSizesMultiRank(t *testing.T) {
	const nranks, dim, k = 4, 96, 10
	data := clusteredData(rand.New(rand.NewSource(43)), 800, dim, 10)
	cfg := DefaultConfig(k)
	cfg.Seed = 3
	cfg.workers = envWorkers(t)
	vecBytes := int64(wire.VectorBytes[float32](dim))

	recalls := map[string]float64{}
	for _, path := range []struct {
		name string
		run  worldRunner
	}{
		{"by-reference", localRunner(nranks)},
		{"bytes", tcpRunner(nranks)},
	} {
		o := runPath(t, path.run, nranks, data, cfg)
		total := o.total()
		// Type 2+ head: u1, u2, flag, bound. Init head: v, u.
		for _, h := range []struct {
			name string
			head int64
		}{{"nd.check.type2", 13}, {"nd.init.req", 8}} {
			hs := handlerStats(t, total, h.name)
			if want := hs.SentMsgs * (6 + h.head + vecBytes); hs.SentMsgs == 0 || hs.SentBytes != want {
				t.Errorf("%s %s: %d msgs charged %d bytes, want %d", path.name, h.name, hs.SentMsgs, hs.SentBytes, want)
			}
		}
		recalls[path.name] = graphRecall(t, o.res.Graph, data, k)
	}
	if d := math.Abs(recalls["by-reference"] - recalls["bytes"]); d > 0.005 {
		t.Errorf("recall depends on the path: %v", recalls)
	}
}

// A multi-rank TCP mesh always takes the byte path. Arrival order is
// free there, so the outcome is checked rather than pinned: rank 0
// gathers a valid graph of every vertex, with the quality of a local
// build, and every Type 2 request sent was handled.
func TestTCPMultiRankBuildGathers(t *testing.T) {
	const nranks, k = 3, 8
	data := clusteredData(rand.New(rand.NewSource(67)), 600, 8, 8)
	cfg := DefaultConfig(k)
	cfg.workers = envWorkers(t)
	o := runPath(t, tcpRunner(nranks), nranks, data, cfg)
	g := o.res.Graph
	if g.NumVertices() != len(data) {
		t.Fatalf("rank 0 gathered %d vertices, want %d", g.NumVertices(), len(data))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := graphRecall(t, g, data, k); r < 0.9 {
		t.Errorf("3-rank TCP recall %.3f", r)
	}
	if hs := handlerStats(t, o.total(), "nd.check.type2"); hs.SentMsgs == 0 || hs.RecvMsgs != hs.SentMsgs {
		t.Errorf("nd.check.type2 over TCP: sent %d, received %d", hs.SentMsgs, hs.RecvMsgs)
	}
}

func dataChecksum(data [][]float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, row := range data {
		for _, x := range row {
			u := math.Float32bits(x)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// (d) Tasks alias the caller's rows while helper goroutines read them.
// The dataset must come out of a build and an incremental refresh
// bit-for-bit as it went in — and under -race (the ci.sh race passes
// run this at a 3-wide pool) any write through an alias is a report.
func TestByRefLeavesDatasetUntouched(t *testing.T) {
	data, prior, dead := incrFixture(t, 500, 50, 25)
	before := dataChecksum(data)
	cfg := DefaultConfig(10)
	cfg.workers = 3
	if res := buildOnWorld(t, 2, data, cfg); res.Graph.NumVertices() != len(data) {
		t.Fatalf("build gathered %d vertices", res.Graph.NumVertices())
	}
	if got := dataChecksum(data); got != before {
		t.Fatalf("build modified the dataset: checksum %016x, was %016x", got, before)
	}
	buildIncrOnWorld(t, 2, data, cfg, prior, dead)
	if got := dataChecksum(data); got != before {
		t.Fatalf("refresh modified the dataset: checksum %016x, was %016x", got, before)
	}
}

// The receiver-side shape check: whichever path a builder is on, a
// record of the other shape is a panic, never a silent mis-read.
func TestWrongRecordShapePanics(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(53)), 40, 4, 2)
	full := wire.NewWriter(64)
	head := wire.NewWriter(16)
	m := msg.Type2[float32]{U1: 3, U2: 5, HasBound: true, Bound: 1, Vec: data[3]}
	m.Encode(full)
	m.EncodeHead(head)
	for _, tc := range []struct {
		name   string
		byRef  bool
		record []byte
	}{
		{"full record on the by-reference path", true, full.Bytes()},
		{"head-only record on the byte path", false, head.Bytes()},
	} {
		err := ygm.NewLocalWorld(1).Run(func(c *ygm.Comm) error {
			shard := Partition(data, 0, 1)
			b := &builder[float32]{c: c, cfg: DefaultConfig(4), shard: shard, r: wire.NewReader(nil)}
			if tc.byRef {
				b.data, b.byRef = shard.data, true
			}
			b.onType2(tc.record)
			return nil
		})
		if want := "core: bad type2"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want a %q panic", tc.name, err, want)
		}
	}
}
