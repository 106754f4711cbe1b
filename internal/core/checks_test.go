package core

import (
	"math"
	"math/rand"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/metric"
)

var checkHandlers = []string{"nd.check.type1", "nd.check.type2", "nd.check.type3"}

// The Type 1/2/3 protocol saves network messages, so the check phase
// never sends one to its own rank: at one rank every pair is checked
// in place and the check handlers carry nothing, and at four ranks
// every check message they carry crosses ranks. Both flows.
func TestCheckPhaseNeverMessagesItsOwnRank(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(71)), 600, 12, 8)
	for _, proto := range []struct {
		name string
		p    Protocol
	}{{"one-sided", Optimized()}, {"two-sided", Unoptimized()}} {
		cfg := DefaultConfig(8)
		cfg.Seed = 9
		cfg.Protocol = proto.p
		cfg.Workers = envWorkers(t)

		one := runPath(t, localRunner(1), 1, data, cfg)
		for _, h := range checkHandlers {
			if hs := handlerStats(t, one.total(), h); hs.SentMsgs != 0 {
				t.Errorf("%s, 1 rank: %s sent %d messages, want 0", proto.name, h, hs.SentMsgs)
			}
		}
		if one.res.DistEvals == 0 || one.res.Rounds[0].Checks == 0 {
			t.Fatalf("%s, 1 rank: no pairs checked: %+v", proto.name, one.res.Rounds)
		}

		four := runPath(t, localRunner(4), 4, data, cfg)
		total := four.total()
		for _, h := range checkHandlers {
			hs := handlerStats(t, total, h)
			if self := hs.SentMsgs - hs.RemoteSentMsgs; self != 0 {
				t.Errorf("%s, 4 ranks: %s sent %d of %d messages to its own rank", proto.name, h, self, hs.SentMsgs)
			}
		}
		if hs := handlerStats(t, total, "nd.check.type2"); hs.SentMsgs == 0 {
			t.Errorf("%s, 4 ranks: no Type 2 crossed ranks", proto.name)
		}
	}
}

// Convergence referee for checking co-owned pairs in place: the same
// clustered rows built at one rank (every pair local) and at four
// (under range ownership about two pairs in five take the protocol) must
// converge alike — final graph recall within 0.01 and rounds within
// one — under L2 and cosine.
func TestLocalChecksConvergeLikeProtocol(t *testing.T) {
	const k = 10
	data := clusteredData(rand.New(rand.NewSource(73)), 1500, 32, 6)
	for _, kind := range []metric.Kind{metric.SquaredL2, metric.Cosine} {
		kern, err := metric.KernelFor[float32](kind)
		if err != nil {
			t.Fatal(err)
		}
		truth := brute.KNNGraph(data, k, kern.Fn, 0).TopIDs(k)
		cfg := DefaultConfig(k)
		cfg.Seed = 21
		cfg.Optimize = false

		local := buildKernelOnWorld(t, 1, data, kind, cfg)
		dist := buildKernelOnWorld(t, 4, data, kind, cfg)
		rl, rd := local.Graph.Recall(truth, k), dist.Graph.Recall(truth, k)

		var checks int64
		for _, r := range dist.Rounds {
			checks += r.Checks
		}
		share := float64(dist.Comm.Type1Msgs) / float64(checks)
		t.Logf("%v: 1 rank recall %.4f in %d rounds; 4 ranks recall %.4f in %d rounds, Type 1 per pair %.2f",
			kind, rl, local.Iters, rd, dist.Iters, share)
		if math.Abs(rl-rd) > 0.01 {
			t.Errorf("%v: recall %.4f at 1 rank, %.4f at 4 ranks; want within 0.01", kind, rl, rd)
		}
		if d := local.Iters - dist.Iters; d < -1 || d > 1 {
			t.Errorf("%v: %d rounds at 1 rank, %d at 4 ranks; want within 1", kind, local.Iters, dist.Iters)
		}
		// A pair sends its one Type 1 unless the generating rank owns u1.
		// Range ownership keeps most sampled neighbours on their vertex's
		// rank, but not those across a range boundary: 0.44 of pairs here
		// at four ranks (hash ownership: 0.75). The floor keeps that share
		// real, so the protocol, not only the local path, is refereed.
		if share < 0.25 {
			t.Errorf("%v: %.2f Type 1 messages per pair at 4 ranks; the protocol carried too few pairs", kind, share)
		}
	}
}
