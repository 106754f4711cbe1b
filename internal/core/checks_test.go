package core

import (
	"math"
	"math/rand"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
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

// onRankZero runs fn on rank 0 of a 2-rank in-process world, against a
// one-sided builder over data whose neighbor lists start empty, and
// returns the Type 2 and Type 3 messages rank 0 sent. The check
// handlers are inert, so fn's decisions are all that is measured.
func onRankZero(t *testing.T, data [][]float32, fn func(b *builder[float32])) (type2, type3 int64) {
	t.Helper()
	err := ygm.NewLocalWorld(2).Run(func(c *ygm.Comm) error {
		shard := Partition(data, c.Rank(), 2)
		b := &builder[float32]{c: c, cfg: DefaultConfig(4), shard: shard, replyW: wire.NewWriter(64),
			data: data, byRef: c.InProcess(), lists: knng.MakeNeighborLists(shard.Len(), 4)}
		inert := func(*ygm.Comm, int, []byte) {}
		b.hType2 = c.Register(checkHandlers[1], inert)
		b.hType3 = c.Register(checkHandlers[2], inert)
		if c.Rank() == 0 {
			fn(b)
			s := c.Stats()
			type2 = handlerStats(t, s, checkHandlers[1]).RemoteSentMsgs
			type3 = handlerStats(t, s, checkHandlers[2]).RemoteSentMsgs
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return type2, type3
}

// remoteIDs returns the first n IDs that rank 1 of 2 owns.
func remoteIDs(b *builder[float32], n int) []knng.ID {
	var ids []knng.ID
	for id := range b.shard.N {
		if b.owner(knng.ID(id)) == 1 && len(ids) < n {
			ids = append(ids, knng.ID(id))
		}
	}
	return ids
}

// Section 4.3.2 across ranks, at owner(u1): a Type 1 for (u1, u2) whose
// u2 already is u1's neighbor is dropped there, with no Type 2 to
// owner(u2); a u2 that is not is forwarded.
func TestCrossRankRedundantCheckSendsNoType2(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(75)), 40, 4, 2)
	var redundant int64
	type2, _ := onRankZero(t, data, func(b *builder[float32]) {
		u1, remote := b.shard.IDs[0], remoteIDs(b, 2)
		b.lists[0].Update(remote[0], 1, true)
		b.decideType1(0, u1, remote[0])
		redundant = b.c.Stats().RemoteSentMsgs
		b.decideType1(0, u1, remote[1])
	})
	if redundant != 0 {
		t.Errorf("a Type 1 whose u2 already is u1's neighbor sent %d messages, want 0", redundant)
	}
	if type2 != 1 {
		t.Errorf("%d Type 2 sent for one new cross-rank pair, want 1", type2)
	}
}

// Section 4.3.2 on the way back, at owner(u2): a Type 2 whose u1
// already is u2's neighbor returns no Type 3 to owner(u1); a u1 that is
// not gets its distance back.
func TestCrossRankRedundantReturnSendsNoType3(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(76)), 40, 4, 2)
	var redundant int64
	_, type3 := onRankZero(t, data, func(b *builder[float32]) {
		u2, remote := b.shard.IDs[0], remoteIDs(b, 2)
		b.lists[0].Update(remote[0], 1, true)
		b.applyType2(&cand{A: remote[0], B: u2, Local: 0, D: math.MaxFloat32}, 0.5)
		redundant = b.c.Stats().RemoteSentMsgs
		b.applyType2(&cand{A: remote[1], B: u2, Local: 0, D: math.MaxFloat32}, 0.5)
	})
	if redundant != 0 {
		t.Errorf("a Type 2 whose u1 already is u2's neighbor sent %d messages, want 0", redundant)
	}
	if type3 != 1 {
		t.Errorf("%d Type 3 returned for one new cross-rank pair, want 1", type3)
	}
}

// Each Protocol level adds one Section 4.3 saving to the level below it.
// On rank 0 of a 2-rank world, for every level, this pins whether
// owner(u1) forwards a redundant Type 1, whether its Type 2 carries u1's
// bound (Type 2+), and which Type 2 applies at owner(u2) return a
// Type 3: a new u1, a u1 already in u2's list, and a distance equal to
// the bound that u2's list would still accept, which 4.3.3 prunes.
func TestProtocolLevels(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(77)), 40, 4, 2)
	type outcome struct {
		forwardRedundant, bound, returnNew, returnRedundant, returnAtBound bool
	}
	want := map[Protocol]outcome{
		TwoSided:      {forwardRedundant: true},
		OneSided:      {forwardRedundant: true, returnNew: true, returnRedundant: true, returnAtBound: true},
		SkipRedundant: {returnNew: true, returnAtBound: true},
		PruneDistant:  {bound: true, returnNew: true},
	}
	type2Bytes := map[Protocol]int64{}
	for p := TwoSided; p <= PruneDistant; p++ {
		var got outcome
		onRankZero(t, data, func(b *builder[float32]) {
			b.cfg.Protocol = p
			remote := remoteIDs(b, 3)
			sends := func(fn func()) bool {
				before := b.c.Stats().RemoteSentMsgs
				fn()
				return b.c.Stats().RemoteSentMsgs > before
			}

			// Type 1 decisions at owner(u1), u1 at shard index 0.
			u1 := b.shard.IDs[0]
			b.lists[0].Update(remote[0], 1, true)
			got.forwardRedundant = sends(func() { b.decideType1(0, u1, remote[0]) })
			before := handlerStats(t, b.c.Stats(), checkHandlers[1]).SentBytes
			b.decideType1(0, u1, remote[1])
			type2Bytes[p] = handlerStats(t, b.c.Stats(), checkHandlers[1]).SentBytes - before

			// Type 2 applies at owner(u2), u2 at shard index 1.
			u2 := b.shard.IDs[1]
			got.returnNew = sends(func() { b.applyType2(&cand{A: remote[0], B: u2, Local: 1, D: math.MaxFloat32}, 0.5) })
			b.lists[1].Update(remote[1], 1, true)
			got.returnRedundant = sends(func() { b.applyType2(&cand{A: remote[1], B: u2, Local: 1, D: math.MaxFloat32}, 0.5) })
			if !b.lists[1].Accepts(0.5) {
				t.Errorf("level %d: u2's list no longer accepts the bound", p)
				return
			}
			got.returnAtBound = sends(func() { b.applyType2(&cand{A: remote[2], B: u2, Local: 1, D: 0.5}, 0.5) })
		})
		// Type 2+ is Type 2 and the 4-byte bound.
		got.bound = type2Bytes[p]-type2Bytes[TwoSided] == 4
		if got != want[p] {
			t.Errorf("level %d: got %+v, want %+v", p, got, want[p])
		}
	}
}

// At one rank every pair is co-owned and checked in place, where the
// one-sided flow (4.3.1) and the prune (4.3.3) change nothing: the
// levels build in pairs, TwoSided as OneSided and SkipRedundant as
// PruneDistant, and the redundant-check skip (4.3.2) sets the pairs
// apart.
func TestProtocolLevelsInPlace(t *testing.T) {
	data := clusteredData(rand.New(rand.NewSource(78)), 400, 8, 4)
	res := map[Protocol]*Result{}
	for p := TwoSided; p <= PruneDistant; p++ {
		cfg := DefaultConfig(8)
		cfg.Seed = 5
		cfg.Protocol = p
		cfg.Optimize = false
		res[p] = buildKernelOnWorld(t, 1, data, metric.SquaredL2, cfg)
	}
	same := func(a, b Protocol) bool {
		return res[a].DistEvals == res[b].DistEvals && res[a].Graph.Equal(res[b].Graph)
	}
	if !same(TwoSided, OneSided) || !same(SkipRedundant, PruneDistant) || same(OneSided, SkipRedundant) {
		t.Errorf("distance evaluations by level %d / %d / %d / %d; want the first two and the last two equal, the pairs apart",
			res[TwoSided].DistEvals, res[OneSided].DistEvals, res[SkipRedundant].DistEvals, res[PruneDistant].DistEvals)
	}
}
