package ygm

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"dnnd/internal/wire"
)

// TestPingCounting: every rank sends a counted ping to every other
// rank; after the barrier all pings must have been processed.
func TestPingCounting(t *testing.T) {
	const n = 4
	const pingsPerPair = 100
	w := NewLocalWorld(n)
	var processed [n]int64

	err := w.Run(func(c *Comm) error {
		ping := c.Register("ping", func(c *Comm, from int, payload []byte) {
			atomic.AddInt64(&processed[c.Rank()], 1)
		})
		for dest := 0; dest < n; dest++ {
			if dest == c.Rank() {
				continue
			}
			for i := 0; i < pingsPerPair; i++ {
				c.Async(dest, ping, []byte{byte(i)})
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if processed[r] != (n-1)*pingsPerPair {
			t.Errorf("rank %d processed %d, want %d", r, processed[r], (n-1)*pingsPerPair)
		}
	}
	agg := w.AggregateStats()
	want := int64(n * (n - 1) * pingsPerPair)
	if agg.SentMsgs != want || agg.RecvMsgs != want {
		t.Errorf("sent=%d recv=%d, want %d", agg.SentMsgs, agg.RecvMsgs, want)
	}
	if agg.RemoteSentMsgs != want {
		t.Errorf("remote sent=%d, want %d (no self messages here)", agg.RemoteSentMsgs, want)
	}
}

// TestSelfMessages: messages to self go through the same counted path.
func TestSelfMessages(t *testing.T) {
	w := NewLocalWorld(2)
	var got [2]int64
	err := w.Run(func(c *Comm) error {
		h := c.Register("self", func(c *Comm, from int, payload []byte) {
			if from != c.Rank() {
				return
			}
			atomic.AddInt64(&got[c.Rank()], 1)
		})
		for i := 0; i < 10; i++ {
			c.Async(c.Rank(), h, nil)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 10 {
		t.Errorf("self deliveries = %v", got)
	}
	if remote := w.AggregateStats().RemoteSentMsgs; remote != 0 {
		t.Errorf("remote sent = %d, want 0", remote)
	}
}

// TestNestedHandlerChain models the Type1 -> Type2 -> Type3 pattern:
// handlers send further messages and the barrier must wait for the
// whole cascade.
func TestNestedHandlerChain(t *testing.T) {
	const n = 3
	const seeds = 50
	w := NewLocalWorld(n)
	var finals int64

	err := w.Run(func(c *Comm) error {
		var h1, h2, h3 HandlerID
		h3 = c.Register("t3", func(c *Comm, from int, payload []byte) {
			atomic.AddInt64(&finals, 1)
		})
		h2 = c.Register("t2", func(c *Comm, from int, payload []byte) {
			dest := int(payload[0])
			c.Async(dest, h3, nil)
		})
		h1 = c.Register("t1", func(c *Comm, from int, payload []byte) {
			dest := int(payload[0])
			c.Async(dest, h2, []byte{byte(from)})
		})
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		for i := 0; i < seeds; i++ {
			c.Async(rng.Intn(n), h1, []byte{byte(rng.Intn(n))})
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if finals != n*seeds {
		t.Errorf("finals = %d, want %d", finals, n*seeds)
	}
}

// TestQuiescenceStorm: random multi-hop cascades with fan-out; the sum
// of all hops is known in advance, and the barrier must not release
// until the last hop has run.
func TestQuiescenceStorm(t *testing.T) {
	const n = 5
	const seedsPerRank = 40
	const depth = 6
	w := NewLocalWorld(n)
	var hops int64

	err := w.Run(func(c *Comm) error {
		var hop HandlerID
		hop = c.Register("hop", func(c *Comm, from int, payload []byte) {
			atomic.AddInt64(&hops, 1)
			remaining := payload[0]
			if remaining == 0 {
				return
			}
			// Deterministic fan-out: 2 children until depth exhausted.
			next := []byte{remaining - 1}
			c.Async((c.Rank()+1)%n, hop, next)
			c.Async((c.Rank()+2)%n, hop, next)
		})
		for i := 0; i < seedsPerRank; i++ {
			c.Async((c.Rank()+i)%n, hop, []byte{depth})
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each seed produces 2^(depth+1)-1 hops.
	want := int64(n * seedsPerRank * ((1 << (depth + 1)) - 1))
	if hops != want {
		t.Errorf("hops = %d, want %d", hops, want)
	}
}

// TestRepeatedBarriers: supersteps with traffic in between; each round
// must be fully quiescent before the next starts, so a rank never sees
// a message from a round whose barrier it has already left. The
// converse is allowed: a peer released first may run ahead, and its
// next-round message can be dispatched while this rank is still
// draining inside the barrier (see Register) — one round early at most.
func TestRepeatedBarriers(t *testing.T) {
	const n = 4
	const rounds = 10
	w := NewLocalWorld(n)

	err := w.Run(func(c *Comm) error {
		var round int64
		var mismatch error
		h := c.Register("echo", func(c *Comm, from int, payload []byte) {
			r := wire.NewReader(payload)
			sentRound := r.Int64()
			cur := atomic.LoadInt64(&round)
			if (sentRound < cur || sentRound > cur+1) && mismatch == nil {
				mismatch = fmt.Errorf("rank %d got round %d during round %d",
					c.Rank(), sentRound, cur)
			}
		})
		for r := 0; r < rounds; r++ {
			atomic.StoreInt64(&round, int64(r))
			w := wire.NewWriter(8)
			w.Int64(int64(r))
			for dest := 0; dest < n; dest++ {
				c.Async(dest, h, w.Bytes())
			}
			c.Barrier()
			if mismatch != nil {
				return mismatch
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Comm(0).Stats().Barriers; got != rounds {
		t.Errorf("barriers = %d, want %d", got, rounds)
	}
}

func TestBarrierWithNoTraffic(t *testing.T) {
	w := NewLocalWorld(3)
	err := w.Run(func(c *Comm) error {
		c.Barrier()
		c.Barrier()
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankWorld(t *testing.T) {
	w := NewLocalWorld(1)
	count := 0
	err := w.Run(func(c *Comm) error {
		h := c.Register("inc", func(c *Comm, from int, payload []byte) { count++ })
		for i := 0; i < 5; i++ {
			c.Async(0, h, nil)
		}
		c.Barrier()
		if got := c.AllReduceSum(7); got != 7 {
			return fmt.Errorf("allreduce on 1 rank = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestAllReduce(t *testing.T) {
	const n = 5
	w := NewLocalWorld(n)
	err := w.Run(func(c *Comm) error {
		r := int64(c.Rank())
		if got := c.AllReduceSum(r + 1); got != n*(n+1)/2 {
			return fmt.Errorf("sum = %d", got)
		}
		if got := c.AllReduceMax(r); got != n-1 {
			return fmt.Errorf("max = %d", got)
		}
		// Back-to-back reductions must not mix sequence numbers.
		for i := 0; i < 20; i++ {
			if got := c.AllReduceSum(int64(i)); got != int64(i*n) {
				return fmt.Errorf("seq %d sum = %d, want %d", i, got, i*n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceInterleavedWithTraffic: reductions act as collectives in
// the middle of async phases (the DNND termination check pattern).
func TestAllReduceInterleavedWithTraffic(t *testing.T) {
	const n = 4
	w := NewLocalWorld(n)
	err := w.Run(func(c *Comm) error {
		var local int64
		h := c.Register("add", func(c *Comm, from int, payload []byte) {
			local++
		})
		for round := 0; round < 5; round++ {
			for i := 0; i < 100; i++ {
				c.Async(i%n, h, nil)
			}
			c.Barrier()
			total := c.AllReduceSum(local)
			if total != int64(n*100*(round+1)) {
				return fmt.Errorf("round %d total = %d", round, total)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerHandlerStats(t *testing.T) {
	w := NewLocalWorld(2)
	// Registration order is identical on every rank, so the IDs are
	// deterministic.
	const hA, hB = firstUserHandler, firstUserHandler + 1
	err := w.Run(func(c *Comm) error {
		a := c.Register("a", func(c *Comm, from int, payload []byte) {})
		b := c.Register("b", func(c *Comm, from int, payload []byte) {})
		if a != hA || b != hB {
			return fmt.Errorf("unexpected handler ids %d %d", a, b)
		}
		if c.Rank() == 0 {
			c.Async(1, hA, make([]byte, 10))
			c.Async(1, hA, make([]byte, 10))
			c.Async(1, hB, make([]byte, 20))
			c.Async(0, hB, make([]byte, 20)) // to self: sent, not remote
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Comm(0).Stats()
	if st.PerHandler[hA].SentMsgs != 2 || st.PerHandler[hB].SentMsgs != 2 {
		t.Errorf("per-handler counts: %+v", st.PerHandler)
	}
	if st.PerHandler[hA].RemoteSentMsgs != 2 || st.PerHandler[hB].RemoteSentMsgs != 1 {
		t.Errorf("per-handler remote counts: %+v", st.PerHandler)
	}
	if st.PerHandler[hA].SentBytes != 2*(10+recordHeaderBytes) {
		t.Errorf("handler a bytes = %d", st.PerHandler[hA].SentBytes)
	}
	if st.PerHandler[hB].SentBytes != 2*(20+recordHeaderBytes) {
		t.Errorf("handler b bytes = %d", st.PerHandler[hB].SentBytes)
	}
	st1 := w.Comm(1).Stats()
	if st1.PerHandler[hA].RecvMsgs != 2 || st1.PerHandler[hB].RecvMsgs != 1 {
		t.Errorf("receiver per-handler counts: %+v", st1.PerHandler)
	}
	if w.Comm(0).HandlerName(hA) != "a" {
		t.Errorf("handler name = %q", w.Comm(0).HandlerName(hA))
	}
}

func TestRunPropagatesRankError(t *testing.T) {
	w := NewLocalWorld(3)
	sentinel := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		c.Barrier() // would hang forever without mailbox close on error
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RankError", err)
	}
	if !errors.Is(err, sentinel) && re.Rank != 1 {
		t.Errorf("unexpected rank error: %+v", re)
	}
}

func TestRunRecoversHandlerPanic(t *testing.T) {
	w := NewLocalWorld(2)
	err := w.Run(func(c *Comm) error {
		h := c.Register("explode", func(c *Comm, from int, payload []byte) {
			panic("handler exploded")
		})
		if c.Rank() == 0 {
			c.Async(1, h, nil)
		}
		c.Barrier()
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RankError", err)
	}
}

func TestAsyncValidation(t *testing.T) {
	w := NewLocalWorld(1)
	err := w.Run(func(c *Comm) error {
		h := c.Register("h", func(c *Comm, from int, payload []byte) {})
		defer func() { recover() }()
		c.Async(5, h, nil) // out of range: must panic
		return errors.New("Async accepted bad destination")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushThresholdForcesManyFrames(t *testing.T) {
	w := NewLocalWorld(2)
	err := w.Run(func(c *Comm) error {
		c.setFlushThreshold(16) // tiny: nearly every message flushes
		h := c.Register("h", func(c *Comm, from int, payload []byte) {})
		if c.Rank() == 0 {
			for i := 0; i < 200; i++ {
				c.Async(1, h, make([]byte, 32))
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fl := w.Comm(0).Stats().Flushes; fl < 200 {
		t.Errorf("flushes = %d, want >= 200 with tiny threshold", fl)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{SentMsgs: 1, SentBytes: 10, RecvMsgs: 1, Barriers: 2,
		PerHandler: []HandlerStats{{SentMsgs: 1, RemoteSentMsgs: 1}}}
	b := Stats{SentMsgs: 2, SentBytes: 20, RecvMsgs: 2, Barriers: 3,
		PerHandler: []HandlerStats{{SentMsgs: 2, RemoteSentMsgs: 1}, {RecvMsgs: 5}}}
	a.Add(b)
	if a.SentMsgs != 3 || a.SentBytes != 30 || a.Barriers != 3 {
		t.Errorf("Add result: %+v", a)
	}
	if len(a.PerHandler) != 2 || a.PerHandler[0].SentMsgs != 3 || a.PerHandler[0].RemoteSentMsgs != 2 || a.PerHandler[1].RecvMsgs != 5 {
		t.Errorf("per-handler add: %+v", a.PerHandler)
	}
}

// ---- TCP transport -------------------------------------------------

// freeAddrs reserves n distinct localhost ports. There is a tiny reuse
// race between Close and the ranks re-listening, acceptable in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runTCPWorld runs fn as an SPMD program over a TCP mesh, one rank per
// goroutine, each with an isolated Comm connected only by sockets.
func runTCPWorld(t *testing.T, n int, fn func(c *Comm) error) []*Comm {
	t.Helper()
	addrs := freeAddrs(t, n)
	comms := make([]*Comm, n)
	errCh := make(chan error, n)
	ready := make(chan int, n)
	for rank := 0; rank < n; rank++ {
		go func(rank int) {
			c, err := NewTCPComm(rank, addrs)
			if err != nil {
				errCh <- fmt.Errorf("rank %d: %w", rank, err)
				ready <- rank
				return
			}
			comms[rank] = c
			ready <- rank
			defer c.Close()
			defer func() {
				if r := recover(); r != nil {
					errCh <- fmt.Errorf("rank %d panic: %v", rank, r)
					return
				}
			}()
			errCh <- fn(c)
		}(rank)
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	return comms
}

func TestTCPPingAndBarrier(t *testing.T) {
	const n = 3
	var processed [n]int64
	comms := runTCPWorld(t, n, func(c *Comm) error {
		h := c.Register("ping", func(c *Comm, from int, payload []byte) {
			atomic.AddInt64(&processed[c.Rank()], 1)
		})
		for dest := 0; dest < n; dest++ {
			for i := 0; i < 50; i++ {
				c.Async(dest, h, []byte{1, 2, 3})
			}
		}
		c.Barrier()
		if got := c.AllReduceSum(1); got != n {
			return fmt.Errorf("allreduce over tcp = %d", got)
		}
		return nil
	})
	for r := 0; r < n; r++ {
		if processed[r] != n*50 {
			t.Errorf("rank %d processed %d, want %d", r, processed[r], n*50)
		}
	}
	for _, c := range comms {
		if c == nil {
			t.Fatal("missing comm")
		}
	}
}

func TestTCPNestedCascade(t *testing.T) {
	const n = 3
	var finals int64
	runTCPWorld(t, n, func(c *Comm) error {
		var h2 HandlerID
		h2 = c.Register("final", func(c *Comm, from int, payload []byte) {
			atomic.AddInt64(&finals, 1)
		})
		h1 := c.Register("relay", func(c *Comm, from int, payload []byte) {
			c.Async((c.Rank()+1)%n, h2, payload)
		})
		for i := 0; i < 30; i++ {
			c.Async((c.Rank()+1)%n, h1, []byte{byte(i)})
		}
		c.Barrier()
		return nil
	})
	if finals != n*30 {
		t.Errorf("finals = %d, want %d", finals, n*30)
	}
}

// TestTCPMatchesLocal runs the same deterministic program on both
// transports and compares the aggregate message counters.
func TestTCPMatchesLocal(t *testing.T) {
	const n = 3
	program := func(c *Comm) error {
		h := c.Register("h", func(c *Comm, from int, payload []byte) {})
		for dest := 0; dest < n; dest++ {
			for i := 0; i < 25; i++ {
				c.Async(dest, h, make([]byte, 8))
			}
		}
		c.Barrier()
		return nil
	}

	local := NewLocalWorld(n)
	if err := local.Run(program); err != nil {
		t.Fatal(err)
	}
	localStats := local.AggregateStats()

	comms := runTCPWorld(t, n, program)
	var tcpStats Stats
	for _, c := range comms {
		tcpStats.Add(c.Stats())
	}
	if localStats.SentMsgs != tcpStats.SentMsgs ||
		localStats.SentBytes != tcpStats.SentBytes ||
		localStats.RecvMsgs != tcpStats.RecvMsgs {
		t.Errorf("local %+v vs tcp %+v", localStats, tcpStats)
	}
}

func TestAccessors(t *testing.T) {
	w := NewLocalWorld(3)
	if w.NRanks() != 3 {
		t.Errorf("world NRanks = %d", w.NRanks())
	}
	err := w.Run(func(c *Comm) error {
		if c.NRanks() != 3 {
			return fmt.Errorf("comm NRanks = %d", c.NRanks())
		}
		if err := c.Close(); err != nil {
			return err // local transport Close is a no-op
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorUnwrap(t *testing.T) {
	inner := errors.New("inner")
	re := &RankError{Rank: 2, Err: inner}
	if re.Error() == "" || !errors.Is(re, inner) {
		t.Errorf("RankError: %v", re)
	}
}

func TestPeakMailboxStats(t *testing.T) {
	w := NewLocalWorld(2)
	err := w.Run(func(c *Comm) error {
		h := c.Register("h", func(c *Comm, from int, payload []byte) {})
		if c.Rank() == 0 {
			for i := 0; i < 500; i++ {
				c.Async(1, h, make([]byte, 100))
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Comm(1).Stats()
	if st.PeakMailboxDepth < 1 || st.PeakMailboxBytes < 100 {
		t.Errorf("peak mailbox stats not collected: depth=%d bytes=%d",
			st.PeakMailboxDepth, st.PeakMailboxBytes)
	}
	agg := w.AggregateStats()
	if agg.PeakMailboxDepth < st.PeakMailboxDepth {
		t.Error("aggregate peak should take the max")
	}
}

func TestSetFlushThresholdClamps(t *testing.T) {
	w := NewLocalWorld(1)
	err := w.Run(func(c *Comm) error {
		c.setFlushThreshold(-5) // clamped to 1
		h := c.Register("h", func(c *Comm, from int, payload []byte) {})
		c.Async(0, h, nil)
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHandlerNameFallback(t *testing.T) {
	w := NewLocalWorld(1)
	if got := w.Comm(0).HandlerName(HandlerID(200)); got != "handler-200" {
		t.Errorf("fallback name = %q", got)
	}
}

func TestTCPCommValidation(t *testing.T) {
	if _, err := NewTCPComm(5, []string{"127.0.0.1:1", "127.0.0.1:2"}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := NewTCPComm(-1, []string{"127.0.0.1:1"}); err == nil {
		t.Error("negative rank accepted")
	}
	// Unbindable address must fail fast.
	if _, err := NewTCPComm(0, []string{"256.0.0.1:99999"}); err == nil {
		t.Error("bad listen address accepted")
	}
}
