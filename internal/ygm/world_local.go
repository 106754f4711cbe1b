package ygm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// World is a set of ranks wired by the in-memory local transport. It is
// the stand-in for "N compute nodes" in the scaling experiments: each
// rank runs the SPMD function on its own goroutine, and all inter-rank
// traffic crosses the same frame-send-dispatch path the TCP transport
// uses. Its comms report InProcess, which is what lets a sender elide
// bytes the receiver can reach through shared memory (AsyncCharged).
type World struct {
	comms []*Comm
}

// localTransport delivers frames straight into the destination rank's
// mailbox.
type localTransport struct {
	world *World
	from  int
}

func (t *localTransport) Send(dest int, buf []byte, elided int) error {
	t.world.comms[dest].mbox.push(delivery{from: t.from, buf: buf, elided: elided})
	return nil
}

func (t *localTransport) Close() error { return nil }

// NewLocalWorld creates a world of n ranks connected in memory.
func NewLocalWorld(n int) *World {
	if n < 1 {
		panic("ygm: world size must be >= 1")
	}
	w := &World{comms: make([]*Comm, n)}
	for i := 0; i < n; i++ {
		w.comms[i] = newComm(i, n)
		w.comms[i].inProcess = true
	}
	for i := 0; i < n; i++ {
		w.comms[i].tp = &localTransport{world: w, from: i}
	}
	return w
}

// NRanks returns the world size.
func (w *World) NRanks() int { return len(w.comms) }

// Comm returns rank i's endpoint (mainly for tests and stats).
func (w *World) Comm(i int) *Comm { return w.comms[i] }

// errWorldAborted is the panic value a rank raises when its mailbox is
// closed under it, i.e. when another rank failed and the world is being
// torn down. Run prefers the primary failure over these secondary ones.
var errWorldAborted = errors.New("ygm: world aborted by another rank's failure")

// RankError reports which rank failed inside Run.
type RankError struct {
	Rank  int
	Err   error
	Stack string
}

func (e *RankError) Error() string {
	return fmt.Sprintf("ygm: rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// Run executes fn on every rank concurrently (SPMD) and waits for all
// of them. Panics inside a rank — including handler panics and
// transport failures — are captured and returned as a *RankError; the
// first failing rank wins. After a failed run the world must be
// discarded (peer ranks may be blocked; their mailboxes are closed to
// unblock them).
func (w *World) Run(fn func(c *Comm) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.comms))
	for i := range w.comms {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					err, isErr := r.(error)
					if !isErr {
						err = fmt.Errorf("panic: %v", r)
					}
					errs[rank] = &RankError{
						Rank:  rank,
						Err:   err,
						Stack: string(debug.Stack()),
					}
					// Unblock peers waiting on their mailboxes.
					for _, c := range w.comms {
						c.mbox.close()
					}
				}
			}()
			w.comms[rank].BindOwner()
			if err := fn(w.comms[rank]); err != nil {
				errs[rank] = &RankError{Rank: rank, Err: err}
				for _, c := range w.comms {
					c.mbox.close()
				}
			}
		}(i)
	}
	wg.Wait()
	// Prefer the primary failure over secondary world-aborted panics
	// from ranks that were unblocked during teardown.
	for _, err := range errs {
		if err != nil && !errors.Is(err, errWorldAborted) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AggregateStats sums counters over all ranks.
func (w *World) AggregateStats() Stats {
	var total Stats
	for _, c := range w.comms {
		total.Add(c.Stats())
	}
	return total
}

// IntervalsPerRank collects every rank's barrier-interval statistics.
func (w *World) IntervalsPerRank() [][]IntervalStats {
	out := make([][]IntervalStats, len(w.comms))
	for i, c := range w.comms {
		out[i] = c.Intervals()
	}
	return out
}
