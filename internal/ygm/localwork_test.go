package ygm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// deferredEcho simulates the worker-pool pattern on one rank: the ping
// handler does not reply inline but stages the reply, and the
// local-work driver sends staged replies when the progress engine asks.
// Quiescence must account for those staged replies — a barrier that
// released while any rank still owed one would lose it.
type deferredEcho struct {
	c      *Comm
	hPing  HandlerID
	hPong  HandlerID
	queue  []int // reply destinations staged by the ping handler
	pongs  int
	egress int
}

func newDeferredEcho(c *Comm) *deferredEcho {
	e := &deferredEcho{c: c}
	e.hPing = c.Register("ping", func(c *Comm, from int, payload []byte) {
		e.queue = append(e.queue, from)
	})
	e.hPong = c.Register("pong", func(c *Comm, from int, payload []byte) {
		e.pongs++
	})
	c.SetLocalWork(e.run, e.pending, nil)
	return e
}

func (e *deferredEcho) run() bool {
	if len(e.queue) == 0 {
		return false
	}
	// Swap the queue out before sending: this driver reports no
	// applying hook, so Async's opportunistic drain can re-enter the
	// ping handler, and replies it stages during this loop must survive
	// it (see SetLocalWork).
	batch := e.queue
	e.queue = nil
	for _, dest := range batch {
		e.c.Async(dest, e.hPong, []byte{1})
		e.egress++
	}
	return true
}

func (e *deferredEcho) pending() bool { return len(e.queue) > 0 }

func TestBarrierWaitsForDeferredLocalWork(t *testing.T) {
	for _, nranks := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nranks=%d", nranks), func(t *testing.T) {
			const pingsPerPeer = 100
			w := NewLocalWorld(nranks)
			var mu sync.Mutex
			got := make(map[int]int)
			err := w.Run(func(c *Comm) error {
				e := newDeferredEcho(c)
				for round := 0; round < 3; round++ {
					for i := 0; i < pingsPerPeer; i++ {
						for dest := 0; dest < c.NRanks(); dest++ {
							c.Async(dest, e.hPing, []byte{0})
						}
					}
					c.Barrier()
					// Every reply owed for this round's pings has landed:
					// pongs answer only this rank's own pings, so the
					// count is exact. (The reply queue itself may already
					// hold next-round pings from a peer released first —
					// see Register — so it is not what to assert on.)
					if want := (round + 1) * pingsPerPeer * c.NRanks(); e.pongs != want {
						return fmt.Errorf("rank %d released from barrier %d with %d pongs, want %d",
							c.Rank(), round, e.pongs, want)
					}
				}
				c.SetLocalWork(nil, nil, nil)
				mu.Lock()
				got[c.Rank()] = e.pongs
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every ping produced exactly one pong, and all pongs landed
			// before their round's barrier released.
			want := 3 * pingsPerPeer * nranks
			for rank, pongs := range got {
				if pongs != want {
					t.Errorf("rank %d saw %d pongs, want %d", rank, pongs, want)
				}
			}
		})
	}
}

// While the local-work driver reports applying, sends make no
// opportunistic progress: records wait in the mailbox, and the next
// send loop outside an apply (or the barrier) delivers them, in order.
func TestNoOpportunisticDrainWhileApplying(t *testing.T) {
	err := NewLocalWorld(1).Run(func(c *Comm) error {
		applying := false
		var got []byte
		h := c.Register("rec", func(c *Comm, from int, payload []byte) {
			got = append(got, payload[0])
		})
		c.SetLocalWork(nil, nil, func() bool { return applying })
		defer c.SetLocalWork(nil, nil, nil)
		c.setFlushThreshold(1) // every record reaches the mailbox at once

		applying = true
		for i := 0; i < 4*pollInterval; i++ {
			c.Async(0, h, []byte{byte(i)})
		}
		if len(got) != 0 {
			return fmt.Errorf("%d records dispatched during sends made while applying", len(got))
		}
		applying = false
		for i := 4 * pollInterval; i < 5*pollInterval; i++ {
			c.Async(0, h, []byte{byte(i)})
		}
		if len(got) == 0 {
			return fmt.Errorf("no opportunistic drain in %d sends outside an apply", pollInterval)
		}
		c.Barrier()
		if len(got) != 5*pollInterval {
			return fmt.Errorf("%d records delivered, want %d", len(got), 5*pollInterval)
		}
		for i, b := range got {
			if b != byte(i) {
				return fmt.Errorf("record %d delivered as %d: out of order", i, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// AllReduce used mid-phase must also drive deferred work while it
// waits, and its result must not be disturbed by the hook.
func TestAllReduceDrivesDeferredLocalWork(t *testing.T) {
	const nranks = 3
	w := NewLocalWorld(nranks)
	err := w.Run(func(c *Comm) error {
		e := newDeferredEcho(c)
		for dest := 0; dest < c.NRanks(); dest++ {
			c.Async(dest, e.hPing, []byte{0})
		}
		if sum := c.AllReduceSum(int64(c.Rank())); sum != 0+1+2 {
			return fmt.Errorf("AllReduceSum = %d", sum)
		}
		c.Barrier()
		if e.pongs != nranks {
			return fmt.Errorf("rank %d saw %d pongs, want %d", c.Rank(), e.pongs, nranks)
		}
		c.SetLocalWork(nil, nil, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The ownership rule: once bound (World.Run binds automatically), a
// collective driven from any other goroutine must panic loudly instead
// of racing.
func TestCollectivesPanicOffOwnerGoroutine(t *testing.T) {
	w := NewLocalWorld(1)
	err := w.Run(func(c *Comm) error {
		ch := make(chan any, 1)
		go func() {
			defer func() { ch <- recover() }()
			c.Barrier()
		}()
		v := <-ch
		if v == nil {
			return fmt.Errorf("Barrier off the owner goroutine did not panic")
		}
		if !strings.Contains(fmt.Sprint(v), "owning rank goroutine") {
			return fmt.Errorf("unexpected panic: %v", v)
		}
		// The owner itself is unaffected.
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
