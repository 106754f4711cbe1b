package ygm

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
)

// Deferred local work and the ownership rule.
//
// The DNND worker pool (internal/core) defers parts of message handling
// — distance batches evaluated by worker goroutines, with the results
// applied to neighbor lists later, in submission order, by the rank's
// own goroutine. That deferral punches a hole in quiescence detection:
// a staged task may still owe reply messages, yet it is invisible to
// the barrier's sent/recv accounting (an apply-only task sends nothing
// at all, and a reply-producing one has not sent yet). The local-work
// hook closes the hole: the barrier and the AllReduce wait loop drive
// run() whenever the rank would otherwise idle, and every idle
// judgment — the idle report precondition, the confirmation-round
// answer, and the coordinator's own release check — also requires
// pending() to be false.
//
// Ownership rule: a Comm is single-owner. Only the goroutine that runs
// the rank (the one World.Run spawns, which binds itself here) may call
// Async, Barrier, or AllReduce — worker goroutines hand results back to
// the owner and never touch the Comm. run() and pending() are likewise
// invoked only on the owning goroutine, so implementations need no
// locking against the Comm. BindOwner/assertOwner turn violations of
// this rule into an immediate panic instead of a data race: collectives
// always check, and Async checks on its opportunistic-drain tick under
// the race detector (see ownerCheckAsync), where the ~1us goroutine-ID
// lookup is acceptable.

// SetLocalWork registers the rank's deferred-work driver. run applies
// any currently pending work (it may send via Async) and reports
// whether it did anything; pending reports whether work remains. Both
// execute on the owning rank goroutine only. Handlers may fire during
// run's own sends (every pollInterval-th Async drains the mailbox), so
// run must tolerate new work being staged while it walks its backlog —
// the core worker pool's applying guard assumes exactly this. Pass
// (nil, nil) to clear the hook when the phase that staged the work is
// over.
func (c *Comm) SetLocalWork(run func() bool, pending func() bool) {
	c.localWorkRun = run
	c.localWorkPending = pending
}

// runLocalWork invokes the registered driver, if any.
func (c *Comm) runLocalWork() bool {
	if c.localWorkRun == nil {
		return false
	}
	return c.localWorkRun()
}

// localPending reports whether deferred local work remains staged.
func (c *Comm) localPending() bool {
	return c.localWorkPending != nil && c.localWorkPending()
}

// BindOwner pins the Comm to the calling goroutine: from now on,
// collectives (and, under the race detector, sampled Asyncs) panic when
// driven from any other goroutine. World.Run binds each rank's
// goroutine automatically; external transports (TCP) may call this
// from the goroutine that will drive the rank.
func (c *Comm) BindOwner() { c.owner = curGoroutineID() }

func (c *Comm) assertOwner() {
	if c.owner == 0 {
		return
	}
	if g := curGoroutineID(); g != c.owner {
		panic(fmt.Sprintf(
			"ygm: rank %d driven from goroutine %d but bound to goroutine %d; "+
				"only the owning rank goroutine may send or enter collectives "+
				"(worker goroutines must hand results back to the owner)",
			c.rank, g, c.owner))
	}
}

// curGoroutineID parses the current goroutine's numeric ID from the
// runtime.Stack header ("goroutine N [...]"). There is no official
// accessor; this is the standard diagnostic-only technique, used here
// solely to enforce the ownership rule, never for logic.
func curGoroutineID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseUint(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}
