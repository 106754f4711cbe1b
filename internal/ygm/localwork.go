package ygm

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
)

// Deferred local work and the ownership rule.
//
// The DNND worker pool (internal/core) defers the part of message
// handling that evaluates distances — batches evaluated by worker
// goroutines, with the results applied to neighbor lists later, in
// submission order, by the rank's own goroutine. That deferral punches
// a hole in quiescence detection: a staged task may still owe reply
// messages (a Type 3, an init reply), yet it is invisible to the
// barrier's sent/recv accounting, because the record that staged it
// has already been counted as received. The local-work
// hook closes the hole: the barrier and the AllReduce wait loop drive
// run() whenever the rank would otherwise idle, and every idle
// judgment — the idle report precondition, the confirmation-round
// answer, and the coordinator's own release check — also requires
// pending() to be false. The hook also bounds the deferred work: while
// applying() reports true, sends make no opportunistic progress, so
// the driver's backlog cannot grow by whatever the mailbox holds (at N
// ranks that is most of a phase's inbound traffic, which would be
// staged at kilobytes per task instead of queued at tens of bytes per
// record).
//
// Ownership rule: a Comm is single-owner. Only the goroutine that runs
// the rank (the one World.Run spawns, which binds itself here) may call
// Async, Barrier, or AllReduce — worker goroutines hand results back to
// the owner and never touch the Comm. run(), pending() and applying()
// are likewise invoked only on the owning goroutine, so implementations
// need no locking against the Comm. BindOwner/assertOwner turn
// violations of this rule into an immediate panic instead of a data
// race: collectives always check, and Async checks on its
// opportunistic-drain tick under the race detector (see
// ownerCheckAsync), where the ~1us goroutine-ID lookup is acceptable.

// SetLocalWork registers the rank's deferred-work driver. run applies
// any currently pending work (it may send via Async) and reports
// whether it did anything; pending reports whether work remains;
// applying reports whether the driver is applying work right now,
// whether from inside run or on its own initiative. All three execute
// on the owning rank goroutine only. While applying reports true, Async
// makes no opportunistic progress, so no handler fires during the
// driver's own sends and nothing new is staged behind the backlog it
// is walking: inbound records wait in the mailbox until the progress
// engine next drains it. A nil applying means never. Pass
// (nil, nil, nil) to clear the hook when the phase that staged the
// work is over.
func (c *Comm) SetLocalWork(run, pending, applying func() bool) {
	c.localWorkRun = run
	c.localWorkPending = pending
	c.localWorkApplying = applying
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

// localApplying reports whether the local-work driver is applying.
func (c *Comm) localApplying() bool {
	return c.localWorkApplying != nil && c.localWorkApplying()
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
