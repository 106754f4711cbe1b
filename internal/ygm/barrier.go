package ygm

import (
	"fmt"

	"dnnd/internal/wire"
)

// The barrier implements distributed quiescence detection so that, as
// in YGM, Barrier returns only after every asynchronously sent message
// — including messages sent by message handlers, recursively — has been
// processed everywhere.
//
// Protocol (coordinator = rank 0):
//
//  1. A rank entering Barrier drains its mailbox, flushes its send
//     buffers, and when locally idle sends an idle report
//     (epoch, sentApp, recvApp) to the coordinator. It re-reports
//     whenever it processed app traffic since its last report.
//  2. When the coordinator holds idle reports from all ranks for the
//     current epoch and sum(sent) == sum(recv), it starts a
//     confirmation round: ctrlConfirm to every other rank.
//  3. Each rank answers with its current counters and idle flag. If all
//     answers are idle with counters unchanged from the reports (and
//     the coordinator's own counters are unchanged), no message can be
//     in flight, so the coordinator releases every rank. Any mismatch
//     aborts the round; fresh idle reports restart it.
//
// Control messages never change app counters and handlers never emit
// app traffic from control records, so the detection terminates.

type coordReport struct {
	epoch      uint64
	sent, recv int64
	valid      bool
}

type coordState struct {
	reports []coordReport
	// Active confirmation round.
	confirmActive bool
	confirmID     uint64
	acksNeeded    int
	acksGood      int
}

func newCoordState(nranks int) *coordState {
	return &coordState{reports: make([]coordReport, nranks)}
}

// Barrier blocks until all ranks have entered Barrier and the world is
// quiescent: no app message is buffered, in flight, or being processed
// anywhere. Every rank must call Barrier (SPMD).
func (c *Comm) Barrier() {
	c.checkErr()
	c.assertOwner()
	sp := c.trace.Begin("ygm.barrier")
	c.stats.Barriers++
	c.epoch++
	c.inBarrier = true
	c.released = false
	c.needReport = true

	if c.nranks == 1 {
		// Single rank: quiescence = drain everything we sent ourselves
		// and apply all deferred local work (which may itself send).
		// Both steps are deterministic — drainAll empties a FIFO this
		// goroutine filled, and the local-work driver applies its ring
		// in submission order — so single-rank runs stay bit-identical
		// regardless of worker scheduling.
		for {
			c.Flush()
			progressed := c.drainAll()
			if c.runLocalWork() {
				progressed = true
			}
			if !progressed && c.outboxesEmpty() && c.mbox.empty() && !c.localPending() {
				break
			}
		}
		c.inBarrier = false
		sp.End()
		c.publishSnapshot()
		return
	}

	for !c.released {
		c.drainAll()
		// Apply deferred local work before judging idleness: staged
		// tasks may owe replies that the sent/recv accounting cannot
		// see until they are sent (see localwork.go).
		c.runLocalWork()
		c.Flush()
		c.checkErr()
		if c.released {
			break
		}
		if c.mbox.empty() && c.outboxesEmpty() && !c.localPending() {
			if c.needReport {
				c.needReport = false
				c.sendIdleReport()
				continue // the report may have been to self
			}
			// Idle and reported: wait for traffic or release.
			d, ok := c.mbox.popBlocking()
			if !ok {
				panic(errWorldAborted)
			}
			c.dispatch(d)
		}
	}
	c.inBarrier = false
	sp.End()
	c.publishSnapshot()
}

func (c *Comm) sendIdleReport() {
	w := wire.NewWriter(24)
	w.Uint64(c.epoch)
	w.Int64(c.stats.SentMsgs)
	w.Int64(c.stats.RecvMsgs)
	c.sendCtrl(0, hdlIdleReport, w.Bytes())
}

func handleIdleReport(c *Comm, from int, payload []byte) {
	r := wire.NewReader(payload)
	epoch := r.Uint64()
	sent := r.Int64()
	recv := r.Int64()
	if r.Finish() != nil {
		panic("ygm: bad idle report")
	}
	st := c.coord
	st.reports[from] = coordReport{epoch: epoch, sent: sent, recv: recv, valid: true}
	// Any new report invalidates an in-flight confirmation.
	st.confirmActive = false
	c.coordEvaluate()
}

// coordEvaluate checks whether all ranks reported idle for the same
// epoch with balanced counters, and if so starts a confirmation round.
func (c *Comm) coordEvaluate() {
	st := c.coord
	if st.confirmActive {
		return
	}
	epoch := st.reports[0].epoch
	var sent, recv int64
	for i := range st.reports {
		rep := &st.reports[i]
		if !rep.valid || rep.epoch != epoch || epoch == 0 {
			return
		}
		sent += rep.sent
		recv += rep.recv
	}
	if sent != recv {
		return
	}
	st.confirmActive = true
	st.confirmID++
	st.acksNeeded = c.nranks - 1
	st.acksGood = 0
	if st.acksNeeded == 0 {
		c.coordMaybeRelease(epoch)
		return
	}
	w := wire.NewWriter(16)
	w.Uint64(st.confirmID)
	for dest := 1; dest < c.nranks; dest++ {
		c.sendCtrl(dest, hdlConfirm, w.Bytes())
	}
}

func handleConfirm(c *Comm, from int, payload []byte) {
	r := wire.NewReader(payload)
	confirmID := r.Uint64()
	if r.Finish() != nil {
		panic("ygm: bad confirm")
	}
	idle := c.inBarrier && c.mbox.empty() && c.outboxesEmpty() && !c.localPending()
	w := wire.NewWriter(32)
	w.Uint64(confirmID)
	w.Uint64(c.epoch)
	w.Int64(c.stats.SentMsgs)
	w.Int64(c.stats.RecvMsgs)
	w.Bool(idle)
	c.sendCtrl(from, hdlConfirmAck, w.Bytes())
}

func handleConfirmAck(c *Comm, from int, payload []byte) {
	r := wire.NewReader(payload)
	confirmID := r.Uint64()
	epoch := r.Uint64()
	sent := r.Int64()
	recv := r.Int64()
	idle := r.Bool()
	if r.Finish() != nil {
		panic("ygm: bad confirm ack")
	}
	st := c.coord
	if !st.confirmActive || confirmID != st.confirmID {
		return // stale ack from an aborted round
	}
	rep := st.reports[from]
	if !idle || epoch != rep.epoch || sent != rep.sent || recv != rep.recv {
		st.confirmActive = false // abort; a fresh idle report will retry
		return
	}
	st.acksGood++
	if st.acksGood == st.acksNeeded {
		c.coordMaybeRelease(epoch)
	}
}

// coordMaybeRelease performs the coordinator's own final check and, if
// it passes, releases every rank. The coordinator has no ack message;
// it verifies directly that its counters are unchanged since its idle
// report and that it is still in the barrier.
func (c *Comm) coordMaybeRelease(epoch uint64) {
	st := c.coord
	self := st.reports[0]
	if !c.inBarrier || c.epoch != epoch ||
		c.stats.SentMsgs != self.sent || c.stats.RecvMsgs != self.recv ||
		!c.outboxesEmpty() || c.localPending() {
		st.confirmActive = false
		return
	}
	st.confirmActive = false
	for i := range st.reports {
		st.reports[i].valid = false
	}
	w := wire.NewWriter(8)
	w.Uint64(epoch)
	for dest := 1; dest < c.nranks; dest++ {
		c.sendCtrl(dest, hdlRelease, w.Bytes())
	}
	c.released = true
}

func handleRelease(c *Comm, from int, payload []byte) {
	r := wire.NewReader(payload)
	epoch := r.Uint64()
	if r.Finish() != nil {
		panic("ygm: bad release")
	}
	if epoch != c.epoch {
		panic(fmt.Sprintf("ygm: rank %d got release for epoch %d while in %d", c.rank, epoch, c.epoch))
	}
	c.released = true
}

// ---- AllReduce -----------------------------------------------------

// ReduceOp selects the AllReduce combiner.
type ReduceOp uint8

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
)

type reduceAccum struct {
	op    ReduceOp
	v     int64
	count int
}

// AllReduceSum returns the sum of v across all ranks. All ranks must
// call the same AllReduce operations in the same order; the call
// processes incoming app messages while it waits, so it may be used in
// the middle of asynchronous phases as a collective checkpoint.
func (c *Comm) AllReduceSum(v int64) int64 { return c.allReduce(v, OpSum) }

// AllReduceMax returns the maximum of v across all ranks.
func (c *Comm) AllReduceMax(v int64) int64 { return c.allReduce(v, OpMax) }

func (c *Comm) allReduce(v int64, op ReduceOp) int64 {
	c.checkErr()
	c.assertOwner()
	c.reduceSeq++
	seq := c.reduceSeq
	if c.nranks == 1 {
		return v
	}
	w := wire.NewWriter(32)
	w.Uint64(seq)
	w.Uint8(uint8(op))
	w.Int64(v)
	c.sendCtrl(0, hdlReduceContrib, w.Bytes())
	for {
		if res, ok := c.reduceResults[seq]; ok {
			delete(c.reduceResults, seq)
			return res
		}
		c.Flush()
		if !c.drainAll() {
			// Waiting on peers anyway: drive deferred local work so
			// staged replies flow while the collective assembles.
			if c.runLocalWork() {
				continue
			}
			if res, ok := c.reduceResults[seq]; ok {
				delete(c.reduceResults, seq)
				return res
			}
			d, ok := c.mbox.popBlocking()
			if !ok {
				panic(errWorldAborted)
			}
			c.dispatch(d)
		}
	}
}

func handleReduceContrib(c *Comm, from int, payload []byte) {
	r := wire.NewReader(payload)
	seq := r.Uint64()
	op := ReduceOp(r.Uint8())
	v := r.Int64()
	if r.Finish() != nil {
		panic("ygm: bad reduce contribution")
	}
	acc, ok := c.reduceAccum[seq]
	if !ok {
		acc = &reduceAccum{op: op, v: v, count: 1}
		c.reduceAccum[seq] = acc
	} else {
		acc.count++
		switch op {
		case OpSum:
			acc.v += v
		case OpMax:
			acc.v = max(acc.v, v)
		}
	}
	if acc.count == c.nranks {
		delete(c.reduceAccum, seq)
		w := wire.NewWriter(16)
		w.Uint64(seq)
		w.Int64(acc.v)
		for dest := 0; dest < c.nranks; dest++ {
			c.sendCtrl(dest, hdlReduceResult, w.Bytes())
		}
	}
}

func handleReduceResult(c *Comm, from int, payload []byte) {
	r := wire.NewReader(payload)
	seq := r.Uint64()
	v := r.Int64()
	if r.Finish() != nil {
		panic("ygm: bad reduce result")
	}
	c.reduceResults[seq] = v
}
