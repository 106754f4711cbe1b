// Package ygm is a from-scratch reimplementation of the communication
// model DNND needs from LLNL's YGM library: asynchronous fire-and-forget
// remote procedure calls with sender-side message aggregation, a global
// barrier that waits for quiescence (all messages, including messages
// sent by message handlers, processed), and message/byte counters.
//
// The paper runs YGM over MPI on an HPC interconnect. Here a "world" of
// ranks is either a set of goroutines exchanging record frames through
// in-memory mailboxes (the local transport, NewLocalWorld) or a set of
// processes/goroutines connected by a TCP mesh (the tcp transport).
//
// What is counted versus what is materialized: Stats — messages, bytes,
// per-handler traffic, flushes, mailbox high-water marks, the
// quantities Figure 4 of the paper reports — is always charged the full
// encoded size of every message, on both transports. On the TCP
// transport those bytes also exist: every record is encoded and
// crosses a socket. In an in-process world a sender may instead use
// AsyncCharged to materialize only the head of a record and let the
// receiver reach the bulk (a feature vector) through the shared address
// space. The charged-but-elided bytes still count toward the flush
// threshold and the mailbox byte gauges, so frames are cut at the same
// records and every counter equals the byte path's by construction
// (core.TestByRefMatchesBytes pins local by-reference ≡ local bytes ≡
// TCP at one rank, field by field).
//
// Concurrency model (mirrors YGM/MPI): each rank is a single logical
// thread. Handlers only ever execute on the owning rank's goroutine,
// inside Async, Barrier, or AllReduce calls (the "progress engine"), so
// rank-local state needs no locking. Handlers may themselves call Async;
// such nested sends are buffered and flushed by the progress engine.
package ygm

import (
	"fmt"
	"sync"

	"dnnd/internal/obs"
)

// HandlerID identifies a registered message handler. Like YGM, handler
// registration must happen in the same order on every rank so the IDs
// agree across the world.
type HandlerID uint16

// Handler is a message callback. It runs on the destination rank's
// goroutine with the sender's rank and the message payload. The payload
// slice aliases the receive buffer and must not be retained after the
// handler returns; decode what you need.
type Handler func(c *Comm, from int, payload []byte)

// Control-plane handler IDs occupy the low range; user registration
// starts at firstUserHandler.
const (
	hdlIdleReport HandlerID = iota
	hdlConfirm
	hdlConfirmAck
	hdlRelease
	hdlReduceContrib
	hdlReduceResult
	firstUserHandler
)

// recordHeaderBytes is the per-message framing overhead (2-byte handler
// ID + 4-byte payload length), counted into byte volumes.
const recordHeaderBytes = 6

// defaultFlushBytes is the sender-side aggregation threshold per
// destination; buffers are handed to the transport when they exceed it.
const defaultFlushBytes = 32 << 10

// pollInterval controls how often Async opportunistically drains the
// mailbox (every pollInterval-th call made outside handlers and
// local-work applies; see sent).
const pollInterval = 64

// delivery is one batch of records from a single sender. elided is the
// number of payload bytes the batch was charged for but does not carry
// (see AsyncCharged); the mailbox gauges count them as if present.
type delivery struct {
	from   int
	buf    []byte
	elided int
}

func (d delivery) size() int64 { return int64(len(d.buf) + d.elided) }

// mailbox is the multi-producer single-consumer inbound queue of a rank.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []delivery
	closed bool
	// peakDepth and peakBytes are high-water marks of queued
	// deliveries, the congestion signal behind the paper's Section 4.4
	// batching (YGM "has no real-time global knowledge of the number
	// of messages in all processes' buffers").
	peakDepth int
	peakBytes int64
	curBytes  int64
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) push(d delivery) {
	m.mu.Lock()
	m.q = append(m.q, d)
	m.curBytes += d.size()
	if len(m.q) > m.peakDepth {
		m.peakDepth = len(m.q)
	}
	if m.curBytes > m.peakBytes {
		m.peakBytes = m.curBytes
	}
	m.mu.Unlock()
	m.cond.Signal()
}

func (m *mailbox) tryPop() (delivery, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) == 0 {
		return delivery{}, false
	}
	d := m.q[0]
	m.q[0] = delivery{}
	m.q = m.q[1:]
	m.curBytes -= d.size()
	return d, true
}

// popBlocking waits until a delivery is available or the mailbox is
// closed.
func (m *mailbox) popBlocking() (delivery, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.q) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.q) == 0 {
		return delivery{}, false
	}
	d := m.q[0]
	m.q[0] = delivery{}
	m.q = m.q[1:]
	m.curBytes -= d.size()
	return d, true
}

func (m *mailbox) empty() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q) == 0
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Transport moves encoded record batches between ranks. Deliveries
// arrive at the destination Comm's mailbox (the transport holds a
// reference to it).
type Transport interface {
	// Send transfers ownership of buf (a batch of encoded records) to
	// the destination rank. elided is the batch's charged-but-absent
	// byte count; only a transport that shares the receiver's address
	// space may accept a non-zero value.
	Send(dest int, buf []byte, elided int) error
	// Close releases transport resources.
	Close() error
}

// Comm is one rank's endpoint in a world. It is not safe for concurrent
// use by multiple goroutines; like an MPI rank, exactly one goroutine
// drives it.
type Comm struct {
	rank   int
	nranks int
	tp     Transport
	mbox   *mailbox

	handlers     []Handler
	handlerNames []string

	out        [][]byte // per-destination aggregation buffers
	elided     []int    // per-destination bytes charged to out[dest] but not in it
	flushBytes int
	inProcess  bool // every rank of the world shares this address space

	stats Stats

	inDrain   bool
	asyncTick int

	// Deferred-local-work hook and single-owner enforcement; see
	// localwork.go for the rules.
	localWorkRun      func() bool
	localWorkPending  func() bool
	localWorkApplying func() bool
	owner             uint64 // owning goroutine ID; 0 = unbound

	// Barrier / quiescence state.
	inBarrier  bool
	epoch      uint64
	released   bool
	needReport bool
	coord      *coordState // non-nil on rank 0

	// AllReduce state.
	reduceSeq     uint64
	reduceResults map[uint64]int64
	reduceAccum   map[uint64]*reduceAccum

	// Observability hooks (both optional; see trace.go).
	trace *obs.Track
	pub   *pubMetrics

	// err records a transport failure; surfaced by Barrier/Async panics.
	err error
}

// newComm wires up a Comm; the transport is attached afterwards by the
// world constructor (transports need the mailbox first).
func newComm(rank, nranks int) *Comm {
	c := &Comm{
		rank:          rank,
		nranks:        nranks,
		mbox:          newMailbox(),
		out:           make([][]byte, nranks),
		elided:        make([]int, nranks),
		flushBytes:    defaultFlushBytes,
		reduceResults: make(map[uint64]int64),
		reduceAccum:   make(map[uint64]*reduceAccum),
	}
	if rank == 0 {
		c.coord = newCoordState(nranks)
	}
	// PerHandler must exist before the control handlers register, or
	// their entries (and names) would be wiped here.
	c.stats.PerHandler = make([]HandlerStats, 0, 16)
	c.registerControlHandlers()
	return c
}

// Rank returns this endpoint's rank in [0, NRanks).
func (c *Comm) Rank() int { return c.rank }

// NRanks returns the world size.
func (c *Comm) NRanks() int { return c.nranks }

// InProcess reports whether every rank of this world runs in this
// address space on the in-memory transport (NewLocalWorld). A TCP mesh
// is never in-process, even when its ranks are goroutines of one
// process: its frames cross sockets, so every byte must exist.
func (c *Comm) InProcess() bool { return c.inProcess }

// setFlushThreshold overrides the sender-side aggregation threshold in
// bytes; only tests shrink it, to force many frames. Must be called
// before any Async.
func (c *Comm) setFlushThreshold(n int) {
	if n < 1 {
		n = 1
	}
	c.flushBytes = n
}

// Register installs a message handler and returns its ID. Every rank
// must register the same handlers in the same order (the YGM
// convention); the name is recorded for stats output.
//
// Registration is rank-local and unsynchronized, so a message can reach
// a rank that has not registered its handler yet (a panic in dispatch).
// Register before the barrier that precedes the handler's first use,
// or put a barrier between registering and sending: a rank released
// from a barrier may run ahead and send while a slower rank is still
// draining inside that same barrier.
func (c *Comm) Register(name string, h Handler) HandlerID {
	id := HandlerID(len(c.handlers))
	c.handlers = append(c.handlers, h)
	c.handlerNames = append(c.handlerNames, name)
	for len(c.stats.PerHandler) <= int(id) {
		c.stats.PerHandler = append(c.stats.PerHandler, HandlerStats{})
	}
	c.stats.PerHandler[id].Name = name
	return id
}

func (c *Comm) registerControlHandlers() {
	// Order must match the hdl* constants.
	c.Register("_idle", handleIdleReport)
	c.Register("_confirm", handleConfirm)
	c.Register("_confirmAck", handleConfirmAck)
	c.Register("_release", handleRelease)
	c.Register("_reduceContrib", handleReduceContrib)
	c.Register("_reduceResult", handleReduceResult)
}

// Async sends a fire-and-forget message: handler h runs on rank dest at
// some future time with the given payload. The payload is copied
// immediately; the caller may reuse it. Messages to self go through the
// same path (encoded, counted, delivered via the mailbox).
func (c *Comm) Async(dest int, h HandlerID, payload []byte) {
	if dest < 0 || dest >= c.nranks {
		panic(fmt.Sprintf("ygm: Async dest %d out of range (nranks=%d)", dest, c.nranks))
	}
	if int(h) >= len(c.handlers) {
		panic(fmt.Sprintf("ygm: Async with unregistered handler %d", h))
	}
	c.appendRecord(dest, h, payload)
	c.sent(dest, h, len(payload))
}

// AsyncCharged is Async for a message whose bulk the receiver can reach
// without the bytes: only head is materialized as the record's payload,
// while the message is charged — in Stats, in the flush threshold and
// in the mailbox byte gauges — as a payload of charged bytes, the size
// of its full encoding. Everything observable except the frame contents
// is therefore identical to Async with the full payload. Only an
// in-process world can deliver such a record (the receiver must be able
// to resolve what was left out), so calling it on any other comm is a
// bug and panics.
func (c *Comm) AsyncCharged(dest int, h HandlerID, head []byte, charged int) {
	if !c.inProcess {
		panic("ygm: AsyncCharged on a comm that is not in-process; elided bytes would be lost")
	}
	if dest < 0 || dest >= c.nranks {
		panic(fmt.Sprintf("ygm: AsyncCharged dest %d out of range (nranks=%d)", dest, c.nranks))
	}
	if int(h) >= len(c.handlers) {
		panic(fmt.Sprintf("ygm: AsyncCharged with unregistered handler %d", h))
	}
	if charged < len(head) {
		panic(fmt.Sprintf("ygm: AsyncCharged charges %d bytes for a %d-byte head", charged, len(head)))
	}
	c.appendRecord(dest, h, head)
	c.elided[dest] += charged - len(head)
	c.sent(dest, h, charged)
}

// appendRecord frames one record into the destination's aggregation
// buffer.
func (c *Comm) appendRecord(dest int, h HandlerID, payload []byte) {
	buf := c.out[dest]
	if buf == nil {
		buf = getFrame(c.flushBytes + 256)
	}
	n := len(payload)
	buf = append(buf, byte(h), byte(h>>8),
		byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	c.out[dest] = append(buf, payload...)
}

// sent finishes every app send: it charges one record of the given
// payload size to the counters, hands the destination's buffer to the
// transport once the bytes it stands for — materialized plus elided —
// reach the threshold, and makes opportunistic progress, YGM-style:
// inbound traffic is drained every pollInterval-th send of a long send
// loop. Never from inside a handler, and never while the rank's
// deferred local work is being applied (see SetLocalWork): those sends
// are replies to work already taken in, and draining there would only
// turn compact inbound records into staged work while the backlog is
// still being walked. The records wait in the mailbox, an unbounded
// queue on every transport, until the loop that drives the local work
// (Barrier, AllReduce) drains it.
func (c *Comm) sent(dest int, h HandlerID, payloadBytes int) {
	size := int64(payloadBytes + recordHeaderBytes)
	c.stats.SentMsgs++
	c.stats.SentBytes += size
	hs := &c.stats.PerHandler[h]
	hs.SentMsgs++
	hs.SentBytes += size
	if dest != c.rank {
		c.stats.RemoteSentMsgs++
		c.stats.RemoteSentBytes += size
		hs.RemoteSentMsgs++
	}
	if len(c.out[dest])+c.elided[dest] >= c.flushBytes {
		c.flushDest(dest)
	}
	if !c.inDrain && !c.localApplying() {
		c.asyncTick++
		if c.asyncTick >= pollInterval {
			c.asyncTick = 0
			if ownerCheckAsync {
				c.assertOwner()
			}
			c.drainAll()
		}
	}
}

// sendCtrl transmits a control record immediately, bypassing the
// aggregation buffers so that barrier progress does not depend on flush
// thresholds. Control traffic is excluded from app counters.
func (c *Comm) sendCtrl(dest int, h HandlerID, payload []byte) {
	n := len(payload)
	buf := getFrame(n + recordHeaderBytes)
	buf = append(buf, byte(h), byte(h>>8),
		byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	buf = append(buf, payload...)
	if err := c.tp.Send(dest, buf, 0); err != nil && c.err == nil {
		c.err = err
	}
}

func (c *Comm) flushDest(dest int) {
	buf := c.out[dest]
	if len(buf) == 0 {
		return
	}
	elided := c.elided[dest]
	sp := c.trace.BeginArg("ygm.flush", int64(len(buf)+elided))
	c.out[dest] = nil
	c.elided[dest] = 0
	c.stats.Flushes++
	if err := c.tp.Send(dest, buf, elided); err != nil && c.err == nil {
		c.err = err
	}
	sp.End()
}

// Flush pushes all aggregation buffers to the transport without
// waiting for delivery.
func (c *Comm) Flush() {
	for dest := range c.out {
		c.flushDest(dest)
	}
}

func (c *Comm) outboxesEmpty() bool {
	for _, b := range c.out {
		if len(b) > 0 {
			return false
		}
	}
	return true
}

// drainAll processes every delivery currently queued in the mailbox and
// reports whether any record was dispatched.
func (c *Comm) drainAll() bool {
	any := false
	for {
		d, ok := c.mbox.tryPop()
		if !ok {
			return any
		}
		c.dispatch(d)
		any = true
	}
}

// dispatch decodes and runs every record in one delivery.
func (c *Comm) dispatch(d delivery) {
	wasDraining := c.inDrain
	c.inDrain = true
	defer func() { c.inDrain = wasDraining }()

	buf := d.buf
	off := 0
	for off < len(buf) {
		if off+recordHeaderBytes > len(buf) {
			panic(fmt.Sprintf("ygm: rank %d received truncated record header from %d", c.rank, d.from))
		}
		h := HandlerID(buf[off]) | HandlerID(buf[off+1])<<8
		n := int(buf[off+2]) | int(buf[off+3])<<8 | int(buf[off+4])<<16 | int(buf[off+5])<<24
		off += recordHeaderBytes
		if off+n > len(buf) {
			panic(fmt.Sprintf("ygm: rank %d received truncated record payload from %d", c.rank, d.from))
		}
		payload := buf[off : off+n]
		off += n
		if int(h) >= len(c.handlers) {
			panic(fmt.Sprintf("ygm: rank %d received unknown handler %d from %d", c.rank, h, d.from))
		}
		c.handlers[h](c, d.from, payload)
		if h >= firstUserHandler {
			c.stats.RecvMsgs++
			c.stats.PerHandler[h].RecvMsgs++
			if c.inBarrier {
				c.needReport = true
			}
		}
	}
	// All records dispatched; the frame can carry outbound traffic next.
	// (Payload views are dead here by the Handler contract.)
	putFrame(buf)
}

// Stats returns a snapshot of this rank's counters, including the
// mailbox congestion high-water marks.
func (c *Comm) Stats() Stats {
	s := c.stats.clone()
	c.mbox.mu.Lock()
	s.PeakMailboxDepth = int64(c.mbox.peakDepth)
	s.PeakMailboxBytes = c.mbox.peakBytes
	c.mbox.mu.Unlock()
	return s
}

// HandlerName returns the registered name for id (for reports).
func (c *Comm) HandlerName(id HandlerID) string {
	if int(id) < len(c.handlerNames) {
		return c.handlerNames[id]
	}
	return fmt.Sprintf("handler-%d", id)
}

// checkErr surfaces transport failures to the caller; the SPMD runner
// converts the panic into an error return.
func (c *Comm) checkErr() {
	if c.err != nil {
		panic(fmt.Sprintf("ygm: rank %d transport failure: %v", c.rank, c.err))
	}
}
