package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dnnd/internal/msg"
	"dnnd/internal/wire"
)

// This file is the serving connection layer: the one Conn, DrainGate
// and Acceptor that dnnd-serve's Server and dnnd-router's Router are
// both built on. A server owns an Acceptor, hands Acceptor.Serve its
// per-connection reader loop, admits requests through Acceptor.Gate,
// and shuts down with Acceptor.Drain → (stop its own workers) →
// Acceptor.CloseAll.

// Conn is the connection type on both ends of the protocol: the
// servers wrap each accepted connection in one, and Client wraps its
// dialed one. Reads happen on the connection's one reader goroutine
// (ReadFrame); writes are serialized by wmu — a server writes query
// completions from worker or gather goroutines and rejections and
// control replies from the reader, a Client writes from every caller.
type Conn struct {
	c        net.Conn
	br       *bufio.Reader
	rbuf     []byte // reused frame payload buffer
	wtimeout time.Duration
	wmu      sync.Mutex
	wbuf     []byte
	w        wire.Writer // wraps wbuf between beginFrame and endFrame
}

// NewConn wraps c. writeTimeout bounds each write (0 disables), so a
// peer that stops reading cannot wedge a writer — or a drain — behind
// a full TCP send buffer.
func NewConn(c net.Conn, writeTimeout time.Duration) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10), wtimeout: writeTimeout}
}

// ReadFrame reads the next frame (see ReadFrameInto, which enforces
// the frame-length bound). The payload aliases the connection's reused
// buffer and is valid only until the next call.
func (sc *Conn) ReadFrame() (op uint8, payload []byte, err error) {
	return ReadFrameInto(sc.br, &sc.rbuf)
}

// WriteFrame writes one frame carrying an already-encoded payload.
func (sc *Conn) WriteFrame(op uint8, payload []byte) error {
	sc.beginFrame(op)
	sc.w.Wrap(append(sc.wbuf, payload...))
	return sc.endFrame()
}

// WriteResult encodes res directly into the connection's pooled write
// buffer (wrapped by wire.Writer.Wrap) and writes the frame — no
// intermediate payload slice, no copy.
func (sc *Conn) WriteResult(op uint8, res *msg.SResult) error {
	sc.beginFrame(op)
	res.Encode(&sc.w)
	return sc.endFrame()
}

// WriteMsg encodes m (nil for an empty payload) straight into the
// connection's write buffer and writes the frame. Boxing m costs an
// allocation where the caller's message would otherwise stay on the
// stack, so query replies go through WriteResult instead.
func (sc *Conn) WriteMsg(op uint8, m interface{ Encode(*wire.Writer) }) error {
	sc.beginFrame(op)
	if m != nil {
		m.Encode(&sc.w)
	}
	return sc.endFrame()
}

// beginFrame takes the write lock and points sc.w at the write buffer
// behind a frame-header placeholder, so the caller encodes the payload
// in place; endFrame backpatches the length, writes the frame and
// releases the lock.
func (sc *Conn) beginFrame(op uint8) {
	sc.wmu.Lock()
	sc.wbuf = append(sc.wbuf[:0], 0, 0, 0, 0, op)
	sc.w.Wrap(sc.wbuf)
}

func (sc *Conn) endFrame() error {
	defer sc.wmu.Unlock()
	out := sc.w.Bytes()
	binary.LittleEndian.PutUint32(out[:4], uint32(len(out)-4))
	sc.wbuf = out[:0] // keep the grown storage for the next frame
	if sc.wtimeout > 0 {
		sc.c.SetWriteDeadline(time.Now().Add(sc.wtimeout))
	}
	_, err := sc.c.Write(out)
	return err
}

// DrainGate atomically couples the draining flag with the count of
// admitted-but-unanswered requests. A WaitGroup cannot express this:
// Add racing with Wait at counter zero is a data race, and the
// draining check and the increment have to be one atomic step anyway
// so that a request admitted concurrently with a drain is always
// waited for.
type DrainGate struct {
	mu       sync.Mutex
	n        int64
	draining bool
	idle     chan struct{} // closed once draining && n == 0
}

func NewDrainGate() *DrainGate {
	return &DrainGate{idle: make(chan struct{})}
}

// Enter admits one request; it reports false if the gate is draining.
func (g *DrainGate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

// Leave retires one admitted request. Exactly one of Leave and Drain
// observes the final draining && n == 0 state, so idle is closed once.
func (g *DrainGate) Leave() {
	g.mu.Lock()
	g.n--
	if g.draining && g.n == 0 {
		close(g.idle)
	}
	g.mu.Unlock()
}

// Drain flips the gate shut and returns a channel that is closed once
// every admitted request has left.
func (g *DrainGate) Drain() <-chan struct{} {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		if g.n == 0 {
			close(g.idle)
		}
	}
	g.mu.Unlock()
	return g.idle
}

func (g *DrainGate) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Acceptor owns a server's listener, its live connections and its
// drain gate: the accept loop, the connection set behind the
// Conns/ConnsTotal gauges, and the two halves of a graceful shutdown —
// Drain (shut the gate, stop accepting, wait for admitted requests) and
// CloseAll (close every connection and wait for its reader).
type Acceptor struct {
	// Gate admits requests: a handler Enters it per request it will
	// answer and Leaves it once the reply is written.
	Gate *DrainGate

	wtimeout     time.Duration
	conns, total *atomic.Int64 // the owning server's connection gauges
	mu           sync.Mutex
	ln           net.Listener
	live         map[*Conn]struct{}
	wg           sync.WaitGroup // one per live connection's handler
}

// NewAcceptor returns an Acceptor whose connections get writeTimeout
// (see NewConn) and are counted in conns (live) and total (ever).
func NewAcceptor(writeTimeout time.Duration, conns, total *atomic.Int64) *Acceptor {
	return &Acceptor{
		Gate:     NewDrainGate(),
		wtimeout: writeTimeout,
		conns:    conns,
		total:    total,
		live:     make(map[*Conn]struct{}),
	}
}

// Serve accepts connections on ln until Drain closes it, running
// handle as each connection's reader loop (see serveConn). It returns
// nil on a clean shutdown — including one that began before Serve was
// called, in which case ln is closed here: a Drain that found no
// listener to close must not leave this one accepting forever.
func (a *Acceptor) Serve(ln net.Listener, handle func(*Conn)) error {
	a.mu.Lock()
	a.ln = ln // published before the check below, so a later Drain closes it
	a.mu.Unlock()
	if a.Gate.Draining() {
		ln.Close()
		return nil
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			if a.Gate.Draining() {
				return nil
			}
			return err
		}
		a.serveConn(c, handle)
	}
}

// serveConn registers c as a live connection and runs handle on its own
// goroutine; when handle returns the connection is closed and
// forgotten. A connection that arrives once the gate is draining
// (accepted just before the listener closed) is closed unserved, so
// CloseAll never misses one.
func (a *Acceptor) serveConn(c net.Conn, handle func(*Conn)) {
	sc := NewConn(c, a.wtimeout)
	a.mu.Lock()
	if a.Gate.Draining() {
		a.mu.Unlock()
		c.Close()
		return
	}
	a.live[sc] = struct{}{}
	a.wg.Add(1)
	a.mu.Unlock()
	a.conns.Add(1)
	a.total.Add(1)
	go func() {
		defer func() {
			a.mu.Lock()
			delete(a.live, sc)
			a.mu.Unlock()
			a.conns.Add(-1)
			c.Close()
			a.wg.Done()
		}()
		handle(sc)
	}()
}

// Drain is the first half of a graceful shutdown: new requests are
// refused at the gate, the listener is closed, and Drain waits until
// every admitted request has left. ctx bounds the wait; on expiry
// ctx.Err() is returned and the caller stops hard. Established
// connections stay open (answering with the caller's draining
// rejection) until CloseAll.
func (a *Acceptor) Drain(ctx context.Context) error {
	drained := a.Gate.Drain()
	a.mu.Lock()
	if a.ln != nil {
		a.ln.Close()
	}
	a.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CloseAll is the second half: close every live connection and wait
// for their handlers to return.
func (a *Acceptor) CloseAll() {
	a.mu.Lock()
	for sc := range a.live {
		sc.c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}
