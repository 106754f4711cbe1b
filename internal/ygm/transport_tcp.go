package ygm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// tcpTransport connects a rank to its peers with a full TCP mesh. Rank
// i listens on addrs[i], accepts connections from ranks j > i, and
// dials ranks j < i. Each frame on the wire is a 4-byte little-endian
// length followed by a batch of records (the same batch format the
// local transport passes by reference). Writes happen only on the
// rank's own goroutine, so connections need no write locking; one
// reader goroutine per peer pushes frames into the mailbox.
type tcpTransport struct {
	rank   int
	mbox   *mailbox
	ln     net.Listener
	conns  []net.Conn
	closed atomic.Bool
	wg     sync.WaitGroup
	hdr    [4]byte
}

// maxFrameBytes bounds inbound frames (a frame is at most one
// aggregation buffer plus one oversized record).
const maxFrameBytes = 1 << 30

// dialTimeout bounds the whole mesh setup.
const dialTimeout = 30 * time.Second

// NewTCPComm creates a rank endpoint connected to its peers over TCP.
// addrs lists one listen address per rank ("host:port"); every process
// must pass the same slice. The call blocks until the mesh is fully
// connected. Close the returned Comm to tear the mesh down.
func NewTCPComm(rank int, addrs []string) (*Comm, error) {
	n := len(addrs)
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("ygm: rank %d out of range for %d addresses", rank, n)
	}
	c := newComm(rank, n)
	tp := &tcpTransport{rank: rank, mbox: c.mbox, conns: make([]net.Conn, n)}

	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("ygm: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	tp.ln = ln

	type acceptResult struct {
		peer int
		conn net.Conn
		err  error
	}
	wantAccepts := n - 1 - rank // peers j > rank dial us
	acceptCh := make(chan acceptResult, wantAccepts)
	go func() {
		for i := 0; i < wantAccepts; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptCh <- acceptResult{err: err}
				return
			}
			var hello [4]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				acceptCh <- acceptResult{err: err}
				return
			}
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			if peer <= rank || peer >= n {
				acceptCh <- acceptResult{err: fmt.Errorf("bad peer rank %d", peer)}
				return
			}
			acceptCh <- acceptResult{peer: peer, conn: conn}
		}
	}()

	// Dial every lower rank, retrying while its listener comes up.
	deadline := time.Now().Add(dialTimeout)
	for peer := 0; peer < rank; peer++ {
		var conn net.Conn
		for {
			conn, err = net.DialTimeout("tcp", addrs[peer], time.Second)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				tp.teardown()
				return nil, fmt.Errorf("ygm: rank %d dial rank %d (%s): %w", rank, peer, addrs[peer], err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], uint32(rank))
		if _, err := conn.Write(hello[:]); err != nil {
			tp.teardown()
			return nil, fmt.Errorf("ygm: rank %d handshake with %d: %w", rank, peer, err)
		}
		tp.conns[peer] = conn
	}

	for i := 0; i < wantAccepts; i++ {
		res := <-acceptCh
		if res.err != nil {
			tp.teardown()
			return nil, fmt.Errorf("ygm: rank %d accept: %w", rank, res.err)
		}
		tp.conns[res.peer] = res.conn
	}

	for peer, conn := range tp.conns {
		if conn == nil {
			continue
		}
		tp.wg.Add(1)
		go tp.readLoop(peer, conn)
	}
	c.tp = tp
	return c, nil
}

func (t *tcpTransport) readLoop(peer int, conn net.Conn) {
	defer t.wg.Done()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			if !t.closed.Load() {
				// Peer died or link broke: unblock the owning rank so
				// the failure surfaces instead of hanging in Barrier.
				t.mbox.close()
			}
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 {
			// Graceful goodbye: the peer is done with the world (all
			// collectives completed on its side); its socket closing
			// is expected and must not abort this rank.
			return
		}
		if n > maxFrameBytes {
			t.mbox.close()
			return
		}
		buf := getFrame(int(n))[:n]
		if _, err := io.ReadFull(conn, buf); err != nil {
			if !t.closed.Load() {
				t.mbox.close()
			}
			return
		}
		t.mbox.push(delivery{from: peer, buf: buf})
	}
}

func (t *tcpTransport) Send(dest int, buf []byte, elided int) error {
	if elided != 0 {
		// Unreachable through Comm (AsyncCharged panics first); a socket
		// cannot carry bytes that were never materialized.
		return fmt.Errorf("ygm: tcp transport asked to send a frame with %d elided bytes", elided)
	}
	if dest == t.rank {
		t.mbox.push(delivery{from: t.rank, buf: buf})
		return nil
	}
	conn := t.conns[dest]
	if conn == nil {
		return fmt.Errorf("ygm: no connection to rank %d", dest)
	}
	binary.LittleEndian.PutUint32(t.hdr[:], uint32(len(buf)))
	if _, err := conn.Write(t.hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(buf)
	// The frame is on the socket (or the link is dead); either way the
	// sender is done with it. Self-sends above instead hand ownership to
	// the mailbox, and dispatch releases them.
	putFrame(buf)
	return err
}

func (t *tcpTransport) teardown() {
	if t.ln != nil {
		t.ln.Close()
	}
	for _, conn := range t.conns {
		if conn != nil {
			conn.Close()
		}
	}
}

func (t *tcpTransport) Close() error {
	t.closed.Store(true)
	// Announce a graceful close (zero-length frame) so peers do not
	// mistake the socket teardown for a failure.
	var bye [4]byte
	for dest, conn := range t.conns {
		if conn != nil && dest != t.rank {
			conn.Write(bye[:])
		}
	}
	t.teardown()
	t.wg.Wait()
	return nil
}

// Close releases the Comm's transport resources (the TCP mesh; a no-op
// for local worlds).
func (c *Comm) Close() error { return c.tp.Close() }
