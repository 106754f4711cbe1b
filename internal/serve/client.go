package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/wire"
)

// Client is the protocol client for dnnd-serve and dnnd-router. Many
// goroutines share one connection: queries are pipelined, any number
// in flight at once, and one reader goroutine routes each reply back
// to its caller by SResult.ID (the protocol allows out-of-order
// replies on one connection). Control ops — hello, health, stats,
// metrics, topology, ingest, delete, flush — carry no ID, so at most
// one of them is in flight per connection and the reader matches its
// reply by op. Writes go through the connection's serialized writer.
//
// Query IDs must be unique among a connection's in-flight queries; a
// duplicate is refused with an error rather than mis-routed.
type Client struct {
	sc    *Conn
	done  chan struct{} // closed when the reader goroutine exits
	ctlMu sync.Mutex    // held by the one control call in flight

	mu      sync.Mutex
	pending map[waiter]chan []byte // reply payload slots
	err     error                  // sticky: the first transport failure
}

// waiter names the caller a reply belongs to: a query by its ID, a
// control call by its op.
type waiter struct {
	op uint8
	id uint64
}

// ErrTimeout is wrapped by the error a query call returns when its
// timeout expires before the reply arrives.
var ErrTimeout = errors.New("serve: no reply within the call's timeout")

// Dial connects to a dnnd-serve or dnnd-router address. A non-positive
// timeout defaults to 5s.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{sc: NewConn(nc, 0), done: make(chan struct{}), pending: make(map[waiter]chan []byte)}
	go c.readLoop()
	return c, nil
}

// Close closes the connection and waits for the reader goroutine to
// exit; calls still in flight fail with net.ErrClosed (or the
// transport error that got there first).
func (c *Client) Close() error {
	c.fail(net.ErrClosed)
	<-c.done
	return nil
}

// SetDeadline sets the absolute I/O deadline on the underlying
// connection. Its expiry is a transport failure that fails every call
// on the connection, so it suits one-shot connections such as the
// router's health probes, where a hung server must fail the probe
// instead of wedging the prober.
func (c *Client) SetDeadline(t time.Time) error { return c.sc.c.SetDeadline(t) }

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		op, payload, err := c.sc.ReadFrame()
		if err != nil {
			c.fail(err)
			return
		}
		key := waiter{op: op}
		if op == msg.SOpQuery {
			if len(payload) < 8 {
				c.fail(errors.New("serve: query reply without an ID"))
				return
			}
			key.id = binary.LittleEndian.Uint64(payload) // SResult.ID leads
		}
		c.mu.Lock()
		ch, ok := c.pending[key]
		delete(c.pending, key)
		c.mu.Unlock()
		switch {
		case ok:
			ch <- append([]byte(nil), payload...) // buffered; the payload aliases the read buffer
		case op != msg.SOpQuery: // a query's caller may have timed out and left
			c.fail(fmt.Errorf("serve: unexpected reply op %d", op))
			return
		}
	}
}

// fail records the first transport error, closes the connection (a
// partial frame would desynchronize the stream for good) and wakes
// every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		c.sc.c.Close()
	}
	for key, ch := range c.pending {
		delete(c.pending, key)
		close(ch)
	}
}

// register claims the reply slot for key.
func (c *Client) register(key waiter) (chan []byte, error) {
	ch := make(chan []byte, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	if _, dup := c.pending[key]; dup {
		return nil, fmt.Errorf("serve: duplicate in-flight query ID %d", key.id)
	}
	c.pending[key] = ch
	return ch, nil
}

// await waits for the reply in ch, registered for key, whose request
// write returned werr. A positive timeout bounds the wait: on expiry
// the slot is dropped (the reader discards a late reply) and the error
// wraps ErrTimeout — unless the reply raced in first, which is then
// returned.
func (c *Client) await(key waiter, ch chan []byte, werr error, timeout time.Duration) ([]byte, error) {
	if werr != nil {
		c.fail(werr)
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		select {
		case reply, ok := <-ch:
			if !ok {
				c.mu.Lock()
				defer c.mu.Unlock()
				return nil, c.err
			}
			return reply, nil
		case <-expired:
			expired = nil
			c.mu.Lock()
			mine := c.pending[key] == ch
			if mine {
				delete(c.pending, key)
			}
			c.mu.Unlock()
			if mine {
				return nil, fmt.Errorf("query %d after %v: %w", key.id, timeout, ErrTimeout)
			}
			// The reader (or fail) took the slot first; its send or
			// close is on the way.
		}
	}
}

// call runs one control round trip — req, encoded straight into the
// write buffer, is nil for ops without a payload — and returns the
// reply payload.
func (c *Client) call(op uint8, req interface{ Encode(*wire.Writer) }) ([]byte, error) {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	key := waiter{op: op}
	ch, err := c.register(key)
	if err != nil {
		return nil, err
	}
	return c.await(key, ch, c.sc.WriteMsg(op, req), 0)
}

// decode decodes a reply payload into a fresh M.
func decode[M any, PM interface {
	*M
	Decode(*wire.Reader)
}](reply []byte, err error) (*M, error) {
	if err != nil {
		return nil, err
	}
	m := PM(new(M))
	r := wire.NewReader(reply)
	m.Decode(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Hello fetches the served index's description.
func (c *Client) Hello() (*msg.SHelloReply, error) {
	return decode[msg.SHelloReply](c.call(msg.SOpHello, nil))
}

// Health fetches the plain-text health probe line.
func (c *Client) Health() (string, error) {
	reply, err := c.call(msg.SOpHealth, nil)
	return string(reply), err
}

// Stats fetches the /metrics-style plain-text dump.
func (c *Client) Stats() (string, error) {
	reply, err := c.call(msg.SOpStats, nil)
	return string(reply), err
}

// MetricsJSON fetches the structured metrics dump (obs.FullDump as
// JSON): counters and samples by name plus bucket-level histogram
// dumps, the mergeable form the router's /cluster/metrics federation
// scrapes.
func (c *Client) MetricsJSON() ([]byte, error) {
	return c.call(msg.SOpMetrics, nil)
}

// Topology fetches a router front end's cluster topology (shards,
// replica groups, health states, per-replica generations). Plain
// dnnd-serve processes do not implement the op and drop the
// connection, so an error here against a healthy address means "not a
// router".
func (c *Client) Topology() (*msg.RTopology, error) {
	return decode[msg.RTopology](c.call(msg.SOpTopo, nil))
}

// Ingest appends vectors to a mutable server's delta. Like Do,
// rejections (read_only, overloaded, draining) come back as a typed
// Status, not an error. The assigned IDs are First..First+Count-1; the
// points become searchable after the next refinement (Flush forces
// one).
func Ingest[T wire.Scalar](c *Client, vecs [][]T) (*msg.SUpdateReply, error) {
	return decode[msg.SUpdateReply](c.call(msg.SOpIngest, &msg.SIngest[T]{Vecs: vecs}))
}

// Delete tombstones points by ID on a mutable server. Tombstoned
// points stop being returned immediately; Count reports how many of
// the IDs were newly tombstoned.
func (c *Client) Delete(ids []knng.ID) (*msg.SUpdateReply, error) {
	return decode[msg.SUpdateReply](c.call(msg.SOpDelete, &msg.SDelete{IDs: ids}))
}

// Flush forces a refinement over the pending delta and blocks until
// the new snapshot is published; Gen reports its generation. Queries
// on the same Client keep flowing while it waits.
func (c *Client) Flush() (*msg.SUpdateReply, error) {
	return decode[msg.SUpdateReply](c.call(msg.SOpFlush, &msg.SFlush{}))
}

// Do runs one query and blocks until its reply arrives; other callers'
// queries and one control call overlap freely on the connection in
// between. The query is encoded straight into the connection's write
// buffer. Rejections (overload, draining, deadline, bad request) are
// not errors: they come back as a typed SResult.Status; err is
// reserved for transport failures.
func Do[T wire.Scalar](c *Client, q *msg.SQuery[T]) (*msg.SResult, error) {
	key := waiter{op: msg.SOpQuery, id: q.ID}
	ch, err := c.register(key)
	if err != nil {
		return nil, err
	}
	c.sc.beginFrame(msg.SOpQuery)
	q.Encode(&c.sc.w)
	return decode[msg.SResult](c.await(key, ch, c.sc.endFrame(), 0))
}

// QueryRaw sends an already-encoded SQuery payload whose leading ID
// field has been set to id, and waits at most timeout (0 = no bound)
// for the matching reply; on expiry the error wraps ErrTimeout. This
// is the router's scatter path: it rewrites only the 8-byte ID prefix
// of the client's query payload per sub-query, so the vector bytes are
// forwarded without ever being decoded. The payload is copied into the
// connection's write buffer before QueryRaw first blocks on the reply,
// so the caller may reuse it as soon as QueryRaw returns.
func (c *Client) QueryRaw(id uint64, payload []byte, timeout time.Duration) (*msg.SResult, error) {
	key := waiter{op: msg.SOpQuery, id: id}
	ch, err := c.register(key)
	if err != nil {
		return nil, err
	}
	return decode[msg.SResult](c.await(key, ch, c.sc.WriteFrame(msg.SOpQuery, payload), timeout))
}
