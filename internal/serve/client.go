package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/wire"
)

// Client is a synchronous protocol client for dnnd-serve: one round
// trip at a time per connection, serialized by a mutex so a Client is
// safe to share (the load generator instead gives every worker its
// own Client, which is how the concurrency is meant to be achieved).
type Client struct {
	mu   sync.Mutex
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// dial is the TCP connect behind Dial and DialPipe: a non-positive
// timeout defaults to 5s.
func dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// Dial connects to a dnnd-serve address. A non-positive timeout
// defaults to 5s.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c, err := dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.c.Close() }

// SetDeadline sets the absolute I/O deadline on the underlying
// connection (reads and writes both). The router's health prober uses
// it so a hung server fails a probe instead of wedging the prober.
func (c *Client) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

func (c *Client) roundTrip(op uint8, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = AppendFrame(c.wbuf[:0], op, payload)
	if _, err := c.c.Write(c.wbuf); err != nil {
		return nil, err
	}
	gotOp, reply, err := ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	if gotOp != op {
		return nil, fmt.Errorf("serve: reply op %d to request op %d", gotOp, op)
	}
	return reply, nil
}

// Hello fetches the served index's description.
func (c *Client) Hello() (*msg.SHelloReply, error) {
	reply, err := c.roundTrip(msg.SOpHello, nil)
	if err != nil {
		return nil, err
	}
	var h msg.SHelloReply
	r := wire.NewReader(reply)
	h.Decode(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &h, nil
}

// Health fetches the plain-text health probe line.
func (c *Client) Health() (string, error) {
	reply, err := c.roundTrip(msg.SOpHealth, nil)
	return string(reply), err
}

// Stats fetches the /metrics-style plain-text dump.
func (c *Client) Stats() (string, error) {
	reply, err := c.roundTrip(msg.SOpStats, nil)
	return string(reply), err
}

// MetricsJSON fetches the structured metrics dump (obs.FullDump as
// JSON): counters and samples by name plus bucket-level histogram
// dumps, the mergeable form the router's /cluster/metrics federation
// scrapes. Pre-PR-10 servers do not implement the op and drop the
// connection.
func (c *Client) MetricsJSON() ([]byte, error) {
	return c.roundTrip(msg.SOpMetrics, nil)
}

// Topology fetches a router front end's cluster topology (shards,
// replica groups, health states, per-replica generations). Plain
// dnnd-serve processes do not implement the op and drop the
// connection, so an error here against a healthy address means "not a
// router".
func (c *Client) Topology() (*msg.RTopology, error) {
	reply, err := c.roundTrip(msg.SOpTopo, nil)
	if err != nil {
		return nil, err
	}
	var topo msg.RTopology
	r := wire.NewReader(reply)
	topo.Decode(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &topo, nil
}

// updateTrip runs one mutation round trip and decodes the SUpdateReply.
func (c *Client) updateTrip(op uint8, payload []byte) (*msg.SUpdateReply, error) {
	reply, err := c.roundTrip(op, payload)
	if err != nil {
		return nil, err
	}
	var up msg.SUpdateReply
	r := wire.NewReader(reply)
	up.Decode(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &up, nil
}

// Ingest appends vectors to a mutable server's delta. Like Do,
// rejections (read_only, overloaded, draining) come back as a typed
// Status, not an error. The assigned IDs are First..First+Count-1; the
// points become searchable after the next refinement (Flush forces
// one).
func Ingest[T wire.Scalar](c *Client, vecs [][]T) (*msg.SUpdateReply, error) {
	in := msg.SIngest[T]{Vecs: vecs}
	var w wire.Writer
	in.Encode(&w)
	return c.updateTrip(msg.SOpIngest, w.Bytes())
}

// Delete tombstones points by ID on a mutable server. Tombstoned
// points stop being returned immediately; Count reports how many of
// the IDs were newly tombstoned.
func (c *Client) Delete(ids []knng.ID) (*msg.SUpdateReply, error) {
	del := msg.SDelete{IDs: ids}
	var w wire.Writer
	del.Encode(&w)
	return c.updateTrip(msg.SOpDelete, w.Bytes())
}

// Flush forces a refinement over the pending delta and blocks until
// the new snapshot is published; Gen reports its generation.
func (c *Client) Flush() (*msg.SUpdateReply, error) {
	var fl msg.SFlush
	var w wire.Writer
	fl.Encode(&w)
	return c.updateTrip(msg.SOpFlush, w.Bytes())
}

// Do runs one query round trip. Rejections (overload, draining,
// deadline, bad request) are not errors: they come back as a typed
// SResult.Status; err is reserved for transport failures.
func Do[T wire.Scalar](c *Client, q *msg.SQuery[T]) (*msg.SResult, error) {
	var w wire.Writer
	q.Encode(&w)
	reply, err := c.roundTrip(msg.SOpQuery, w.Bytes())
	if err != nil {
		return nil, err
	}
	var res msg.SResult
	r := wire.NewReader(reply)
	res.Decode(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &res, nil
}
