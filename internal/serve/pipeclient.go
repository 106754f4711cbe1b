package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dnnd/internal/msg"
	"dnnd/internal/wire"
)

// PipeClient is the pipelined protocol client: many callers share one
// connection with multiple queries in flight at once. Writes are
// serialized by a mutex; a dedicated reader goroutine routes each
// reply back to its caller by SResult.ID (the protocol explicitly
// allows out-of-order replies on one connection). This is what lets a
// load generator with a few connections keep every lane of a
// multi-core server busy — the synchronous Client needs one connection
// per in-flight request.
//
// Query IDs must be unique among a connection's in-flight requests;
// the load generator uses the global request index, which is.
type PipeClient struct {
	c net.Conn

	wmu  sync.Mutex
	w    wire.Writer
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]chan *msg.SResult
	err     error // sticky transport error set by the reader
}

// DialPipe connects a pipelined client. A non-positive timeout
// defaults to 5s.
func DialPipe(addr string, timeout time.Duration) (*PipeClient, error) {
	c, err := dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	pc := &PipeClient{c: c, pending: make(map[uint64]chan *msg.SResult)}
	go pc.readLoop()
	return pc, nil
}

// Close closes the connection; in-flight calls fail with the sticky
// transport error the reader records on its way out.
func (pc *PipeClient) Close() error { return pc.c.Close() }

func (pc *PipeClient) readLoop() {
	br := bufio.NewReaderSize(pc.c, 64<<10)
	var rbuf []byte
	for {
		op, payload, err := ReadFrameInto(br, &rbuf)
		if err != nil {
			pc.fail(err)
			return
		}
		if op != msg.SOpQuery {
			pc.fail(fmt.Errorf("serve: pipelined reply op %d", op))
			return
		}
		res := new(msg.SResult)
		r := wire.NewReader(payload)
		res.Decode(r)
		if err := r.Finish(); err != nil {
			pc.fail(err)
			return
		}
		pc.mu.Lock()
		ch := pc.pending[res.ID]
		delete(pc.pending, res.ID)
		pc.mu.Unlock()
		if ch != nil {
			ch <- res // buffered; never blocks the reader
		}
	}
}

// fail records the first transport error and wakes every waiter.
func (pc *PipeClient) fail(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	for id, ch := range pc.pending {
		delete(pc.pending, id)
		close(ch)
	}
	pc.mu.Unlock()
}

// DoPipe runs one query over the shared connection, blocking until its
// reply arrives (other callers' queries overlap freely in between).
// Like Do, typed rejections are results, not errors.
func DoPipe[T wire.Scalar](pc *PipeClient, q *msg.SQuery[T]) (*msg.SResult, error) {
	pc.wmu.Lock()
	pc.w.Reset()
	q.Encode(&pc.w)
	payload := pc.w.Bytes()
	return pc.doLocked(q.ID, payload)
}

// DoQueryRaw sends an already-encoded SQuery payload whose leading ID
// field has been set to id, and blocks for the matching reply. This is
// the router's scatter path: it rewrites only the 8-byte ID prefix of
// the client's query payload per sub-query, so the vector bytes are
// forwarded without ever being decoded. The payload is copied into the
// connection's write buffer before DoQueryRaw returns the first time
// it blocks, so the caller may reuse it immediately.
func (pc *PipeClient) DoQueryRaw(id uint64, payload []byte) (*msg.SResult, error) {
	pc.wmu.Lock()
	return pc.doLocked(id, payload)
}

// doLocked registers id, frames and writes payload, and waits for the
// routed reply. The caller holds wmu (covering payload if it aliases
// pc.w); doLocked releases it once the frame is on the wire.
func (pc *PipeClient) doLocked(id uint64, payload []byte) (*msg.SResult, error) {
	ch := make(chan *msg.SResult, 1)
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		pc.wmu.Unlock()
		return nil, err
	}
	if _, dup := pc.pending[id]; dup {
		pc.mu.Unlock()
		pc.wmu.Unlock()
		return nil, fmt.Errorf("serve: duplicate in-flight query ID %d", id)
	}
	pc.pending[id] = ch
	pc.mu.Unlock()

	pc.wbuf = AppendFrame(pc.wbuf[:0], msg.SOpQuery, payload)
	_, err := pc.c.Write(pc.wbuf)
	pc.wmu.Unlock()
	if err != nil {
		pc.mu.Lock()
		delete(pc.pending, id)
		pc.mu.Unlock()
		return nil, err
	}

	res, ok := <-ch
	if !ok {
		pc.mu.Lock()
		err := pc.err
		pc.mu.Unlock()
		if err == nil {
			err = errors.New("serve: pipelined connection closed")
		}
		return nil, err
	}
	return res, nil
}
