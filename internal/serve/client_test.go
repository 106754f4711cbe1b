package serve

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/wire"
)

// fakePeer serves each accepted connection with handle, called on the
// connection's reader goroutine once per request frame; handle answers
// through sc whenever it likes (or never). It returns the address.
func fakePeer(t *testing.T, handle func(sc *Conn, op uint8, payload []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				sc := NewConn(c, 0)
				for {
					op, payload, err := sc.ReadFrame()
					if err != nil {
						return
					}
					handle(sc, op, append([]byte(nil), payload...))
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// answer replies to a query frame with an OK result carrying its ID.
func answer(sc *Conn, payload []byte) {
	sc.WriteResult(msg.SOpQuery, &msg.SResult{ID: binary.LittleEndian.Uint64(payload), Status: msg.SStatusOK})
}

func queryPayload(id uint64) []byte {
	return encodeQuery(&msg.SQuery[float32]{ID: id, L: 1, Vec: []float32{1, 2}})
}

// TestClientMixedOps pins the one-client contract: pipelined queries
// from many goroutines and control calls share one connection, every
// call gets its own reply, and failures (duplicate IDs, timeouts, a
// dropped connection) stay confined to the calls they concern or wake
// every waiter.
func TestClientMixedOps(t *testing.T) {
	t.Run("mutable server", func(t *testing.T) {
		const n, dim, k, l = 400, 8, 8, 10
		const live = 300 // queries target rows below live; deletes stay above
		_, c, shutdown := mutableFixture(t, n, dim, k,
			Config{L: l, Epsilon: 0.2, Workers: 2}, MutableConfig[float32]{RefineEvery: 1 << 20})
		defer shutdown()
		data := randData(n, dim, 31)
		extra := randData(40, dim, 32)

		var wg sync.WaitGroup
		errs := make(chan error, 64)
		stop := make(chan struct{})
		var queries atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					row := (g*131 + i*7) % live
					id := uint64(g)<<32 | uint64(i)
					// An exhaustive search from the row's own vector
					// finds the row itself first, at distance zero.
					res, err := Do(c, &msg.SQuery[float32]{ID: id, Seed: int64(i), L: l, Epsilon: 1000, Vec: data[row]})
					switch {
					case err != nil:
						errs <- err
						return
					case res.ID != id || res.Status != msg.SStatusOK || len(res.Neighbors) == 0 ||
						res.Neighbors[0].ID != knng.ID(row) || res.Neighbors[0].Dist != 0:
						errs <- errors.New("query got a reply that is not its own")
						return
					}
					queries.Add(1)
				}
			}(g)
		}
		wg.Add(1)
		go func() { // read-only control ops beside the mutations below
			defer wg.Done()
			for i := 0; i < 20; i++ {
				h, err := c.Hello()
				if err != nil || h.Dim != dim || h.K != k {
					errs <- errors.New("hello: wrong or failed reply")
					return
				}
				if line, err := c.Health(); err != nil || !strings.HasPrefix(line, "ok ") {
					errs <- errors.New("health: wrong or failed reply")
					return
				}
			}
		}()

		var lastGen uint64
		next := uint64(n)
		for round := 0; round < 4; round++ {
			before := queries.Load()
			in, err := Ingest(c, extra[round*10:round*10+10])
			if err != nil || in.Status != msg.SStatusOK || in.First != next || in.Count != 10 {
				t.Fatalf("round %d ingest: %+v, %v", round, in, err)
			}
			next += 10
			del, err := c.Delete([]knng.ID{knng.ID(live + round)})
			if err != nil || del.Status != msg.SStatusOK || del.Count != 1 {
				t.Fatalf("round %d delete: %+v, %v", round, del, err)
			}
			fl, err := c.Flush()
			if err != nil || fl.Status != msg.SStatusOK || fl.Gen <= lastGen {
				t.Fatalf("round %d flush: %+v, %v (last gen %d)", round, fl, err, lastGen)
			}
			lastGen = fl.Gen
			// Queries keep completing between flushes.
			deadline := time.Now().Add(5 * time.Second)
			for queries.Load() < before+16 {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: queries stalled at %d", round, queries.Load())
				}
				time.Sleep(time.Millisecond)
			}
		}
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})

	t.Run("flush does not stall queries", func(t *testing.T) {
		// The peer holds the flush reply until it has answered 16
		// queries sent after the flush: a client that serialized
		// queries behind a control call would deadlock here.
		var answered atomic.Int64
		flushSeen, release := make(chan struct{}), make(chan struct{})
		addr := fakePeer(t, func(sc *Conn, op uint8, payload []byte) {
			switch op {
			case msg.SOpQuery:
				answer(sc, payload)
				if answered.Add(1) == 16 {
					close(release)
				}
			case msg.SOpFlush:
				close(flushSeen)
				go func() {
					<-release
					var w wire.Writer
					(&msg.SUpdateReply{Status: msg.SStatusOK, Gen: 9}).Encode(&w)
					sc.WriteFrame(msg.SOpFlush, w.Bytes())
				}()
			}
		})
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		flushed := make(chan error, 1)
		go func() {
			fl, err := c.Flush()
			if err == nil && fl.Gen != 9 {
				err = errors.New("wrong flush reply")
			}
			flushed <- err
		}()
		<-flushSeen
		for i := uint64(0); i < 16; i++ {
			if _, err := c.QueryRaw(i, queryPayload(i), 2*time.Second); err != nil {
				t.Fatalf("query %d behind a pending flush: %v", i, err)
			}
		}
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("duplicate in-flight ID", func(t *testing.T) {
		held, release := make(chan struct{}), make(chan struct{})
		var sevens atomic.Int64
		addr := fakePeer(t, func(sc *Conn, op uint8, payload []byte) {
			if binary.LittleEndian.Uint64(payload) == 7 && sevens.Add(1) == 1 {
				close(held)
				go func() { <-release; answer(sc, payload) }()
				return
			}
			answer(sc, payload)
		})
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		first := make(chan error, 1)
		go func() {
			res, err := c.QueryRaw(7, queryPayload(7), 2*time.Second)
			if err == nil && res.ID != 7 {
				err = errors.New("first caller got another reply")
			}
			first <- err
		}()
		<-held // the first query is on the peer, unanswered
		if _, err := c.QueryRaw(7, queryPayload(7), 2*time.Second); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("duplicate in-flight ID: err = %v", err)
		}
		close(release)
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if res, err := c.QueryRaw(7, queryPayload(7), 2*time.Second); err != nil || res.ID != 7 {
			t.Fatalf("ID 7 after the first reply: %+v, %v", res, err)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		late := make(chan struct{})
		addr := fakePeer(t, func(sc *Conn, op uint8, payload []byte) {
			switch {
			case op == msg.SOpHealth:
				sc.WriteFrame(msg.SOpHealth, []byte("ok n=1"))
			case binary.LittleEndian.Uint64(payload) == 1:
				go func() { <-late; answer(sc, payload) }() // after the caller left
			default:
				answer(sc, payload)
			}
		})
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		t0 := time.Now()
		if _, err := c.QueryRaw(1, queryPayload(1), 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("stalled query: err = %v, want ErrTimeout", err)
		}
		if d := time.Since(t0); d > time.Second {
			t.Fatalf("timeout returned after %v", d)
		}
		close(late) // the late reply must be discarded, not mis-routed
		for i := uint64(2); i < 10; i++ {
			if res, err := c.QueryRaw(i, queryPayload(i), time.Second); err != nil || res.ID != i {
				t.Fatalf("query %d after a timeout: %+v, %v", i, res, err)
			}
		}
		if line, err := c.Health(); err != nil || line != "ok n=1" {
			t.Fatalf("health after a timeout: %q, %v", line, err)
		}
	})

	t.Run("dropped connection wakes every waiter", func(t *testing.T) {
		var got atomic.Int64
		addr := fakePeer(t, func(sc *Conn, op uint8, payload []byte) {
			if got.Add(1) == 5 { // 4 queries and a hello in flight: hang up
				sc.c.Close()
			}
		})
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		errs := make(chan error, 5)
		for i := uint64(0); i < 4; i++ {
			go func(i uint64) {
				_, err := c.QueryRaw(i, queryPayload(i), 0)
				errs <- err
			}(i)
		}
		go func() {
			_, err := c.Hello()
			errs <- err
		}()
		for i := 0; i < 5; i++ {
			select {
			case err := <-errs:
				if err == nil {
					t.Fatal("a call on a dropped connection succeeded")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a waiter was never woken after the connection dropped")
			}
		}
		if _, err := Do(c, &msg.SQuery[float32]{ID: 99, Vec: []float32{1, 2}}); err == nil {
			t.Fatal("a call after the failure succeeded")
		}
	})
}
