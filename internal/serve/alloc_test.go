package serve

import (
	"bufio"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"dnnd/internal/msg"
	"dnnd/internal/search"
)

// allocServer builds a 1-worker server with write deadlines
// disabled (net.Pipe deadlines arm a new runtime timer per write,
// which would charge an allocation to the hot path that real TCP
// connections do not pay).
func allocServer(t *testing.T) *Server[float32] {
	t.Helper()
	s, err := New(testSource(t, 1000, 16, 8), Config{
		L: 10, Epsilon: 0.1, Workers: 1, WriteTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// TestServeExecZeroAlloc pins the tentpole contract on the execution
// path: the deadline check, the pooled search context, the reply
// encode, and the request recycle allocate nothing at steady state.
func TestServeExecZeroAlloc(t *testing.T) {
	s := allocServer(t)
	client, server := net.Pipe()
	defer client.Close()
	go io.Copy(io.Discard, client)
	sc := NewConn(server, 0)

	vec := s.src.Data[7]
	ctx := search.NewContext[float32]()
	var seed int64
	run := func() {
		seed++
		s.acc.Gate.Enter()
		s.m.InFlight.Add(1)
		req := s.getRequest()
		req.conn = sc
		req.id = uint64(seed)
		req.seed = seed
		req.l = 10
		req.eps = 0.1
		req.vec = append(req.vec[:0], vec...)
		req.deadline = time.Time{}
		req.enq = time.Now()
		s.exec(ctx, req)
	}
	run() // warm up: grow the context scratch and write buffer once
	if avg := testing.AllocsPerRun(300, run); avg != 0 {
		t.Errorf("serve exec path allocates %.2f allocs/query at steady state, want 0", avg)
	}
}

// TestServeRoundTripZeroAlloc pins the whole server-side round trip —
// frame read, borrowed decode, pooled request, queue dispatch, search,
// zero-copy reply write — at zero allocations per query. The client
// side of the pipe reuses its buffers too, so the measurement sees
// only the server.
func TestServeRoundTripZeroAlloc(t *testing.T) {
	s := allocServer(t)
	client, server := net.Pipe()
	defer client.Close()
	s.acc.serveConn(server, s.handleConn)

	frame := appendFrame(nil, msg.SOpQuery, encodeQuery(&msg.SQuery[float32]{
		ID: 1, Seed: 42, L: 10, Epsilon: 0.1, Vec: s.src.Data[3],
	}))
	br := bufio.NewReaderSize(client, 64<<10)
	var rbuf []byte
	roundTrip := func() {
		if _, err := client.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		op, payload, err := ReadFrameInto(br, &rbuf)
		if err != nil || op != msg.SOpQuery || len(payload) == 0 {
			t.Fatalf("reply: op=%d len=%d err=%v", op, len(payload), err)
		}
	}
	roundTrip() // warm up
	if avg := testing.AllocsPerRun(300, roundTrip); avg != 0 {
		t.Errorf("serve round trip allocates %.2f allocs/query at steady state, want 0", avg)
	}
}
