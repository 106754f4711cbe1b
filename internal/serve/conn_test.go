package serve

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnnd/internal/msg"
)

// TestDrainGate hammers the gate directly (run it under -race): while
// workers Enter/Leave in a loop, one goroutine Drains. Every request
// the gate admitted must have left by the time idle closes, idle closes
// exactly once (a second close would panic), and no Enter succeeds
// after Drain has returned.
func TestDrainGate(t *testing.T) {
	const rounds, workers = 60, 4
	for round := 0; round < rounds; round++ {
		g := NewDrainGate()
		var admitted, left atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g.Enter() {
					admitted.Add(1)
					runtime.Gosched() // hold the slot across a reschedule
					left.Add(1)
					g.Leave()
				}
			}()
		}
		// Vary how much traffic is in flight when the drain lands, from
		// none (Drain itself may find n == 0) to a steady stream.
		for admitted.Load() < int64(round) {
			runtime.Gosched()
		}
		idle := g.Drain()
		if g.Enter() {
			t.Fatalf("round %d: Enter admitted a request after Drain returned", round)
		}
		select {
		case <-idle:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: idle never closed (admitted=%d left=%d)", round, admitted.Load(), left.Load())
		}
		if a, l := admitted.Load(), left.Load(); a != l {
			t.Fatalf("round %d: idle closed with %d admitted but only %d left", round, a, l)
		}
		if again := g.Drain(); again != idle {
			t.Fatalf("round %d: second Drain returned a different channel", round)
		}
		if !g.Draining() {
			t.Fatalf("round %d: gate not draining after Drain", round)
		}
		wg.Wait()
	}
}

// TestConnWriteDeadline: a client that stops reading must fail the
// reply write within the connection's write timeout instead of wedging
// the writer (net.Pipe has no buffer, so the very first write blocks).
func TestConnWriteDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	sc := NewConn(server, 30*time.Millisecond)
	res := msg.SResult{ID: 1, Status: msg.SStatusOK}
	writes := map[string]func() error{
		"WriteResult": func() error { return sc.WriteResult(msg.SOpQuery, &res) },
		"WriteFrame":  func() error { return sc.WriteFrame(msg.SOpHealth, []byte("ok\n")) },
	}
	for name, write := range writes {
		start := time.Now()
		err := write()
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s to a stalled client: err = %v, want a deadline error", name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s took %v to give up", name, d)
		}
	}
}

// TestShutdownBeforeServe: a Shutdown that completes before Serve was
// handed its listener must not leave the accept loop running — Serve
// closes the listener and returns nil.
func TestShutdownBeforeServe(t *testing.T) {
	s, err := New(testSource(t, 60, 4, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown returned %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still accepting 2s after Shutdown completed")
	}
	if c, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("listener left open after Serve returned")
	}
}
