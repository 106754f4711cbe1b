package ygm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// chargedTraffic drives one fixed single-rank send schedule — a mix of
// small records and records with a large body — and returns the comm's
// final Stats plus what the big-record handler saw. With elide set the
// big records go through AsyncCharged (head only, charged in full);
// otherwise through Async carrying the whole body.
func chargedTraffic(t *testing.T, elide bool) (Stats, []int) {
	t.Helper()
	const headLen, bodyLen = 13, 3844 // a Type 2+ head and a 960-d float32 vector
	w := NewLocalWorld(1)
	var payloadLens []int
	err := w.Run(func(c *Comm) error {
		c.setFlushThreshold(16 << 10)
		hSmall := c.Register("small", func(*Comm, int, []byte) {})
		hBig := c.Register("big", func(_ *Comm, _ int, p []byte) {
			if len(payloadLens) < 4 {
				payloadLens = append(payloadLens, len(p))
			}
		})
		full := make([]byte, headLen+bodyLen)
		for round := 0; round < 3; round++ {
			for i := 0; i < 500; i++ {
				c.Async(0, hSmall, full[:8+i%5])
				if i%3 != 0 {
					if elide {
						c.AsyncCharged(0, hBig, full[:headLen], len(full))
					} else {
						c.Async(0, hBig, full)
					}
				}
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Comm(0).Stats(), payloadLens
}

// The charged send must be indistinguishable from the full send in
// every counter — totals, per-handler traffic, the number of flushes
// (frames cut at the same records) and the mailbox high-water marks —
// while materializing only the head.
func TestAsyncChargedCountsLikeFullSend(t *testing.T) {
	full, fullLens := chargedTraffic(t, false)
	charged, chargedLens := chargedTraffic(t, true)
	if !reflect.DeepEqual(full, charged) {
		t.Errorf("stats diverge:\nfull    %+v\ncharged %+v", full, charged)
	}
	if full.Flushes == 0 || full.PeakMailboxBytes == 0 {
		t.Errorf("schedule did not exercise flushes/mailbox gauges: %+v", full)
	}
	for _, n := range fullLens {
		if n != 13+3844 {
			t.Errorf("full send delivered a %d-byte payload", n)
		}
	}
	for _, n := range chargedLens {
		if n != 13 {
			t.Errorf("charged send delivered a %d-byte payload, want the 13-byte head", n)
		}
	}
}

// Elided bytes cannot cross a socket: on a TCP comm — even a one-rank
// mesh whose only peer is itself — the charged send is a panic, not a
// short frame.
func TestAsyncChargedPanicsOnTCP(t *testing.T) {
	var msg string
	runTCPWorld(t, 1, func(c *Comm) (err error) {
		if c.InProcess() {
			return fmt.Errorf("TCP comm reports InProcess")
		}
		h := c.Register("big", func(*Comm, int, []byte) {})
		defer func() { msg = fmt.Sprint(recover()) }()
		c.AsyncCharged(0, h, []byte{1, 2, 3}, 100)
		return nil
	})
	if !strings.Contains(msg, "not in-process") {
		t.Errorf("AsyncCharged on a TCP comm: recovered %q, want the not-in-process panic", msg)
	}
	if !NewLocalWorld(2).Comm(1).InProcess() {
		t.Error("local world comm does not report InProcess")
	}
}
