package ygm

import (
	"reflect"
	"testing"

	"dnnd/internal/wire"
)

// ctrlRecorder is a Transport that keeps the destination and handler of
// every record sent through it and delivers nothing.
type ctrlRecorder struct{ sent []ctrlSend }

type ctrlSend struct {
	dest int
	h    HandlerID
}

func (r *ctrlRecorder) Send(dest int, buf []byte, _ int) error {
	r.sent = append(r.sent, ctrlSend{dest, HandlerID(buf[0]) | HandlerID(buf[1])<<8})
	return nil
}

func (r *ctrlRecorder) Close() error { return nil }

func (r *ctrlRecorder) take() []ctrlSend {
	s := r.sent
	r.sent = nil
	return s
}

func idleReport(epoch uint64, sent, recv int64) []byte {
	w := wire.NewWriter(24)
	w.Uint64(epoch)
	w.Int64(sent)
	w.Int64(recv)
	return w.Bytes()
}

func confirmAck(confirmID, epoch uint64, sent, recv int64) []byte {
	w := wire.NewWriter(32)
	w.Uint64(confirmID)
	w.Uint64(epoch)
	w.Int64(sent)
	w.Int64(recv)
	w.Bool(true)
	return w.Bytes()
}

// TestBarrierCoordinatorConfirmsBeforeRelease drives rank 0's side of
// the two-round quiescence detection by hand. Balanced idle reports
// from every rank start a confirmation round but release nobody: a
// report is a snapshot, so a message can still be in flight. An ack
// whose counters moved since its rank's report (here the receive
// count) aborts the round. Only a round in which every ack matches its
// report releases the ranks.
func TestBarrierCoordinatorConfirmsBeforeRelease(t *testing.T) {
	c := newComm(0, 3)
	rec := &ctrlRecorder{}
	c.tp = rec
	c.epoch, c.inBarrier = 1, true

	handleIdleReport(c, 0, idleReport(1, 0, 0))
	handleIdleReport(c, 1, idleReport(1, 1, 0))
	handleIdleReport(c, 2, idleReport(1, 0, 1))
	if c.released {
		t.Fatal("released on balanced idle reports alone, without a confirmation round")
	}
	if got, want := rec.take(), []ctrlSend{{1, hdlConfirm}, {2, hdlConfirm}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after balanced reports sent %v, want %v", got, want)
	}

	handleConfirmAck(c, 1, confirmAck(1, 1, 1, 0))
	handleConfirmAck(c, 2, confirmAck(1, 1, 0, 2))
	if c.released {
		t.Fatal("released although rank 2's receive count moved since its report")
	}
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("an aborted round sent %v", got)
	}

	handleIdleReport(c, 2, idleReport(1, 0, 1))
	if got, want := rec.take(), []ctrlSend{{1, hdlConfirm}, {2, hdlConfirm}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a fresh report sent %v, want a new confirmation round %v", got, want)
	}
	handleConfirmAck(c, 1, confirmAck(2, 1, 1, 0))
	handleConfirmAck(c, 2, confirmAck(2, 1, 0, 1))
	if !c.released {
		t.Fatal("not released after every ack matched its report")
	}
	if got, want := rec.take(), []ctrlSend{{1, hdlRelease}, {2, hdlRelease}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("release sent %v, want %v", got, want)
	}
}
