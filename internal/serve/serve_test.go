package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/msg"
	"dnnd/internal/search"
	"dnnd/internal/wire"
)

func randData(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		data[i] = v
	}
	return data
}

// testSource builds a small in-memory float32 index.
func testSource(t testing.TB, n, dim, k int) Source[float32] {
	t.Helper()
	data := randData(n, dim, 41)
	dist, err := metric.ForFloat32(metric.SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	return Source[float32]{
		Graph:  brute.KNNGraph(data, k, dist, 0),
		Data:   data,
		Dist:   dist,
		Metric: string(metric.SquaredL2),
		K:      k,
	}
}

// TestFrameRoundTrip drives the one frame reader (ReadFrameInto — what
// every Conn, server or Client side, reads through) with a
// reused buffer: good frames round-trip, and a bad length prefix is an
// error before any payload-sized allocation.
func TestFrameRoundTrip(t *testing.T) {
	prefix := func(n uint32) []byte {
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:4], n)
		return hdr[:]
	}
	big := bytes.Repeat([]byte{0xAB}, 5000) // outgrows the reader's first buffer
	cases := []struct {
		name    string
		in      []byte
		op      uint8
		payload []byte
		bad     bool
	}{
		{name: "payload", in: appendFrame(nil, 7, []byte("abc")), op: 7, payload: []byte("abc")},
		{name: "empty payload", in: appendFrame(nil, 9, nil), op: 9},
		{name: "grows the buffer", in: appendFrame(nil, 3, big), op: 3, payload: big},
		{name: "end of stream", in: nil, bad: true},
		{name: "cut mid-payload", in: appendFrame(nil, 7, []byte("abc"))[:6], bad: true},
		// A zero length cannot even hold the op byte.
		{name: "zero length", in: prefix(0), bad: true},
		// An absurd length must be rejected before allocation.
		{name: "maxFrame+1", in: prefix(maxFrame + 1), bad: true},
		{name: "max uint32", in: prefix(^uint32(0)), bad: true},
	}
	var buf []byte // shared across cases, like a connection's
	for _, c := range cases {
		op, p, err := ReadFrameInto(bytes.NewReader(c.in), &buf)
		if c.bad {
			if err == nil {
				t.Errorf("%s: accepted (op=%d, %d payload bytes)", c.name, op, len(p))
			}
		} else if err != nil || op != c.op || !bytes.Equal(p, c.payload) {
			t.Errorf("%s: op=%d payload=%d bytes err=%v", c.name, op, len(p), err)
		}
		if cap(buf) > 2*len(big) {
			t.Fatalf("%s: reader grew its buffer to %d bytes", c.name, cap(buf))
		}
	}
	// Consecutive frames on one stream through one reused buffer (each
	// payload is valid until the next read, so check it before that).
	r := bytes.NewReader(append(appendFrame(nil, 7, []byte("abc")), appendFrame(nil, 9, []byte("de"))...))
	buf = nil
	_, p1, err1 := ReadFrameInto(r, &buf)
	s1 := string(p1)
	_, p2, err2 := ReadFrameInto(r, &buf)
	if err1 != nil || err2 != nil || s1 != "abc" || string(p2) != "de" {
		t.Fatalf("ReadFrameInto: %q %v, %q %v", s1, err1, p2, err2)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram reports non-zero summary")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Max() != 1000 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if m := h.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean = %v, want 500.5", m)
	}
	// The p50 of 1..1000 is 500, which lives in bucket [256, 512).
	if q := h.Quantile(0.5); q < 256 || q >= 512 {
		t.Fatalf("p50 = %v, want within [256, 512)", q)
	}
	// The p99 (rank 990) lives in bucket [512, 1024).
	if q := h.Quantile(0.99); q < 512 || q >= 1024 {
		t.Fatalf("p99 = %v, want within [512, 1024)", q)
	}
	if h.Quantile(0.5) > h.Quantile(0.99) {
		t.Fatalf("quantiles not monotone")
	}
}

// collectReplies decodes SResult frames arriving on c until it closes.
func collectReplies(t *testing.T, c net.Conn) <-chan msg.SResult {
	t.Helper()
	out := make(chan msg.SResult, 16)
	go func() {
		defer close(out)
		br := bufio.NewReader(c)
		var buf []byte
		for {
			op, payload, err := ReadFrameInto(br, &buf)
			if err != nil {
				return
			}
			if op != msg.SOpQuery {
				t.Errorf("unexpected reply op %d", op)
				return
			}
			var res msg.SResult
			r := wire.NewReader(payload)
			res.Decode(r)
			if err := r.Finish(); err != nil {
				t.Errorf("bad reply payload: %v", err)
				return
			}
			out <- res
		}
	}()
	return out
}

// appendFrame appends a framed message to buf and returns the extended
// slice: the bytes a Conn puts on the wire for one frame.
func appendFrame(buf []byte, op uint8, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = op
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

func encodeQuery(q *msg.SQuery[float32]) []byte {
	var w wire.Writer
	q.Encode(&w)
	return append([]byte(nil), w.Bytes()...)
}

// TestAdmissionRejections pins the typed-rejection semantics
// deterministically: the scheduler is intentionally not running, so a
// full queue stays full and every admission outcome is forced, not
// raced.
func TestAdmissionRejections(t *testing.T) {
	src := testSource(t, 50, 4, 4)
	s := &Server[float32]{
		cfg:  Config{}.withDefaults(),
		src:  src,
		dim:  4,
		elem: "float32",
		m:    &Metrics{},
		acc:  NewAcceptor(0, nil, nil),
		stop: make(chan struct{}),
	}
	s.cur.Store(&snapshot[float32]{graph: src.Graph, data: src.Data})
	// A depth-1 queue and no worker running: a full queue stays full,
	// so every admission outcome below is forced.
	s.queue = make(chan *request[float32], 1)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	sc := NewConn(server, 0)
	replies := collectReplies(t, client)

	var q msg.SQuery[float32]
	var scratch []float32
	handle := func(payload []byte) bool {
		return s.handleQuery(sc, payload, &q, &scratch)
	}
	mk := func(id uint64) []byte {
		return encodeQuery(&msg.SQuery[float32]{ID: id, L: 4, Vec: src.Data[0]})
	}
	expect := func(id uint64, status uint8) {
		t.Helper()
		select {
		case res := <-replies:
			if res.ID != id || res.Status != status {
				t.Fatalf("reply ID=%d status=%s, want ID=%d status=%s",
					res.ID, msg.SStatusName(res.Status), id, msg.SStatusName(status))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply for ID %d (rejection must never hang)", id)
		}
	}

	if !handle(mk(1)) { // fills the queue, no reply yet
		t.Fatalf("first query should be admitted")
	}
	if !handle(mk(2)) { // queue full
		t.Fatalf("overload reply failed")
	}
	expect(2, msg.SStatusOverloaded)

	s.acc.Gate.mu.Lock()
	s.acc.Gate.draining = true
	s.acc.Gate.mu.Unlock()
	if !handle(mk(3)) {
		t.Fatalf("draining reply failed")
	}
	expect(3, msg.SStatusDraining)
	s.acc.Gate.mu.Lock()
	s.acc.Gate.draining = false
	s.acc.Gate.mu.Unlock()

	// Wrong dimensionality is a bad request, not a crash.
	if !handle(encodeQuery(&msg.SQuery[float32]{ID: 4, L: 4, Vec: []float32{1}})) {
		t.Fatalf("bad-request reply failed")
	}
	expect(4, msg.SStatusBadRequest)
	// So is an L larger than the dataset.
	if !handle(encodeQuery(&msg.SQuery[float32]{ID: 5, L: 1000, Vec: src.Data[0]})) {
		t.Fatalf("bad-L reply failed")
	}
	expect(5, msg.SStatusBadRequest)

	m := s.m
	if m.Accepted.Load() != 1 || m.RejectedOverload.Load() != 1 ||
		m.RejectedDraining.Load() != 1 || m.RejectedBad.Load() != 2 {
		t.Fatalf("counters: accepted=%d overload=%d draining=%d bad=%d",
			m.Accepted.Load(), m.RejectedOverload.Load(),
			m.RejectedDraining.Load(), m.RejectedBad.Load())
	}
	// Balance the admitted request's gate entry (nothing will run it).
	s.acc.Gate.Leave()
}

// TestDeadlineSemantics: a query whose deadline expired in the queue
// is dropped with SStatusDeadline; one that expires mid-execution
// returns its best-so-far with SStatusPartial.
func TestDeadlineSemantics(t *testing.T) {
	src := testSource(t, 300, 8, 8)
	s, err := New(src, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	sc := NewConn(server, 0)
	replies := collectReplies(t, client)
	now := time.Now()

	// Expired while queued: dropped before execution.
	s.acc.Gate.Enter()
	s.m.InFlight.Add(1)
	ctx := search.NewContext[float32]()
	s.exec(ctx, &request[float32]{
		conn: sc, id: 10, l: 8, vec: src.Data[0],
		deadline: now.Add(-time.Millisecond), enq: now.Add(-2 * time.Millisecond),
	})
	res := <-replies
	if res.ID != 10 || res.Status != msg.SStatusDeadline || len(res.Neighbors) != 0 {
		t.Fatalf("queued-expiry reply: ID=%d status=%s neighbors=%d",
			res.ID, msg.SStatusName(res.Status), len(res.Neighbors))
	}
	if s.m.DeadlineDropped.Load() != 1 {
		t.Fatalf("DeadlineDropped = %d", s.m.DeadlineDropped.Load())
	}

	// Expired mid-execution: the interrupt fires at the first expansion,
	// leaving the seeded candidates as a partial answer.
	s.acc.Gate.Enter()
	s.m.InFlight.Add(1)
	s.runOne(ctx, &request[float32]{
		conn: sc, id: 11, l: 8, vec: src.Data[0],
		deadline: now, enq: now,
	}, s.cur.Load())
	res = <-replies
	if res.ID != 11 || res.Status != msg.SStatusPartial {
		t.Fatalf("mid-exec expiry reply: ID=%d status=%s", res.ID, msg.SStatusName(res.Status))
	}
	if len(res.Neighbors) == 0 {
		t.Fatalf("partial reply carried no best-so-far results")
	}
	if s.m.DeadlineTruncated.Load() != 1 {
		t.Fatalf("DeadlineTruncated = %d", s.m.DeadlineTruncated.Load())
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s, err := New(testSource(t, 60, 4, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRetiredFlagBitIgnored pins that bit 0 of SQuery.Flags, retired
// and reserved in package msg, changes nothing: a query with it set
// gets the same IDs, distances and evaluation count as the same query
// without it, on a frozen server and on a mutable one whose snapshot
// has grown and carries tombstones.
func TestRetiredFlagBitIgnored(t *testing.T) {
	const l, retired = 10, uint8(1)
	if retired&msg.SFlagTrace != 0 {
		t.Fatal("bit 0 is SFlagTrace")
	}
	check := func(t *testing.T, c *Client, vecs [][]float32) {
		t.Helper()
		for i, vec := range vecs {
			var got [2]msg.SResult
			for j, flags := range []uint8{0, retired} {
				res, err := Do(c, &msg.SQuery[float32]{ID: uint64(i), Seed: int64(i + 1), L: l, Vec: vec, Flags: flags})
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != msg.SStatusOK {
					t.Fatalf("query %d flags=%d: status %s", i, flags, msg.SStatusName(res.Status))
				}
				got[j] = *res
				got[j].Neighbors = append([]knng.Neighbor(nil), res.Neighbors...)
			}
			plain, flagged := got[0], got[1]
			if flagged.DistEvals != plain.DistEvals || len(flagged.Neighbors) != len(plain.Neighbors) {
				t.Fatalf("query %d: flagged evals=%d len=%d, plain evals=%d len=%d", i,
					flagged.DistEvals, len(flagged.Neighbors), plain.DistEvals, len(plain.Neighbors))
			}
			for j := range plain.Neighbors {
				if flagged.Neighbors[j] != plain.Neighbors[j] {
					t.Fatalf("query %d rank %d: flagged %+v, plain %+v", i, j, flagged.Neighbors[j], plain.Neighbors[j])
				}
			}
		}
	}

	t.Run("frozen", func(t *testing.T) {
		src := testSource(t, 300, 8, 8)
		s, err := New(src, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		c, err := Dial(ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		check(t, c, randData(24, 8, 91))
	})

	t.Run("mutable", func(t *testing.T) {
		const n, dim = 400, 8
		_, c, shutdown := mutableFixture(t, n, dim, 8, Config{Workers: 1}, MutableConfig[float32]{
			RefineEvery: 1 << 20, // only the explicit flush publishes
		})
		defer shutdown()
		if up, err := Ingest(c, randData(40, dim, 92)); err != nil || up.Status != msg.SStatusOK {
			t.Fatalf("ingest: %+v, %v", up, err)
		}
		if up, err := c.Flush(); err != nil || up.Status != msg.SStatusOK {
			t.Fatalf("flush: %+v, %v", up, err)
		}
		if up, err := c.Delete([]knng.ID{3, 17, n + 5}); err != nil || up.Status != msg.SStatusOK {
			t.Fatalf("delete: %+v, %v", up, err)
		}
		check(t, c, randData(24, dim, 93))
	})
}
