package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"dnnd/internal/msg"
	"dnnd/internal/obs"
)

// TestServeRequestTracing pins the server's span timeline: admitted
// requests record overlapping "serve.query" async spans (one per
// request, admission to reply) plus a "serve.inflight" counter track,
// and the export validates as Perfetto JSON.
func TestServeRequestTracing(t *testing.T) {
	const nq = 64
	src := testSource(t, 600, 8, 6)
	tr := obs.NewTracer(1 << 12)
	track := tr.Track("serve", 0)

	s, err := New(src, Config{
		L: 10, QueueDepth: 256, Workers: 4,
		Trace: track,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Shutdown(context.Background())

	queries := randData(nq, 8, 77)
	rep, err := RunLoad[float32](LoadConfig{
		Addr:        ln.Addr().String(),
		Requests:    nq,
		Concurrency: 16,
		L:           10,
		Seed:        1,
		DialTimeout: 5 * time.Second,
	}, queries)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByStatus["ok"] != nq {
		t.Fatalf("load report: %+v", rep.ByStatus)
	}
	// A request's span ends after its reply is written, so the client
	// can hold every reply before the last span is recorded. Shutdown
	// returns once every admitted request has left the gate.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	if _, err := doc.Validate(); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if got := doc.AsyncSpanNames()["serve.query"]; got != nq {
		t.Errorf("serve.query spans = %d, want %d", got, nq)
	}
	// Two counter samples per admitted request (admission and reply).
	if got := doc.CounterNames()["serve.inflight"]; got != 2*nq {
		t.Errorf("serve.inflight samples = %d, want %d", got, 2*nq)
	}
}

// TestServeTracePropagation pins the distributed-trace contract on the
// serve side: a query carrying a sampled trace context gets its
// serve.query span recorded as a KindTraced span parented on the
// remote (router) span, and the reply echoes the trace ID with the
// server's own span ID so the caller can stitch the edge. An untraced
// query on the same connection stays on the local async-span path and
// the pre-PR-10 reply layout.
func TestServeTracePropagation(t *testing.T) {
	src := testSource(t, 600, 8, 6)
	tr := obs.NewTracer(1 << 10)
	track := tr.Track("serve", 0)
	s, err := New(src, Config{
		L: 10, QueueDepth: 64, Workers: 1,
		Trace: track,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Shutdown(context.Background())

	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := randData(2, 8, 99)
	parent := obs.TraceCtx{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	q := msg.SQuery[float32]{ID: 1, L: 10, Vec: queries[0]}
	q.SetTrace(msg.STrace{TraceID: parent.TraceID, SpanID: parent.SpanID, Sampled: true})
	res, err := Do(c, &q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != msg.SStatusOK {
		t.Fatalf("traced query status = %d", res.Status)
	}
	if res.Trace.TraceID != parent.TraceID || !res.Trace.Sampled {
		t.Fatalf("reply trace echo = %+v, want trace %x", res.Trace, parent.TraceID)
	}
	if res.Trace.SpanID == 0 {
		t.Fatalf("tracing server echoed no span ID")
	}

	q2 := msg.SQuery[float32]{ID: 2, L: 10, Vec: queries[1]}
	res2, err := Do(c, &q2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != (msg.STrace{}) {
		t.Fatalf("untraced query got a trace echo: %+v", res2.Trace)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spans := doc.TracedSpans()
	if len(spans) != 1 {
		t.Fatalf("traced spans = %d, want 1 (untraced query must not emit one)", len(spans))
	}
	sp := spans[0]
	if sp.Name != "serve.query" || sp.Trace != parent.TraceID || sp.Parent != parent.SpanID {
		t.Fatalf("serve.query span not parented on remote ctx: %+v", sp)
	}
	if sp.Span != res.Trace.SpanID {
		t.Fatalf("recorded span %x != echoed span %x", sp.Span, res.Trace.SpanID)
	}
}

// TestServeMetricsOp: SOpMetrics returns the registry's FullDump as
// JSON — the mergeable scrape the router federates.
func TestServeMetricsOp(t *testing.T) {
	src := testSource(t, 600, 8, 6)
	s, err := New(src, Config{L: 10, QueueDepth: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Shutdown(context.Background())

	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	queries := randData(1, 8, 5)
	if _, err := Do(c, &msg.SQuery[float32]{ID: 1, L: 10, Vec: queries[0]}); err != nil {
		t.Fatal(err)
	}

	// The server records a query's metrics after writing its reply, so
	// a scrape sent straight after the reply can overtake them: poll.
	var dump obs.FullDump
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		raw, err := c.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		dump = obs.FullDump{}
		if err := json.Unmarshal(raw, &dump); err != nil {
			t.Fatalf("metrics reply not a FullDump: %v\n%s", err, raw)
		}
		if dump.Hists["dnnd_serve_latency_usec"].Count == 1 || time.Now().After(deadline) {
			break
		}
	}
	if dump.Samples[`dnnd_serve_queries_total{status="ok"}`] != 1 {
		t.Fatalf("query counter missing from dump: %+v", dump.Samples)
	}
	if h, ok := dump.Hists["dnnd_serve_latency_usec"]; !ok || h.Count != 1 {
		t.Fatalf("latency hist missing from dump: %+v", dump.Hists)
	}
}
