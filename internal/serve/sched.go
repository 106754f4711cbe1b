package serve

import (
	"time"

	"dnnd/internal/msg"
	"dnnd/internal/search"
)

// runWorker is one of cfg.Workers goroutines draining the admission
// queue: each takes one request at a time and runs its search, so
// Workers is exactly the number of concurrent searches. The paper's
// query (Section 3.3) is one independent graph search; grouping
// queued queries buys nothing a second worker does not. A worker
// checks stop before every take, so once a forced Shutdown has closed
// it the requests still queued are left for Shutdown to answer.
func (s *Server[T]) runWorker() {
	defer s.loopWG.Done()
	sc := search.NewContext[T]()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case r := <-s.queue:
			if s.cfg.execHook != nil {
				s.cfg.execHook()
			}
			s.exec(sc, r)
		case <-s.stop:
			return
		}
	}
}

// exec answers one dequeued request on the worker's pooled search
// context sc: a query whose deadline expired while queued is dropped
// with SStatusDeadline, the rest run against the snapshot current at
// this moment. Every request gets exactly one reply.
func (s *Server[T]) exec(sc *search.Context[T], r *request[T]) {
	s.m.BatchSize.Observe(1)
	now := time.Now()
	if !r.deadline.IsZero() && now.After(r.deadline) {
		s.m.DeadlineDropped.Add(1)
		r.res = msg.SResult{
			ID: r.id, Status: msg.SStatusDeadline,
			QueueMicros: saturatingMicros(now.Sub(r.enq)),
		}
		r.echoTrace()
		s.finish(r)
		return
	}
	s.runOne(sc, r, s.cur.Load())
}

// runOne executes a single query on a worker's pooled search context
// against the pinned snapshot sn and writes its reply.
// The result slice aliases the context's scratch; it is encoded onto
// the wire by finish before the context's next query, so nothing is
// copied.
func (s *Server[T]) runOne(sc *search.Context[T], r *request[T], sn *snapshot[T]) {
	start := time.Now()
	opt := search.Options{L: r.l, Epsilon: r.eps, Deadline: r.deadline, Tombs: sn.tombs}
	ns, st := search.SearchCtx(sc, sn.graph, sn.data, s.src.Dist, r.vec, opt, r.seed)
	s.m.DistEvals.Add(st.DistEvals)
	status := msg.SStatusOK
	if st.Truncated > 0 {
		status = msg.SStatusPartial
		s.m.DeadlineTruncated.Add(1)
	} else {
		s.m.CompletedOK.Add(1)
	}
	exec := time.Since(start)
	r.res = msg.SResult{
		ID:          r.id,
		Status:      status,
		DistEvals:   st.DistEvals,
		QueueMicros: saturatingMicros(start.Sub(r.enq)),
		ExecMicros:  saturatingMicros(exec),
		Neighbors:   ns,
	}
	r.echoTrace()
	s.m.LatQueue.ObserveDuration(start.Sub(r.enq))
	s.m.LatExec.ObserveDuration(exec)
	s.finish(r)
}

// finish writes the reply held in r.res (encoded zero-copy into the
// connection's write buffer), releases the admission slot, and
// recycles the request. A write failure (client went away) is counted
// but never blocks the drain: the request is still "answered".
func (s *Server[T]) finish(r *request[T]) {
	if err := r.conn.WriteResult(msg.SOpQuery, &r.res); err != nil {
		s.m.WriteErrors.Add(1)
	}
	s.m.LatTotal.ObserveDuration(time.Since(r.enq))
	s.m.Completed.Add(1)
	r.span.End()
	s.cfg.Trace.Counter("serve.inflight", s.m.InFlight.Add(-1))
	s.acc.Gate.Leave()
	s.putRequest(r)
}

func saturatingMicros(d time.Duration) uint32 {
	us := d.Microseconds()
	if us < 0 {
		return 0
	}
	if us > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(us)
}
