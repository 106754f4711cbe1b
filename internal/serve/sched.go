package serve

import (
	"sync"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/search"
	"dnnd/internal/wire"
)

// worker is one query executor's reusable state: a pooled search
// context and the warm-entry buffer, both owned by one worker
// goroutine for its lifetime.
type worker[T wire.Scalar] struct {
	sc   *search.Context[T]
	warm []knng.ID
}

// runWorker is one of cfg.Workers goroutines draining the admission
// queue: each takes one request at a time and runs its search, so
// Workers is exactly the number of concurrent searches. The paper's
// query (Section 3.3) is one independent graph search; grouping
// queued queries buys nothing a second worker does not. A worker
// checks stop before every take, so once a forced Shutdown has closed
// it the requests still queued are left for Shutdown to answer.
func (s *Server[T]) runWorker() {
	defer s.loopWG.Done()
	w := worker[T]{sc: search.NewContext[T]()}
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
			s.exec(&w, r)
		case <-s.stop:
			return
		}
	}
}

// exec answers one dequeued request on w: a query whose deadline
// expired while queued is dropped with SStatusDeadline, the rest run
// against the snapshot current at this moment. Every request gets
// exactly one reply.
func (s *Server[T]) exec(w *worker[T], r *request[T]) {
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
	// Only a query that opted in (SFlagWarm) pays for the warm-cache
	// copy, made into the worker's reused buffer.
	var warm []knng.ID
	if r.warm {
		w.warm = s.warm.snapshotInto(w.warm)
		warm = w.warm
	}
	s.runOne(w.sc, r, warm, s.cur.Load())
}

// runOne executes a single query on a worker's pooled search context
// against the pinned snapshot sn and writes its reply.
// The result slice aliases the context's scratch; it is encoded onto
// the wire by finish before the context's next query, so nothing is
// copied.
func (s *Server[T]) runOne(sc *search.Context[T], r *request[T], warmSnap []knng.ID, sn *snapshot[T]) {
	start := time.Now()
	opt := search.Options{L: r.l, Epsilon: r.eps, Deadline: r.deadline, Tombs: sn.tombs}
	if r.warm && len(warmSnap) > 0 {
		// The warm cache is fed from the latest snapshot's results; a
		// query that pinned an older snapshot across a growing swap must
		// not seed entry points the pinned graph does not have.
		ok := true
		for _, id := range warmSnap {
			if int(id) >= len(sn.data) {
				ok = false
				break
			}
		}
		if ok {
			opt.Entries = warmSnap
			s.m.WarmServed.Add(1)
		}
	}
	ns, st := search.SearchCtx(sc, sn.graph, sn.data, s.src.Dist, r.vec, opt, r.seed)
	s.m.DistEvals.Add(st.DistEvals)
	status := msg.SStatusOK
	if st.Truncated > 0 {
		status = msg.SStatusPartial
		s.m.DeadlineTruncated.Add(1)
	} else {
		s.m.CompletedOK.Add(1)
	}
	if s.warm != nil {
		s.warm.feed(ns)
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

// warmCache is a small ring of recently-returned good neighbor IDs,
// served as extra search entry points to queries that ask for them
// (SFlagWarm). Fresh results displace the oldest entries; the
// snapshot handed to a query is a copy, so searches never hold the
// lock.
type warmCache struct {
	mu   sync.Mutex
	ids  []knng.ID
	next int
	full bool
}

func newWarmCache(capacity int) *warmCache {
	return &warmCache{ids: make([]knng.ID, capacity)}
}

// feed records the best few results of a completed query.
func (w *warmCache) feed(ns []knng.Neighbor) {
	take := 2
	if take > len(ns) {
		take = len(ns)
	}
	if take == 0 {
		return
	}
	w.mu.Lock()
	for i := 0; i < take; i++ {
		w.ids[w.next] = ns[i].ID
		w.next++
		if w.next == len(w.ids) {
			w.next = 0
			w.full = true
		}
	}
	w.mu.Unlock()
}

// snapshot copies the current entries (deduplicated lazily by the
// search's visited set, so duplicates here are harmless).
func (w *warmCache) snapshot() []knng.ID {
	return w.snapshotInto(nil)
}

// snapshotInto is snapshot into a reused buffer (per-worker, so
// queries at steady state allocate nothing for it).
func (w *warmCache) snapshotInto(dst []knng.ID) []knng.ID {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.next
	if w.full {
		n = len(w.ids)
	}
	if n == 0 {
		return nil
	}
	return append(dst[:0], w.ids[:n]...)
}

// size reports the number of cached entries (a gauge).
func (w *warmCache) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.full {
		return len(w.ids)
	}
	return w.next
}
