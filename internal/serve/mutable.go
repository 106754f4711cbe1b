package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/wire"
)

// MutableConfig turns a Server into an online, mutable index: ingest
// appends points to a pending delta, deletes tombstone points with
// immediate query visibility, and a background refiner folds the delta
// into the graph with an incremental build, publishing the result as a
// new snapshot (an atomic pointer swap; queries in flight keep their
// pinned version and never block).
type MutableConfig[T wire.Scalar] struct {
	// Refine builds the next graph: data is the full dataset (base +
	// pending delta, immutable for the duration of the call), prior is
	// the current graph (covering a prefix of data), dead is a frozen
	// tombstone set over data. The returned graph must cover all of
	// data. The command-line server passes dnnd.Refresh; tests may pass
	// anything deterministic. Called from the refiner goroutine only.
	Refine func(data [][]T, prior *knng.Graph, dead *knng.TombSet) (*knng.Graph, error)
	// RefineEvery triggers a background refinement once the pending
	// delta reaches this many points (default 256). Flush forces one
	// regardless.
	RefineEvery int
	// MaxPending bounds the un-refined delta; ingests that would exceed
	// it are rejected with SStatusOverloaded until the refiner catches
	// up (default 1<<20).
	MaxPending int
	// Gen seeds the generation counter (from a persisted store's
	// manifest; 0 for a fresh index).
	Gen uint64
	// Tombs seeds the tombstone set (from a persisted store). Grown to
	// cover the dataset; nil starts empty.
	Tombs *knng.TombSet
	// Pending seeds the delta with rows persisted but not yet refined
	// into the graph (LoadMutable's pending return).
	Pending [][]T
	// LogIngest, LogDelete, and Publish are optional durability hooks.
	// LogIngest and LogDelete run synchronously on the mutation path
	// with the mutation lock still held, so a log that appends in
	// hook-call order replays correctly: ingest batches arrive in
	// exactly ID-assignment order (point IDs are positional), and a
	// delete is always logged after the ingest that created its IDs.
	// The hooks must be fast (they stall concurrent mutations, not
	// queries) and must not call back into the server. Publish runs on
	// the refiner goroutine after each snapshot swap with the newly
	// published graph, dataset, tombstones, and generation. Hook errors
	// are counted (MutLogErrors) but do not fail the mutation: the
	// in-memory index is the source of truth while the server runs.
	LogIngest func(vecs [][]T) error
	LogDelete func(ids []knng.ID) error
	Publish   func(g *knng.Graph, data [][]T, tombs *knng.TombSet, gen uint64) error
}

func (c MutableConfig[T]) withDefaults() MutableConfig[T] {
	if c.RefineEvery <= 0 {
		c.RefineEvery = 256
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1 << 20
	}
	return c
}

type flushReply struct {
	gen uint64
	err error
}

// mutable is the server's write side. Invariants, all under mu:
//   - data is base rows + appended delta rows; data[:len(snapshot.data)]
//     is never written again (published snapshots alias it).
//   - tombs is always the object published in the current snapshot, so
//     a Kill is immediately visible to every in-flight query.
//   - pendingDead holds deletes of IDs the published tombs does not
//     cover yet (points still in the delta); they are folded into the
//     grown set at the next publish.
//   - gen only moves forward, by exactly one per publish.
type mutable[T wire.Scalar] struct {
	cfg MutableConfig[T]

	mu          sync.Mutex
	data        [][]T
	tombs       *knng.TombSet
	pendingDead []knng.ID
	dirty       bool // un-refined mutations exist
	gen         uint64

	kick   chan struct{} // non-blocking refinement trigger
	flushC chan chan flushReply
	quit   chan struct{}
	done   chan struct{}
}

// EnableMutation switches the server from frozen to mutable serving.
// Call it after New and before Serve; the refiner goroutine starts
// immediately and Shutdown stops it.
func (s *Server[T]) EnableMutation(cfg MutableConfig[T]) error {
	if s.mut != nil {
		return errors.New("serve: mutation already enabled")
	}
	if cfg.Refine == nil {
		return errors.New("serve: MutableConfig needs a Refine function")
	}
	cfg = cfg.withDefaults()

	data := s.src.Data
	baseN := len(data)
	if len(cfg.Pending) > 0 {
		data = append(data[:baseN:baseN], cfg.Pending...)
	}
	tombs := cfg.Tombs
	if tombs == nil {
		tombs = knng.NewTombSet(len(data))
	} else if tombs.Len() > len(data) {
		return fmt.Errorf("serve: tombstone set covers %d IDs but dataset has %d rows",
			tombs.Len(), len(data))
	}
	m := &mutable[T]{
		cfg:    cfg,
		data:   data,
		tombs:  tombs,
		dirty:  len(cfg.Pending) > 0 || tombs.Count() > 0,
		gen:    cfg.Gen,
		kick:   make(chan struct{}, 1),
		flushC: make(chan chan flushReply),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.mut = m
	// Re-publish the initial snapshot with the live tombstone set and
	// generation; the graph still covers only the base rows — pending
	// rows become searchable at the first refinement.
	s.cur.Store(&snapshot[T]{graph: s.src.Graph, data: s.src.Data, tombs: tombs, gen: cfg.Gen})
	s.m.Gen = func() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.gen }
	s.m.PendingDelta = func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.data) - len(s.cur.Load().data)
	}
	go m.refineLoop(s)
	if m.dirty {
		m.kickRefine() // fold persisted pending rows in without waiting for traffic
	}
	return nil
}

// handleMutation decodes, executes, and answers one mutation frame; it
// reports whether the connection is still usable.
func (s *Server[T]) handleMutation(sc *Conn, op uint8, payload []byte, w *wire.Writer) bool {
	rep := s.execMutation(op, payload)
	w.Reset()
	rep.Encode(w)
	return sc.WriteFrame(op, w.Bytes()) == nil
}

func (s *Server[T]) execMutation(op uint8, payload []byte) msg.SUpdateReply {
	m := s.mut
	gen := s.cur.Load().gen
	switch op {
	case msg.SOpIngest:
		var in msg.SIngest[T]
		r := wire.NewReader(payload)
		in.Decode(r)
		if r.Finish() != nil {
			return msg.SUpdateReply{ID: in.ID, Status: msg.SStatusBadRequest, Gen: gen}
		}
		if m == nil {
			s.m.RejectedReadOnly.Add(1)
			return msg.SUpdateReply{ID: in.ID, Status: msg.SStatusReadOnly, Gen: gen}
		}
		if s.acc.Gate.Draining() {
			return msg.SUpdateReply{ID: in.ID, Status: msg.SStatusDraining, Gen: gen}
		}
		for _, v := range in.Vecs {
			if len(v) != s.dim {
				return msg.SUpdateReply{ID: in.ID, Status: msg.SStatusBadRequest, Gen: gen}
			}
		}
		return m.ingest(s, in.ID, in.Vecs)
	case msg.SOpDelete:
		var del msg.SDelete
		r := wire.NewReader(payload)
		del.Decode(r)
		if r.Finish() != nil {
			return msg.SUpdateReply{ID: del.ID, Status: msg.SStatusBadRequest, Gen: gen}
		}
		if m == nil {
			s.m.RejectedReadOnly.Add(1)
			return msg.SUpdateReply{ID: del.ID, Status: msg.SStatusReadOnly, Gen: gen}
		}
		if s.acc.Gate.Draining() {
			return msg.SUpdateReply{ID: del.ID, Status: msg.SStatusDraining, Gen: gen}
		}
		return m.delete(s, del.ID, del.IDs)
	default: // msg.SOpFlush
		var fl msg.SFlush
		r := wire.NewReader(payload)
		fl.Decode(r)
		if r.Finish() != nil {
			return msg.SUpdateReply{ID: fl.ID, Status: msg.SStatusBadRequest, Gen: gen}
		}
		if m == nil {
			s.m.RejectedReadOnly.Add(1)
			return msg.SUpdateReply{ID: fl.ID, Status: msg.SStatusReadOnly, Gen: gen}
		}
		return m.flush(s, fl.ID)
	}
}

// ingest appends vecs to the delta. The rows become searchable at the
// next publish; until then queries answer from the pinned snapshot
// without them (never a torn view). Vecs were decoded into fresh
// slices, so they are retained without copying.
func (m *mutable[T]) ingest(s *Server[T], id uint64, vecs [][]T) msg.SUpdateReply {
	m.mu.Lock()
	pending := len(m.data) - len(s.cur.Load().data)
	if pending+len(vecs) > m.cfg.MaxPending {
		gen := m.gen
		m.mu.Unlock()
		m.kickRefine()
		return msg.SUpdateReply{ID: id, Status: msg.SStatusOverloaded, Gen: gen}
	}
	first := uint64(len(m.data))
	m.data = append(m.data, vecs...)
	if len(vecs) > 0 {
		m.dirty = true
	}
	// Log while still holding mu: IDs are positional, so the log must
	// see batches in exactly ID-assignment order or a replay rebuilds
	// rows at the wrong IDs.
	logErr := false
	if m.cfg.LogIngest != nil && len(vecs) > 0 {
		logErr = m.cfg.LogIngest(vecs) != nil
	}
	gen := m.gen
	pending += len(vecs)
	m.mu.Unlock()

	s.m.IngestOps.Add(1)
	s.m.Ingested.Add(int64(len(vecs)))
	if logErr {
		s.m.MutLogErrors.Add(1)
	}
	if pending >= m.cfg.RefineEvery {
		m.kickRefine()
	}
	return msg.SUpdateReply{ID: id, Status: msg.SStatusOK, Gen: gen, First: first, Count: uint32(len(vecs))}
}

// delete tombstones ids. IDs the published set covers are killed in
// place — the snapshot's own TombSet, so in-flight and future queries
// stop returning them immediately. IDs still in the delta are queued
// on pendingDead and folded in at the next publish (they were never
// searchable to begin with). Unknown and already-dead IDs count out.
func (m *mutable[T]) delete(s *Server[T], id uint64, ids []knng.ID) msg.SUpdateReply {
	m.mu.Lock()
	newly := 0
	for _, v := range ids {
		switch {
		case int(v) >= len(m.data):
			// unknown ID: not an error, just not counted
		case int(v) < m.tombs.Len():
			if m.tombs.Kill(v) {
				newly++
			}
		case !containsID(m.pendingDead, v):
			m.pendingDead = append(m.pendingDead, v)
			newly++
		}
	}
	if newly > 0 {
		m.dirty = true
	}
	// Log under mu, like ingest: a delete must be logged after the
	// ingest that assigned its IDs, or a replay drops it as unknown.
	logErr := false
	if m.cfg.LogDelete != nil && len(ids) > 0 {
		logErr = m.cfg.LogDelete(ids) != nil
	}
	gen := m.gen
	m.mu.Unlock()

	s.m.DeleteOps.Add(1)
	s.m.Tombstoned.Add(int64(newly))
	if logErr {
		s.m.MutLogErrors.Add(1)
	}
	return msg.SUpdateReply{ID: id, Status: msg.SStatusOK, Gen: gen, Count: uint32(newly)}
}

// flush forces a refinement and blocks until the refiner publishes
// (or reports failure). Mutations submitted before the flush are
// guaranteed to be in the published snapshot: the refiner runs a fresh
// refinement for every waiter it picks up, and that refinement
// captures its inputs after the flush was enqueued.
func (m *mutable[T]) flush(s *Server[T], id uint64) msg.SUpdateReply {
	s.m.FlushOps.Add(1)
	ch := make(chan flushReply, 1)
	select {
	case m.flushC <- ch:
	case <-m.quit:
		return msg.SUpdateReply{ID: id, Status: msg.SStatusDraining, Gen: s.cur.Load().gen}
	}
	select {
	case rep := <-ch:
		if rep.err != nil {
			// Refinement failed; the previous snapshot keeps serving and
			// the mutations stay pending. Overloaded = "retry later".
			return msg.SUpdateReply{ID: id, Status: msg.SStatusOverloaded, Gen: rep.gen}
		}
		return msg.SUpdateReply{ID: id, Status: msg.SStatusOK, Gen: rep.gen}
	case <-m.quit:
		return msg.SUpdateReply{ID: id, Status: msg.SStatusDraining, Gen: s.cur.Load().gen}
	}
}

func (m *mutable[T]) kickRefine() {
	select {
	case m.kick <- struct{}{}:
	default: // a refinement is already pending
	}
}

// stopRefiner terminates the refiner goroutine and waits for it. An
// in-progress refinement runs to completion (incremental builds are
// not cancellable mid-protocol) and still publishes.
func (m *mutable[T]) stopRefiner() {
	close(m.quit)
	<-m.done
}

// Failed refinements are retried with exponential backoff so pending
// mutations do not sit unsearchable until the next mutation or flush
// happens to re-kick the refiner.
const (
	refineRetryMin = 100 * time.Millisecond
	refineRetryMax = 5 * time.Second
)

// refineLoop is the single background refiner: triggered by kicks
// (delta threshold), flushes, and retry timers after a failure, it
// runs one refinement at a time and answers every flush waiter it
// picked up before starting.
func (m *mutable[T]) refineLoop(s *Server[T]) {
	defer close(m.done)
	backoff := refineRetryMin
	var retry *time.Timer
	var retryC <-chan time.Time
	stopRetry := func() {
		if retry != nil {
			retry.Stop()
			retry, retryC = nil, nil
		}
	}
	defer stopRetry()
	for {
		var waiters []chan flushReply
		select {
		case <-m.kick:
		case <-retryC:
			retry, retryC = nil, nil
		case ch := <-m.flushC:
			waiters = append(waiters, ch)
		case <-m.quit:
			return
		}
	coalesce:
		for {
			select {
			case ch := <-m.flushC:
				waiters = append(waiters, ch)
			default:
				break coalesce
			}
		}
		gen, err := m.refineOnce(s)
		for _, ch := range waiters {
			ch <- flushReply{gen: gen, err: err}
		}
		stopRetry()
		if err != nil {
			retry = time.NewTimer(backoff)
			retryC = retry.C
			if backoff *= 2; backoff > refineRetryMax {
				backoff = refineRetryMax
			}
		} else {
			backoff = refineRetryMin
		}
	}
}

// refineOnce captures a frozen view of the mutations (full dataset
// slice, tombstones cloned and grown over it), runs the incremental
// build outside the lock, then publishes the result as a new snapshot
// under the lock. Mutations arriving during the build are safe: base
// deletes hit the still-published old TombSet (visible immediately,
// re-captured by the publish-time clone), delta deletes queue on
// pendingDead, and ingests append past newN — all of them re-mark the
// state dirty for the next round.
func (m *mutable[T]) refineOnce(s *Server[T]) (uint64, error) {
	m.mu.Lock()
	if !m.dirty {
		gen := m.gen
		m.mu.Unlock()
		return gen, nil
	}
	newN := len(m.data)
	data := m.data[:newN:newN]
	prior := s.cur.Load().graph
	frozen := m.tombs.CloneGrow(newN)
	for _, id := range m.pendingDead {
		frozen.Kill(id) // all pendingDead IDs are < newN by construction
	}
	m.dirty = false // mutations from here on re-dirty for the next round
	m.mu.Unlock()

	g, err := m.cfg.Refine(data, prior, frozen)
	if err == nil && g.NumVertices() != newN {
		err = fmt.Errorf("serve: refine returned %d vertices for %d rows", g.NumVertices(), newN)
	}
	if err != nil {
		m.mu.Lock()
		m.dirty = true
		gen := m.gen
		m.mu.Unlock()
		s.m.RefineErrors.Add(1)
		return gen, err
	}

	m.mu.Lock()
	// Publish-time tombstones: re-clone from the live set so deletes
	// that landed during the build are not lost, then fold in the
	// pendingDead entries the grown range now covers.
	newTombs := m.tombs.CloneGrow(newN)
	rest := m.pendingDead[:0]
	for _, id := range m.pendingDead {
		if int(id) < newN {
			newTombs.Kill(id)
		} else {
			rest = append(rest, id) // ingested during the build, still delta
		}
	}
	m.pendingDead = rest
	m.tombs = newTombs
	m.gen++
	gen := m.gen
	s.cur.Store(&snapshot[T]{graph: g, data: data, tombs: newTombs, gen: gen})
	if len(m.data) > newN || len(rest) > 0 {
		m.dirty = true
	}
	m.mu.Unlock()

	s.m.Refines.Add(1)
	if m.cfg.Publish != nil {
		if perr := m.cfg.Publish(g, data, newTombs, gen); perr != nil {
			s.m.MutLogErrors.Add(1)
		}
	}
	return gen, nil
}

func containsID(ids []knng.ID, id knng.ID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
