package main

import (
	"math"
	"math/rand"
	"runtime/debug"
	"time"

	"dnnd"
	"dnnd/internal/core"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/msg"
	"dnnd/internal/search"
	"dnnd/internal/wire"
	"dnnd/internal/ygm"
)

// Probe sizes: fixed operation counts over the workload's own data.
// The smoke test shrinks them through probeScale.
const (
	pairEvals    = 1_000_000
	barriers     = 10_000
	asyncMsgs    = 1_000_000
	codecTrips   = 200_000
	listUpdates  = 1_000_000
	tileSegment  = 8 // candidates per query in the tiled call
	asyncPayload = 16
)

var probeScale = 1

// layers fills the per-layer metrics of the traced run: the
// decomposition of the timed builds, plus fixed-size probes of single
// layers measured from outside.
func (r *runner) layers(s *samples) error {
	r.buildLayers(s)
	if err := r.obsOverhead(s); err != nil {
		return err
	}
	r.searchProbe(s.builds[len(s.builds)-1].graph)
	if err := r.metricProbe(); err != nil {
		return err
	}
	if err := r.ygmProbe(); err != nil {
		return err
	}
	r.codecProbe()
	r.listProbe()
	if p, ok := r.path.(*routedPath); ok {
		direct, err := p.direct()
		if err != nil {
			return err
		}
		r.set("serve.direct_p50_us", direct)
	}
	return nil
}

// buildLayers splits the timed builds by phase and by layer counter,
// each as the median over the repetitions.
func (r *runner) buildLayers(s *samples) {
	med := func(f func(b buildOut) float64) float64 {
		xs := make([]float64, len(s.builds))
		for i, b := range s.builds {
			xs[i] = f(b)
		}
		return median(xs)
	}
	sec := func(f func(p core.PhaseTimings) time.Duration) float64 {
		return med(func(b buildOut) float64 { return f(b.core.Phases).Seconds() })
	}
	r.set("core.init_s", sec(func(p core.PhaseTimings) time.Duration { return p.Init }))
	r.set("core.sample_s", sec(func(p core.PhaseTimings) time.Duration { return p.Sample }))
	r.set("core.reverse_s", sec(func(p core.PhaseTimings) time.Duration { return p.Reverse }))
	r.set("core.checks_s", sec(func(p core.PhaseTimings) time.Duration { return p.Checks }))
	r.set("core.optimize_s", sec(func(p core.PhaseTimings) time.Duration { return p.Optimize }))
	r.set("core.gather_s", sec(func(p core.PhaseTimings) time.Duration { return p.Gather }))
	// How much of the build's wall the six phases account for.
	r.set("core.phase_sum_frac", med(func(b buildOut) float64 {
		return b.core.Phases.Total().Seconds() / b.wall.Seconds()
	}))
	r.set("core.iters", med(func(b buildOut) float64 { return float64(b.iters) }))
	r.set("core.dist_evals", med(func(b buildOut) float64 { return float64(b.evals) }))
	r.set("core.updates_per_check", med(func(b buildOut) float64 {
		var updates, checks int64
		for _, round := range b.core.Rounds {
			updates += round.Updates
			checks += round.Checks
		}
		return float64(updates) / float64(checks)
	}))

	r.set("engine.kernel_s", med(func(b buildOut) float64 { return b.core.KernelTime.Seconds() }))
	r.set("engine.offload_frac", med(func(b buildOut) float64 {
		return b.core.KernelTime.Seconds() / b.wall.Seconds()
	}))
	r.set("engine.tasks", med(func(b buildOut) float64 { return float64(b.core.TasksDeferred) }))
	r.set("engine.cands_per_task", med(func(b buildOut) float64 {
		return float64(b.evals) / math.Max(1, float64(b.core.TasksDeferred))
	}))

	r.set("ygm.messages", med(func(b buildOut) float64 { return float64(b.msgs) }))
	r.set("ygm.bytes", med(func(b buildOut) float64 { return float64(b.bytes) }))
	r.set("ygm.remote_frac", med(func(b buildOut) float64 {
		return float64(b.ygm.RemoteSentMsgs) / float64(b.ygm.SentMsgs)
	}))
	r.set("ygm.flushes", med(func(b buildOut) float64 { return float64(b.ygm.Flushes) }))
	r.set("ygm.barriers", med(func(b buildOut) float64 { return float64(b.ygm.Barriers) }))
	r.set("ygm.peak_mailbox_bytes", med(func(b buildOut) float64 { return float64(b.ygm.PeakMailboxBytes) }))
}

// obsOverhead runs three builds with the program's own tracer
// attached and compares their median with the untraced builds' median.
func (r *runner) obsOverhead(s *samples) error {
	var walls []float64
	events := 0
	for i := 0; i < 3; i++ {
		opt := r.opt
		opt.Tracer = dnnd.NewTracer()
		debug.FreeOSMemory() // the state every timed build starts from
		b, err := r.buildPlain(opt)
		if err != nil {
			return err
		}
		walls = append(walls, b.wall.Seconds())
		events = 0
		for _, tr := range opt.Tracer.Tracks() {
			events += tr.Len()
		}
	}
	base := median(s.build)
	r.set("obs.trace_overhead_frac", (median(walls)-base)/base)
	r.set("obs.trace_events", float64(events))
	return nil
}

// searchProbe answers the distinct queries once through search.Batch
// over the last built graph for the traversal counters Index hides.
func (r *runner) searchProbe(g *knng.Graph) {
	defer r.tr.begin("search.Batch")()
	in := r.in
	t0 := time.Now()
	_, st := search.Batch(g, in.base, r.dist, in.qs, search.Options{L: r.w.l, Epsilon: r.w.epsilon, Seed: 1}, clients)
	wall := time.Since(t0)
	n := float64(len(in.qs))
	r.set("search.visited_per_query", float64(st.Visited)/n)
	r.set("search.truncated", float64(st.Truncated))
	r.set("search.ns_per_eval", float64(wall.Nanoseconds())*clients/float64(st.DistEvals))
}

// metricProbe times the distance kernel alone: pair by pair through
// metric.ForFloat32, and in tiles through the kernel's ManyMany form.
func (r *runner) metricProbe() error {
	defer r.tr.begin("metric.kernel")()
	base := r.in.base
	rng := rand.New(rand.NewSource(r.seed))
	n := pairEvals / probeScale
	qs := make([][]float32, n/tileSegment)
	cands := make([][]float32, len(qs)*tileSegment)
	offs := make([]int32, len(qs)+1)
	for i := range qs {
		qs[i] = base[rng.Intn(len(base))]
		offs[i+1] = int32((i + 1) * tileSegment)
	}
	for i := range cands {
		cands[i] = base[rng.Intn(len(base))]
	}
	out := make([]float32, len(cands))

	t0 := time.Now()
	for i, c := range cands {
		out[i] = r.dist(qs[i/tileSegment], c)
	}
	r.set("metric.pair_ns_per_eval", float64(time.Since(t0).Nanoseconds())/float64(len(cands)))

	kern, err := metric.KernelFor[float32](r.preset.Metric)
	if err != nil {
		return err
	}
	t0 = time.Now()
	kern.ManyMany(qs, offs, cands, nil, out)
	r.set("metric.tile_ns_per_eval", float64(time.Since(t0).Nanoseconds())/float64(len(cands)))
	return nil
}

// ygmProbe times an idle 4-rank world: empty barriers, then small
// async messages to self and to a peer, each drained by a barrier.
func (r *runner) ygmProbe() error {
	defer r.tr.begin("ygm.world")()
	nb, nm := barriers/probeScale, asyncMsgs/probeScale
	var barrier, self, remote time.Duration // written by rank 0 only
	world := ygm.NewLocalWorld(4)
	err := world.Run(func(c *ygm.Comm) error {
		h := c.Register("probe", func(*ygm.Comm, int, []byte) {})
		payload := make([]byte, asyncPayload)
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < nb; i++ {
			c.Barrier()
		}
		if c.Rank() == 0 {
			barrier = time.Since(t0)
		}
		for _, dest := range []int{0, 1} {
			t0 = time.Now()
			if c.Rank() == 0 {
				for i := 0; i < nm; i++ {
					c.Async(dest, h, payload)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				if dest == 0 {
					self = time.Since(t0)
				} else {
					remote = time.Since(t0)
				}
			}
		}
		return nil
	})
	r.set("ygm.barrier_us", float64(barrier.Microseconds())/float64(nb))
	r.set("ygm.msg_self_ns", float64(self.Nanoseconds())/float64(nm))
	r.set("ygm.msg_remote_ns", float64(remote.Nanoseconds())/float64(nm))
	return err
}

// codecProbe round-trips fixed records through the construction and
// serving codecs, over a vector of the workload's dimension.
func (r *runner) codecProbe() {
	defer r.tr.begin("msg.codec")()
	n := codecTrips / probeScale
	vec := r.in.base[0]
	w := wire.NewWriter(8 * len(vec))
	t2 := msg.Type2[float32]{U1: 1, U2: 2, HasBound: true, Bound: 0.5, Vec: vec}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		w.Reset()
		t2.Encode(w)
	}
	r.set("msg.type2_encode_ns", float64(time.Since(t0).Nanoseconds())/float64(n))

	var back msg.Type2[float32]
	rd := wire.NewReader(nil)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		rd.Reset(w.Bytes())
		back.Decode(rd)
	}
	r.set("msg.type2_decode_ns", float64(time.Since(t0).Nanoseconds())/float64(n))

	q := msg.SQuery[float32]{ID: 7, Seed: 9, L: uint32(r.w.l), Epsilon: float32(r.w.epsilon), Vec: vec}
	var qback msg.SQuery[float32]
	t0 = time.Now()
	for i := 0; i < n; i++ {
		w.Reset()
		q.Encode(w)
		rd.Reset(w.Bytes())
		qback.Decode(rd)
	}
	r.set("msg.squery_codec_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
}

// listProbe applies a fixed stream of candidates to neighbour lists.
func (r *runner) listProbe() {
	defer r.tr.begin("knng.Update")()
	const lists = 4096
	n := listUpdates / probeScale
	rng := rand.New(rand.NewSource(r.seed))
	ls := knng.MakeNeighborLists(lists, k)
	ids := make([]knng.ID, n)
	dists := make([]float32, n)
	for i := range ids {
		ids[i] = knng.ID(rng.Intn(1 << 16))
		dists[i] = rng.Float32()
	}
	t0 := time.Now()
	for i := range ids {
		ls[i%lists].Update(ids[i], dists[i], true)
	}
	r.set("knng.update_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
}
