package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/obs"
	"dnnd/internal/wire"
)

// LoadConfig shapes one load-generation run against a dnnd-serve
// address. QPS selects the loop discipline: 0 is a closed loop
// (Concurrency workers fire back-to-back, the classic
// throughput-ceiling probe), positive is an open loop (arrivals at a
// fixed rate regardless of completions, the latency-under-load probe —
// when the server can't keep up, queueing shows in the tail instead of
// silently throttling the offered rate).
type LoadConfig struct {
	Addr        string
	Requests    int
	Concurrency int
	QPS         float64       // 0 = closed loop
	L           int           // 0 = server default
	Epsilon     float64       // 0 = server default
	Deadline    time.Duration // 0 = server default
	Seed        int64
	DialTimeout time.Duration
	// Conns is the number of shared connections (Clients) the workers
	// ride: worker w uses connection w mod Conns, with queries pipelined
	// and matched by ID, so a few connections keep a multi-worker server
	// busy. Zero means one connection per worker. A positive Conns also
	// adds per-connection latency quantiles to the report.
	Conns int
	// Collect, when non-nil, receives every reply with its request
	// index (used by the e2e suite to compare against ground truth).
	// It is called concurrently from worker goroutines.
	Collect func(i int, res *msg.SResult)
	// Mutate enables mixed read/write mode against a mutable server:
	// each request slot becomes an ingest, delete, flush, or query,
	// chosen deterministically from the request index and Seed per the
	// fractions below, and the report splits latency quantiles per op
	// class. Mutations ride the same connections as queries.
	Mutate bool
	// IngestFraction and DeleteFraction are the shares of requests that
	// become ingest and delete ops (defaults 0.05 and 0.02); the rest
	// stay queries. Ingests carry IngestBatch vectors each (default 4),
	// cycling over the supplied query vectors; deletes target one
	// pseudo-random committed ID each.
	IngestFraction float64
	DeleteFraction float64
	IngestBatch    int
	// FlushEvery, when positive, turns every FlushEvery-th request into
	// a blocking flush (refine + snapshot swap), so swap latency shows
	// up in the report as its own op class. Zero relies on the server's
	// background refinement trigger.
	FlushEvery int
	// TraceSample stamps a fresh sampled trace context (SFlagTrace +
	// client-chosen trace ID) on this fraction of query requests,
	// chosen deterministically from the request index and Seed. A
	// tracing server or router adopts the trace ID, and the reply
	// echoes it — Report.SlowestTraces then names the slowest requests'
	// timelines. Against a tracing router the echo fills in even at 0
	// (the router stamps its own traces); sampling here additionally
	// makes the client the trace root.
	TraceSample float64
}

// TraceRef names one traced request in a report: the hex trace ID (the
// join key into a tracecheck -merge timeline) with its latency.
type TraceRef struct {
	Trace       string  `json:"trace"`
	Request     int     `json:"request"`
	Status      string  `json:"status"`
	LatencyUsec float64 `json:"latency_usec"`
}

// traceSampled deterministically picks the requests TraceSample stamps
// (same splitmix-style hash discipline as classify, independent bits).
func traceSampled(i int, seed int64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := uint64(i)*0x9E3779B97F4A7C15 + uint64(seed)*0x94D049BB133111EB + 0x2545F4914F6CDD1D
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return float64(h>>11)/float64(1<<53) < p
}

// classifyErr buckets a transport error for Report.ErrorKinds. The
// buckets are deliberately coarse — the failover suite only needs to
// tell connection churn (reset/refused) from protocol damage.
func classifyErr(err error) string {
	var ne net.Error
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return "eof"
	case errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE):
		return "reset"
	case errors.Is(err, syscall.ECONNREFUSED):
		return "refused"
	case errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	default:
		return "io"
	}
}

// Per-op class tags used by mutate mode.
const (
	opQuery uint8 = iota
	opIngest
	opDelete
	opFlush
)

var opNames = [...]string{"query", "ingest", "delete", "flush"}

// classify deterministically maps request index i to an op class.
// splitmix64-style hashing keeps the mix independent of request order,
// so two runs with the same Seed issue the identical op sequence.
func (c *LoadConfig) classify(i int) uint8 {
	if !c.Mutate {
		return opQuery
	}
	if c.FlushEvery > 0 && (i+1)%c.FlushEvery == 0 {
		return opFlush
	}
	h := uint64(i)*0x9E3779B97F4A7C15 + uint64(c.Seed)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	u := float64(h>>11) / float64(1<<53)
	switch {
	case u < c.IngestFraction:
		return opIngest
	case u < c.IngestFraction+c.DeleteFraction:
		return opDelete
	default:
		return opQuery
	}
}

// OpReport is one op class's share of a mutate-mode run.
type OpReport struct {
	Count    int            `json:"count"`
	ByStatus map[string]int `json:"by_status"`
	Latency  LatencySummary `json:"latency_usec"`
}

// LatencySummary is an exact (sample-sorted) latency digest in
// microseconds.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func summarize(us []float64) LatencySummary {
	p50, p90, p95, p99, mean, max := quantiles(us)
	return LatencySummary{P50: p50, P90: p90, P95: p95, P99: p99, Mean: mean, Max: max}
}

// Report is the JSON-ready result of a load run. Latency is measured
// client-side around each round trip; QueueWait and Exec are the
// server-reported shares, so Latency − QueueWait − Exec approximates
// protocol and network overhead.
type Report struct {
	Requests    int            `json:"requests"`
	Concurrency int            `json:"concurrency"`
	Conns       int            `json:"conns,omitempty"`      // LoadConfig.Conns, if set
	TargetQPS   float64        `json:"target_qps,omitempty"` // open loop only
	WallSeconds float64        `json:"wall_seconds"`
	QPS         float64        `json:"qps"` // achieved completion rate
	ByStatus    map[string]int `json:"by_status"`
	Errors      int            `json:"errors"` // transport failures
	// ErrorKinds breaks Errors down by transport failure kind ("eof",
	// "reset", "refused", "timeout", "io"); absent on a run without
	// transport errors.
	ErrorKinds map[string]int `json:"error_kinds,omitempty"`
	Latency    LatencySummary `json:"latency_usec"`
	QueueWait  LatencySummary `json:"queue_wait_usec"`
	Exec       LatencySummary `json:"exec_usec"`
	DistEvals  float64        `json:"dist_evals_per_query"`
	// PerConn holds one latency digest per shared connection (index =
	// connection index), filled when LoadConfig.Conns is set; a lopsided
	// spread means one connection's reader goroutine, not the server, is
	// the bottleneck.
	PerConn []LatencySummary `json:"per_conn_latency_usec,omitempty"`
	// PerOp splits the run by op class in mutate mode ("query",
	// "ingest", "delete", "flush"), each with its own status counts and
	// latency quantiles. The aggregate Latency/QueueWait/Exec fields
	// then cover only the query ops, so they stay comparable with
	// read-only runs.
	PerOp map[string]*OpReport `json:"per_op,omitempty"`
	// SlowestTraces lists the slowest percentile of traced requests
	// (slowest first, at most 16): requests whose reply carried a trace
	// echo, i.e. sampled by TraceSample or traced by the server side.
	// Each entry's Trace is the hex trace ID to look up in a merged
	// trace timeline.
	SlowestTraces []TraceRef `json:"slowest_traces,omitempty"`
}

// RunLoad drives cfg.Requests queries (cycling over the supplied
// query vectors) and returns the aggregated report. Request i carries
// seed cfg.Seed*1_000_003 + i — the seed search.Batch{Seed: cfg.Seed}
// would use for query i — so a closed-loop run over exactly
// len(queries) requests reproduces a Batch call result-for-result.
func RunLoad[T wire.Scalar](cfg LoadConfig, queries [][]T) (*Report, error) {
	if len(queries) == 0 {
		return nil, errors.New("serve: no query vectors")
	}
	if cfg.Requests <= 0 {
		cfg.Requests = len(queries)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}

	// The shared connections, dialed up front so a bad address fails
	// fast instead of mid-run. After a transport error the worker that
	// saw it drops its slot's client and redials, but only while the
	// failed client is still the slot's current one, so the workers
	// sharing a slot replace it once (the drop-if-current rule of the
	// router's replica.demote).
	nConns := cfg.Conns
	if nConns <= 0 {
		nConns = cfg.Concurrency
	}
	slots := make([]*Client, nConns)
	var slotMu sync.Mutex
	defer func() {
		for _, c := range slots {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range slots {
		var err error
		if slots[i], err = Dial(cfg.Addr, cfg.DialTimeout); err != nil {
			return nil, err
		}
	}
	current := func(k int) *Client {
		slotMu.Lock()
		defer slotMu.Unlock()
		return slots[k]
	}
	redial := func(k int, failed *Client) error {
		slotMu.Lock()
		defer slotMu.Unlock()
		if slots[k] != failed {
			return nil
		}
		failed.Close()
		c, err := Dial(cfg.Addr, cfg.DialTimeout)
		if err == nil {
			slots[k] = c
		}
		return err
	}

	// Mutate mode setup: defaults, a probe for the committed ID range
	// deletes may target, and the deterministic per-request op plan.
	var opClass []uint8
	var updates []*msg.SUpdateReply // indexed by request, nil = not answered
	var deleteRange uint64
	if cfg.Mutate {
		if cfg.IngestFraction <= 0 {
			cfg.IngestFraction = 0.05
		}
		if cfg.DeleteFraction <= 0 {
			cfg.DeleteFraction = 0.02
		}
		if cfg.IngestBatch <= 0 {
			cfg.IngestBatch = 4
		}
		hello, err := slots[0].Hello()
		if err != nil {
			return nil, err
		}
		deleteRange = uint64(hello.N)
		opClass = make([]uint8, cfg.Requests)
		for i := range opClass {
			opClass[i] = cfg.classify(i)
		}
		updates = make([]*msg.SUpdateReply, cfg.Requests)
	}

	lat := make([]float64, cfg.Requests) // indexed by request, no lock
	results := make([]*msg.SResult, cfg.Requests)
	var next atomic.Int64

	// Transport-error accounting. The mutex is fine: errors are the
	// exceptional path.
	var errMu sync.Mutex
	var errCount int
	var errKinds map[string]int
	recordErr := func(err error) {
		errMu.Lock()
		errCount++
		if errKinds == nil {
			errKinds = make(map[string]int)
		}
		errKinds[classifyErr(err)]++
		errMu.Unlock()
	}
	connOf := make([]int, cfg.Requests) // request index -> connection index

	// Open loop: a feeder emits arrival tokens at the target rate; the
	// buffer is sized so a slow server delays service, never arrivals.
	// Arrivals follow an absolute schedule (start + i*interval) rather
	// than a ticker: when the feeder oversleeps it catches up with a
	// burst instead of silently lowering the offered rate.
	var tokens chan struct{}
	if cfg.QPS > 0 {
		tokens = make(chan struct{}, cfg.Requests)
		go func() {
			interval := time.Duration(float64(time.Second) / cfg.QPS)
			start := time.Now()
			for i := 0; i < cfg.Requests; i++ {
				if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
					time.Sleep(d)
				}
				tokens <- struct{}{}
			}
			close(tokens)
		}()
	}

	// mutate runs request i as the mutation its op class names.
	mutate := func(c *Client, i int) error {
		var up *msg.SUpdateReply
		var err error
		t0 := time.Now()
		switch opClass[i] {
		case opIngest:
			vecs := make([][]T, cfg.IngestBatch)
			for j := range vecs {
				vecs[j] = queries[(i+j)%len(queries)]
			}
			up, err = Ingest(c, vecs)
		case opDelete:
			h := uint64(i)*0xD1B54A32D192ED03 + uint64(cfg.Seed)
			h ^= h >> 32
			up, err = c.Delete([]knng.ID{knng.ID(h % deleteRange)})
		default: // opFlush
			up, err = c.Flush()
		}
		lat[i] = float64(time.Since(t0).Microseconds())
		updates[i] = up
		return err
	}
	query := func(c *Client, i int) error {
		q := msg.SQuery[T]{
			ID:      uint64(i),
			Seed:    cfg.Seed*1_000_003 + int64(i),
			L:       uint32(cfg.L),
			Epsilon: float32(cfg.Epsilon),
			Vec:     queries[i%len(queries)],
		}
		if cfg.Deadline > 0 {
			q.DeadlineMicros = saturatingMicros(cfg.Deadline)
		}
		if traceSampled(i, cfg.Seed, cfg.TraceSample) {
			q.SetTrace(msg.STrace{TraceID: obs.NewTraceID(), Sampled: true})
		}
		t0 := time.Now()
		res, err := Do(c, &q)
		lat[i] = float64(time.Since(t0).Microseconds())
		results[i] = res
		if err == nil && cfg.Collect != nil {
			cfg.Collect(i, res)
		}
		return err
	}
	worker := func(w int) error {
		k := w % len(slots)
		for {
			if tokens != nil {
				if _, ok := <-tokens; !ok {
					return nil
				}
			}
			i := int(next.Add(1)) - 1
			if i >= cfg.Requests {
				return nil
			}
			connOf[i] = k
			c := current(k)
			var err error
			if opClass != nil && opClass[i] != opQuery {
				err = mutate(c, i)
			} else {
				err = query(c, i)
			}
			if err != nil {
				// Count it, then replace the connection so one hiccup
				// does not silently shrink the worker pool.
				recordErr(err)
				if err := redial(k, c); err != nil {
					return err
				}
			}
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.Concurrency)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = worker(w)
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Requests:    cfg.Requests,
		Concurrency: cfg.Concurrency,
		Conns:       cfg.Conns,
		TargetQPS:   cfg.QPS,
		WallSeconds: wall.Seconds(),
		ByStatus:    make(map[string]int),
		Errors:      errCount,
		ErrorKinds:  errKinds,
	}
	var qwait, exec []float64
	var byConn [][]float64
	if cfg.Conns > 0 {
		byConn = make([][]float64, len(slots))
	}
	var evals, answered int64
	// Per-op split (mutate mode): mutation latencies go to their own
	// class; query stats additionally fill the classic aggregate
	// fields. okLat reuses lat's storage, which stays safe because the
	// append position never passes the read index.
	var perOpLat map[uint8][]float64
	if cfg.Mutate {
		perOpLat = make(map[uint8][]float64)
		rep.PerOp = make(map[string]*OpReport)
		for _, name := range opNames {
			rep.PerOp[name] = &OpReport{ByStatus: make(map[string]int)}
		}
	}
	var traced []TraceRef
	okLat := lat[:0] // reuses lat's storage; read lat[i] before appending
	for i, res := range results {
		if opClass != nil && opClass[i] != opQuery {
			if up := updates[i]; up != nil {
				op := rep.PerOp[opNames[opClass[i]]]
				op.Count++
				op.ByStatus[msg.SStatusName(up.Status)]++
				perOpLat[opClass[i]] = append(perOpLat[opClass[i]], lat[i])
			}
			continue
		}
		if res == nil {
			continue
		}
		if cfg.Mutate {
			op := rep.PerOp[opNames[opQuery]]
			op.Count++
			op.ByStatus[msg.SStatusName(res.Status)]++
		}
		rep.ByStatus[msg.SStatusName(res.Status)]++
		v := lat[i]
		if res.Trace.TraceID != 0 {
			traced = append(traced, TraceRef{
				Trace:       fmt.Sprintf("%013x", res.Trace.TraceID),
				Request:     i,
				Status:      msg.SStatusName(res.Status),
				LatencyUsec: v,
			})
		}
		okLat = append(okLat, v)
		if byConn != nil {
			ci := connOf[i]
			byConn[ci] = append(byConn[ci], v)
		}
		qwait = append(qwait, float64(res.QueueMicros))
		exec = append(exec, float64(res.ExecMicros))
		if res.Status == msg.SStatusOK || res.Status == msg.SStatusPartial {
			evals += res.DistEvals
			answered++
		}
	}
	rep.QPS = float64(len(okLat)) / wall.Seconds()
	rep.Latency = summarize(okLat)
	rep.QueueWait = summarize(qwait)
	rep.Exec = summarize(exec)
	if cfg.Mutate {
		rep.PerOp[opNames[opQuery]].Latency = rep.Latency
		for class, us := range perOpLat {
			rep.PerOp[opNames[class]].Latency = summarize(us)
		}
		for name, op := range rep.PerOp {
			if op.Count == 0 {
				delete(rep.PerOp, name)
			}
		}
	}
	if byConn != nil {
		rep.PerConn = make([]LatencySummary, len(byConn))
		for ci, us := range byConn {
			rep.PerConn[ci] = summarize(us)
		}
	}
	if answered > 0 {
		rep.DistEvals = float64(evals) / float64(answered)
	}
	// Slowest traced requests: any reply that carried a trace echo
	// names a timeline; report the slowest percentile of them.
	if len(traced) > 0 {
		sort.Slice(traced, func(i, j int) bool { return traced[i].LatencyUsec > traced[j].LatencyUsec })
		keep := (len(traced) + 99) / 100 // slowest 1%, at least 1
		if keep > 16 {
			keep = 16
		}
		rep.SlowestTraces = traced[:keep]
	}
	return rep, nil
}
