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
	// Conns, when positive, switches to pipelined multi-connection
	// mode: Conns shared connections carry all Concurrency workers
	// (worker w pins to connection w mod Conns) with replies matched by
	// ID, so the generator saturates a multi-worker server without one
	// TCP connection per in-flight request. The report then includes
	// per-connection latency quantiles beside the aggregate. Zero keeps
	// the classic one-connection-per-worker closed/open loop.
	Conns int
	// Collect, when non-nil, receives every reply with its request
	// index (used by the e2e suite to compare against ground truth).
	// It is called concurrently from worker goroutines.
	Collect func(i int, res *msg.SResult)
	// Mutate enables mixed read/write mode against a mutable server:
	// each request slot becomes an ingest, delete, flush, or query,
	// chosen deterministically from the request index and Seed per the
	// fractions below, and the report splits latency quantiles per op
	// class. Incompatible with Conns (the pipelined client only routes
	// query replies).
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
	// ReportErrors adds a per-kind transport-error breakdown to the
	// report (Report.ErrorKinds), so failover tests can assert not just
	// that the error count is zero but that no class of failure leaked
	// through at all.
	ReportErrors bool
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
	Conns       int            `json:"conns,omitempty"`      // pipelined mode only
	TargetQPS   float64        `json:"target_qps,omitempty"` // open loop only
	WallSeconds float64        `json:"wall_seconds"`
	QPS         float64        `json:"qps"` // achieved completion rate
	ByStatus    map[string]int `json:"by_status"`
	Errors      int            `json:"errors"` // transport failures
	// ErrorKinds breaks Errors down by transport failure kind ("eof",
	// "reset", "refused", "timeout", "io"); filled only when
	// LoadConfig.ReportErrors is set, so replica-kill tests can pin an
	// exact error budget — usually zero.
	ErrorKinds map[string]int `json:"error_kinds,omitempty"`
	Latency    LatencySummary `json:"latency_usec"`
	QueueWait  LatencySummary `json:"queue_wait_usec"`
	Exec       LatencySummary `json:"exec_usec"`
	DistEvals  float64        `json:"dist_evals_per_query"`
	// PerConn holds one latency digest per pipelined connection
	// (index = connection index); a lopsided spread means one
	// connection's reader goroutine, not the server, is the bottleneck.
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

	// Mutate mode setup: defaults, a probe for the committed ID range
	// deletes may target, and the deterministic per-request op plan.
	var opClass []uint8
	var opStatus []uint8
	var mutDone []bool
	var deleteRange uint64
	if cfg.Mutate {
		if cfg.Conns > 0 {
			return nil, errors.New("serve: mutate mode needs per-worker connections; -conns pipelining routes only query replies")
		}
		if cfg.IngestFraction <= 0 {
			cfg.IngestFraction = 0.05
		}
		if cfg.DeleteFraction <= 0 {
			cfg.DeleteFraction = 0.02
		}
		if cfg.IngestBatch <= 0 {
			cfg.IngestBatch = 4
		}
		probe, err := Dial(cfg.Addr, cfg.DialTimeout)
		if err != nil {
			return nil, err
		}
		hello, err := probe.Hello()
		probe.Close()
		if err != nil {
			return nil, err
		}
		deleteRange = uint64(hello.N)
		opClass = make([]uint8, cfg.Requests)
		for i := range opClass {
			opClass[i] = cfg.classify(i)
		}
		opStatus = make([]uint8, cfg.Requests)
		mutDone = make([]bool, cfg.Requests)
	}

	lat := make([]float64, cfg.Requests) // indexed by request, no lock
	results := make([]*msg.SResult, cfg.Requests)
	var errCount atomic.Int64
	var next atomic.Int64

	// Transport-error accounting. The mutex is fine: errors are the
	// exceptional path, and the kinds map only exists on request.
	var errMu sync.Mutex
	var errKinds map[string]int
	if cfg.ReportErrors {
		errKinds = make(map[string]int)
	}
	recordErr := func(err error) {
		errCount.Add(1)
		if errKinds != nil {
			errMu.Lock()
			errKinds[classifyErr(err)]++
			errMu.Unlock()
		}
	}

	// Pipelined mode: a fixed pool of shared connections, dialed up
	// front so a bad address fails fast instead of mid-run.
	var pipes []*PipeClient
	var connOf []int // request index -> connection index
	if cfg.Conns > 0 {
		pipes = make([]*PipeClient, cfg.Conns)
		for i := range pipes {
			pc, err := DialPipe(cfg.Addr, cfg.DialTimeout)
			if err != nil {
				for _, open := range pipes[:i] {
					open.Close()
				}
				return nil, err
			}
			pipes[i] = pc
		}
		defer func() {
			for _, pc := range pipes {
				pc.Close()
			}
		}()
		connOf = make([]int, cfg.Requests)
	}

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

	worker := func(w int) error {
		var c *Client
		var pc *PipeClient
		if pipes != nil {
			pc = pipes[w%len(pipes)]
		} else {
			var err error
			if c, err = Dial(cfg.Addr, cfg.DialTimeout); err != nil {
				return err
			}
			defer c.Close()
		}
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
			if opClass != nil && opClass[i] != opQuery {
				t0 := time.Now()
				var up *msg.SUpdateReply
				var err error
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
				if err != nil {
					recordErr(err)
					c.Close()
					if c, err = Dial(cfg.Addr, cfg.DialTimeout); err != nil {
						return err
					}
					continue
				}
				opStatus[i] = up.Status
				mutDone[i] = true
				continue
			}
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
			var res *msg.SResult
			var err error
			if pc != nil {
				connOf[i] = w % len(pipes)
				res, err = DoPipe(pc, &q)
			} else {
				res, err = Do(c, &q)
			}
			lat[i] = float64(time.Since(t0).Microseconds())
			if err != nil {
				recordErr(err)
				if pc != nil {
					// A pipelined connection is shared; a transport
					// error there is sticky and poisons every worker on
					// it, so surface it instead of retrying forever.
					return err
				}
				// The connection is suspect after a transport error;
				// redial once and keep going so one hiccup doesn't
				// silently shrink the worker pool.
				c.Close()
				if c, err = Dial(cfg.Addr, cfg.DialTimeout); err != nil {
					return err
				}
				continue
			}
			results[i] = res
			if cfg.Collect != nil {
				cfg.Collect(i, res)
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
		Errors:      int(errCount.Load()),
		ErrorKinds:  errKinds,
	}
	var qwait, exec []float64
	var byConn [][]float64
	if pipes != nil {
		byConn = make([][]float64, len(pipes))
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
			if mutDone[i] {
				op := rep.PerOp[opNames[opClass[i]]]
				op.Count++
				op.ByStatus[msg.SStatusName(opStatus[i])]++
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
