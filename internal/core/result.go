package core

import (
	"time"

	"dnnd/internal/knng"
)

// RoundInfo records one descent round's outcome.
type RoundInfo struct {
	// Updates is the global count of successful neighbor-list updates
	// (the c of Algorithm 1).
	Updates int64
	// Checks is the global count of generated neighbor-check pairs.
	Checks int64
}

// MessageTotals breaks the world-wide app traffic down by DNND message
// type, the accounting behind Figure 4.
type MessageTotals struct {
	Type1Msgs, Type1Bytes int64 // neighbor-check requests
	Type2Msgs, Type2Bytes int64 // feature-vector messages (Type 2 / 2+)
	Type3Msgs, Type3Bytes int64 // distance-return messages
	InitMsgs, InitBytes   int64 // random-initialization traffic
	RevMsgs, RevBytes     int64 // reverse old/new matrix exchange
	OptMsgs, OptBytes     int64 // Section 4.5 reverse-edge merge
	TotalMsgs, TotalBytes int64 // all app messages incl. gather
	// CheckMsgs/CheckBytes cover only the neighbor-check phase
	// (Type 1 + 2 + 3), the quantity Figure 4 plots. All of it crosses
	// ranks: the check phase never messages its own rank.
	CheckMsgs, CheckBytes int64
}

// PhaseTimings breaks a rank's construction wall time down by
// algorithm phase — the "further performance profiling" the paper's
// Section 7 calls for. Times are wall-clock on this rank and include
// message processing performed while the phase was active.
type PhaseTimings struct {
	Init     time.Duration // random initialization (+ warm load)
	Sample   time.Duration // old/new sampling (local)
	Reverse  time.Duration // reverse matrix exchange (4.2)
	Checks   time.Duration // neighbor checks (4.3)
	Optimize time.Duration // reverse-edge merge + prune (4.5)
	Gather   time.Duration // final gather to rank 0
}

// Total sums all phases.
func (p PhaseTimings) Total() time.Duration {
	return p.Init + p.Sample + p.Reverse + p.Checks + p.Optimize + p.Gather
}

// Result is the outcome of a DNND construction on one rank.
type Result struct {
	K     int
	N     int
	Iters int
	// Rounds holds per-round convergence data (identical on all ranks).
	Rounds []RoundInfo
	// Graph is the gathered global graph, each list sorted by distance
	// (up to K*PruneFactor long after cfg.Optimize); non-nil on rank 0
	// only.
	Graph *knng.Graph
	// Comm aggregates message counters over all ranks (identical on
	// all ranks).
	Comm MessageTotals
	// PerMessage is the world-wide per-message-type traffic catalog
	// under the phase-qualified handler names, in registration order
	// (identical on all ranks). It carries the same counters Comm
	// buckets, plus receive counts, keyed by name — the labels bench
	// reports print.
	PerMessage []MessageStat
	// DistEvals is the global number of distance evaluations; BuildLocal
	// adds its seeding search's.
	DistEvals int64
	// Workers is the resolved intra-rank worker-pool width on this rank
	// (Config.Workers after the GOMAXPROCS/nranks default).
	Workers int
	// TasksDeferred is the global number of coalesced tasks staged onto
	// the worker pools (each covers up to taskBatchSize candidates).
	TasksDeferred int64
	// PeakStaged is the largest number of tasks any rank's pool held
	// staged at once (the ring's high-water mark, max over ranks).
	PeakStaged int64
	// KernelTime is the global wall time spent inside batched distance
	// kernels, summed over ranks and workers (sampled one task in 16
	// and extrapolated by candidate count — see workpool.kernelTime).
	// Divided by build wall time it is the benchmark's
	// engine.offload_frac: how much of a build the worker pools can take
	// off the rank goroutines.
	KernelTime time.Duration
	// Phases is this rank's per-phase timing breakdown.
	Phases PhaseTimings
}

// collectTotals aggregates per-handler counters over all ranks,
// bucketing the message catalog into the Figure 4 totals.
func (b *builder[T]) collectTotals(res *Result) {
	res.PerMessage = b.messageStats()
	var t MessageTotals
	for _, ms := range res.PerMessage {
		switch ms.Name {
		case "nd.check.type1":
			t.Type1Msgs, t.Type1Bytes = ms.SentMsgs, ms.SentBytes
		case "nd.check.type2":
			t.Type2Msgs, t.Type2Bytes = ms.SentMsgs, ms.SentBytes
		case "nd.check.type3":
			t.Type3Msgs, t.Type3Bytes = ms.SentMsgs, ms.SentBytes
		case "nd.init.req", "nd.init.resp":
			t.InitMsgs += ms.SentMsgs
			t.InitBytes += ms.SentBytes
		case "nd.reverse.old", "nd.reverse.new":
			t.RevMsgs += ms.SentMsgs
			t.RevBytes += ms.SentBytes
		case "nd.opt.edge":
			t.OptMsgs, t.OptBytes = ms.SentMsgs, ms.SentBytes
		}
	}
	st := b.c.Stats()
	t.TotalMsgs = b.c.AllReduceSum(st.SentMsgs)
	t.TotalBytes = b.c.AllReduceSum(st.SentBytes)
	t.CheckMsgs = t.Type1Msgs + t.Type2Msgs + t.Type3Msgs
	t.CheckBytes = t.Type1Bytes + t.Type2Bytes + t.Type3Bytes
	res.Comm = t
	res.DistEvals = b.c.AllReduceSum(b.distEvals)
	res.TasksDeferred = b.c.AllReduceSum(b.pool.tasksStaged)
	res.PeakStaged = b.c.AllReduceMax(int64(b.pool.peakStaged))
	res.KernelTime = time.Duration(b.c.AllReduceSum(b.pool.kernelTime()))
	res.Phases = PhaseTimings{
		Init:     b.phInit.elapsed,
		Sample:   b.phSample.elapsed,
		Reverse:  b.phReverse.elapsed,
		Checks:   b.phChecks.elapsed,
		Optimize: b.phOpt.elapsed,
		Gather:   b.phGather.elapsed,
	}
}
