package ygm

import "time"

// HandlerStats counts traffic for one registered handler, letting the
// application break totals down by message type (the Type 1 / Type 2 /
// Type 2+ / Type 3 accounting of the paper's Figure 4). Name is the
// registered handler name, so snapshots stay self-describing after
// aggregation across ranks — bench reports label message catalogs
// from it without holding a Comm.
type HandlerStats struct {
	Name      string
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
}

// Stats aggregates one rank's communication counters. Message counts
// are per logical async message (a record), not per transport frame;
// byte counts include the 6-byte record header. Control-plane traffic
// (barrier and reduce protocol) is excluded.
type Stats struct {
	SentMsgs        int64 // app messages submitted (including to self)
	SentBytes       int64
	RemoteSentMsgs  int64 // subset with destination != source rank
	RemoteSentBytes int64
	RecvMsgs        int64 // app messages whose handler completed
	Flushes         int64 // aggregation buffers handed to the transport
	Barriers        int64
	// PeakMailboxDepth/Bytes are high-water marks of this rank's
	// inbound queue — the congestion the Section 4.4 batching bounds.
	PeakMailboxDepth int64
	PeakMailboxBytes int64
	PerHandler       []HandlerStats
}

func (s Stats) clone() Stats {
	out := s
	out.PerHandler = make([]HandlerStats, len(s.PerHandler))
	copy(out.PerHandler, s.PerHandler)
	return out
}

// Add accumulates other into s (for world-level aggregation). Traffic
// counters (messages, bytes, flushes, per-handler entries) sum across
// ranks — each rank contributes distinct traffic.
// Barriers instead takes the MAX: Barrier is collective, so in an
// SPMD run every rank records the same count and summing would
// multiply the world's barrier count by the rank count. Max also does
// the right thing when a rank died early (the survivors' larger count
// wins). PeakMailboxDepth/Bytes are high-water marks, so they too take
// the max — a world-level "worst congestion anywhere" figure.
func (s *Stats) Add(other Stats) {
	s.SentMsgs += other.SentMsgs
	s.SentBytes += other.SentBytes
	s.RemoteSentMsgs += other.RemoteSentMsgs
	s.RemoteSentBytes += other.RemoteSentBytes
	s.RecvMsgs += other.RecvMsgs
	s.Flushes += other.Flushes
	if other.Barriers > s.Barriers {
		s.Barriers = other.Barriers
	}
	if other.PeakMailboxDepth > s.PeakMailboxDepth {
		s.PeakMailboxDepth = other.PeakMailboxDepth
	}
	if other.PeakMailboxBytes > s.PeakMailboxBytes {
		s.PeakMailboxBytes = other.PeakMailboxBytes
	}
	for len(s.PerHandler) < len(other.PerHandler) {
		s.PerHandler = append(s.PerHandler, HandlerStats{})
	}
	for i, h := range other.PerHandler {
		if s.PerHandler[i].Name == "" {
			s.PerHandler[i].Name = h.Name
		}
		s.PerHandler[i].SentMsgs += h.SentMsgs
		s.PerHandler[i].SentBytes += h.SentBytes
		s.PerHandler[i].RecvMsgs += h.RecvMsgs
	}
}

// IntervalStats captures one rank's activity between two consecutive
// barrier exits: messages and bytes sent, application-reported work
// units (AddWork), and the wall-clock span. With every rank on one CPU
// core, wall time cannot show strong scaling, so the harness derives a
// modeled parallel time from Work and SentBytes instead (see
// ModeledCriticalPath); both are reported.
type IntervalStats struct {
	SentMsgs  int64
	SentBytes int64
	Work      float64
	WallTime  time.Duration
}

// CostModel converts per-rank interval work and traffic into modeled
// execution time. Work units are vector-element operations; the rates
// come from a runtime calibration (see the bench package) or from
// defaults representative of one CPU core and a commodity interconnect.
type CostModel struct {
	// SecPerWorkUnit is the seconds one rank needs per work unit
	// (per vector-element distance operation).
	SecPerWorkUnit float64
	// SecPerByte is the per-rank communication cost per sent byte
	// (1/bandwidth share).
	SecPerByte float64
	// SecPerMsg is the per-message overhead (injection rate bound).
	SecPerMsg float64
	// SecPerBarrier is the latency of one global barrier/collective;
	// it is paid once per superstep regardless of rank count, which is
	// what makes strong scaling taper at high node counts.
	SecPerBarrier float64
}

// DefaultCostModel uses ~1 ns per element op (one core, SIMD-less),
// 100 Gb/s links shared per rank, 50 ns per message injection, and a
// 30 us global barrier (typical MPI_Allreduce latency at scale).
func DefaultCostModel() CostModel {
	return CostModel{
		SecPerWorkUnit: 1e-9,
		SecPerByte:     8.0 / 100e9,
		SecPerMsg:      50e-9,
		SecPerBarrier:  30e-6,
	}
}

// IntervalTime returns the modeled time one rank spends on an interval:
// compute plus communication (no overlap assumed, matching the paper's
// observation that DNND phases are communication-heavy).
func (m CostModel) IntervalTime(iv IntervalStats) float64 {
	return iv.Work*m.SecPerWorkUnit +
		float64(iv.SentBytes)*m.SecPerByte +
		float64(iv.SentMsgs)*m.SecPerMsg
}

// ModeledCriticalPath returns the modeled parallel execution time of a
// world run: for each barrier interval the slowest rank bounds the
// interval (BSP superstep semantics), and intervals sum.
func ModeledCriticalPath(perRank [][]IntervalStats, m CostModel) float64 {
	if len(perRank) == 0 {
		return 0
	}
	nIntervals := 0
	for _, ivs := range perRank {
		if len(ivs) > nIntervals {
			nIntervals = len(ivs)
		}
	}
	total := 0.0
	for i := 0; i < nIntervals; i++ {
		worst := 0.0
		for _, ivs := range perRank {
			if i < len(ivs) {
				if t := m.IntervalTime(ivs[i]); t > worst {
					worst = t
				}
			}
		}
		total += worst + m.SecPerBarrier
	}
	return total
}

// TotalWork sums work units over all ranks and intervals.
func TotalWork(perRank [][]IntervalStats) float64 {
	total := 0.0
	for _, ivs := range perRank {
		for _, iv := range ivs {
			total += iv.Work
		}
	}
	return total
}
