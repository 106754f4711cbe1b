package ygm

// HandlerStats counts traffic for one registered handler, letting the
// application break totals down by message type (the Type 1 / Type 2 /
// Type 2+ / Type 3 accounting of the paper's Figure 4). Name is the
// registered handler name, so snapshots stay self-describing after
// aggregation across ranks — bench reports label message catalogs
// from it without holding a Comm.
type HandlerStats struct {
	Name           string
	SentMsgs       int64
	SentBytes      int64
	RemoteSentMsgs int64 // subset of SentMsgs with destination != source rank
	RecvMsgs       int64
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
		s.PerHandler[i].RemoteSentMsgs += h.RemoteSentMsgs
		s.PerHandler[i].RecvMsgs += h.RecvMsgs
	}
}
