// Package core implements DNND, the paper's contribution: a
// distributed-memory NN-Descent (Algorithm 1) over the ygm
// communication substrate, including the Section 4.3 communication-
// saving neighbor-check protocol, Section 4.2 reverse-matrix exchange,
// Section 4.4 application-level batched barriers, and the Section 4.5
// distributed graph optimizations.
package core

import (
	"errors"
	"fmt"
)

// Protocol selects the neighbor-check communication pattern of
// Section 4.3 as one ordered level: each level adds one saving to the
// one below it, in the order the paper stacks them (Figure 1a to
// Figure 1b, and Figure 4's with/without comparison). The zero value is
// the unoptimized two-sided pattern. A pair whose endpoints share an
// owner takes no Type 2 or Type 3 at any level: that rank checks it in
// place, deciding as the flow would, so the messages are all between
// distinct ranks.
type Protocol uint8

const (
	// TwoSided (Figure 1a): both endpoints' owners send a Type 1, each
	// forwards its vector, and each side updates only its own list.
	TwoSided Protocol = iota
	// OneSided (4.3.1): the center vertex sends one Type 1 message to
	// u1 only; u1 forwards its feature vector to u2 (Type 2), and u2
	// returns the distance (Type 3).
	OneSided
	// SkipRedundant (4.3.2): drop Type 2 messages when u2 is already a
	// neighbor of u1, and Type 3 messages when u1 was already a
	// neighbor of u2.
	SkipRedundant
	// PruneDistant (4.3.3): attach u1's farthest-neighbor distance to
	// Type 2+ messages and suppress the Type 3 reply when the computed
	// distance cannot improve u1's list. This is the full Figure 1b
	// protocol.
	PruneDistant
)

// Optimized returns the full Figure 1b protocol.
func Optimized() Protocol { return PruneDistant }

// Unoptimized returns the Figure 1a baseline protocol.
func Unoptimized() Protocol { return TwoSided }

// Config holds the DNND construction parameters. Defaults follow
// Section 5.1.3 of the paper where applicable.
type Config struct {
	// K is the number of neighbors per vertex in the constructed graph.
	K int
	// Rho is the NN-Descent sample rate (paper default 0.8).
	Rho float64
	// Delta is the early-termination threshold: the descent stops when
	// a round discovers fewer than Delta*K*N closer neighbors (paper
	// default 0.001). The threshold is at least 1, so a round with no
	// update always stops it, however small Delta*K*N is.
	Delta float64
	// MaxIters bounds the number of descent rounds regardless of
	// convergence (safety net; PyNNDescent-style).
	MaxIters int
	// BatchSize is the global number of neighbor-check requests
	// submitted between application-level barriers (Section 4.4; the
	// paper uses 2^25-2^29, scaled down here by default).
	BatchSize int64
	// Protocol selects the neighbor-check communication pattern.
	Protocol Protocol
	// Seed drives all sampling; each rank derives its own stream.
	Seed int64

	// workers, when positive, fixes the intra-rank worker-pool width for
	// the descent hot phase; only in-package tests set it. Every build
	// otherwise runs GOMAXPROCS / nranks workers per rank (at least 1),
	// so co-located ranks share the machine instead of oversubscribing
	// it: distance evaluations staged by the message handlers spread
	// over the pool, while all neighbor-list mutation, protocol
	// decisions, and sends stay on the owning rank goroutine, applied in
	// submission order (see workpool.go). The result is bit-identical
	// at every width, so a width experiment sets GOMAXPROCS.
	workers int

	// Optimize applies the Section 4.5 post-processing (reverse-edge
	// merge and degree pruning to K*PruneFactor) to the final graph.
	Optimize bool
	// PruneFactor is the m in the k*m degree cap (paper default 1.5).
	// It must be >= 1; 0 selects the default.
	PruneFactor float64
}

// Defaults for the Config fields that Validate fills when unset.
const (
	defaultMaxIters    = 30
	defaultBatchSize   = 1 << 18 // the paper's 2^25-2^29, scaled to laptop-sized runs
	defaultPruneFactor = 1.5     // the paper's m
)

// DefaultConfig returns the paper's parameters for a given K, with the
// batch size scaled to laptop-sized runs.
func DefaultConfig(k int) Config {
	return Config{
		K:           k,
		Rho:         0.8,
		Delta:       0.001,
		MaxIters:    defaultMaxIters,
		BatchSize:   defaultBatchSize,
		Protocol:    Optimized(),
		Seed:        1,
		Optimize:    true,
		PruneFactor: defaultPruneFactor,
	}
}

// Validate checks the configuration and fills unset optional fields
// with defaults.
func (cfg *Config) Validate(n int) error {
	if cfg.K < 1 {
		return errors.New("core: K must be >= 1")
	}
	if n < 2 {
		return errors.New("core: dataset needs at least 2 points")
	}
	if cfg.K >= n {
		return fmt.Errorf("core: K=%d must be smaller than the dataset size %d", cfg.K, n)
	}
	if cfg.Rho <= 0 || cfg.Rho > 1 {
		return fmt.Errorf("core: Rho=%v out of (0, 1]", cfg.Rho)
	}
	if cfg.Delta < 0 {
		return fmt.Errorf("core: Delta=%v must be >= 0", cfg.Delta)
	}
	if cfg.Protocol > PruneDistant {
		return fmt.Errorf("core: Protocol=%d out of range [TwoSided, PruneDistant]", cfg.Protocol)
	}
	if cfg.PruneFactor == 0 {
		cfg.PruneFactor = defaultPruneFactor
	} else if !(cfg.PruneFactor >= 1) {
		return fmt.Errorf("core: PruneFactor=%v must be >= 1 (0 selects %v)", cfg.PruneFactor, defaultPruneFactor)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = defaultMaxIters
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = defaultBatchSize
	}
	return nil
}
