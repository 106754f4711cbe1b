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
// Section 4.3. The zero value is the unoptimized two-sided pattern of
// Figure 1a; Optimized() enables all three saving techniques
// (Figure 1b). The individual flags exist for the ablation experiment;
// SkipRedundant and PruneDistant only take effect when OneSided is set,
// since Type 2+/Type 3 messages exist only in the one-sided flow.
type Protocol struct {
	// OneSided (4.3.1): the center vertex sends one Type 1 message to
	// u1 only; u1 forwards its feature vector to u2 (Type 2/2+), and u2
	// returns the distance (Type 3).
	OneSided bool
	// SkipRedundant (4.3.2): drop Type 2 messages when u2 is already a
	// neighbor of u1, and Type 3 messages when u1 was already a
	// neighbor of u2.
	SkipRedundant bool
	// PruneDistant (4.3.3): attach u1's farthest-neighbor distance to
	// Type 2+ messages and suppress the Type 3 reply when the computed
	// distance cannot improve u1's list.
	PruneDistant bool
}

// Optimized returns the full Figure 1b protocol.
func Optimized() Protocol {
	return Protocol{OneSided: true, SkipRedundant: true, PruneDistant: true}
}

// Unoptimized returns the Figure 1a baseline protocol.
func Unoptimized() Protocol { return Protocol{} }

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

	// Workers is the intra-rank worker-pool width for the descent hot
	// phase: distance evaluations staged by the message handlers are
	// spread over this many goroutines per rank while all neighbor-list
	// mutation, protocol decisions, and sends stay on the owning rank
	// goroutine, applied in submission order (see workpool.go). The
	// result is bit-identical for every width. 0 (the default) resolves
	// to GOMAXPROCS / nranks, clamped to at least 1, so co-located
	// ranks share the machine instead of oversubscribing it.
	Workers int

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
	if cfg.Workers < 0 {
		return fmt.Errorf("core: Workers=%d must be >= 0", cfg.Workers)
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
