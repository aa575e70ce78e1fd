package ugs

import (
	"fmt"

	"ugs/internal/core"
)

// Option configures a Sparsifier at Lookup/construction time. Options are
// applied in order; an invalid value surfaces as an error from Lookup (or
// from the Factory that applies it). Options a method does not use are
// ignored — the seed, for example, drives every method, while the cut order
// only affects GDB — so one option list can configure any registry method.
type Option func(*config) error

// config collects the applied options. Zero values mean "method default"
// (the paper's recommended settings, see core.Options), so an empty option
// list reproduces core.Sparsify with the zero core.Options.
type config struct {
	discrepancy Discrepancy
	backbone    Backbone
	cutOrder    int
	entropy     float64
	tau         float64
	maxIters    int
	seed        int64
	denseSweeps bool
	progress    func(RunStats)
}

// newConfig applies opts over the defaults.
func newConfig(opts []Option) (*config, error) {
	cfg := &config{}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// coreOptions translates the configuration for the internal/core dispatcher.
func (c *config) coreOptions(m Method) core.Options {
	return core.Options{
		Method:      m,
		Discrepancy: c.discrepancy,
		Backbone:    c.backbone,
		K:           c.cutOrder,
		H:           c.entropy,
		Tau:         c.tau,
		MaxIters:    c.maxIters,
		Seed:        c.seed,
		DenseSweeps: c.denseSweeps,
		Progress:    c.progress,
	}
}

// WithSeed fixes the random seed. Every registered method is fully
// deterministic given (graph, alpha, options), so equal seeds reproduce
// runs exactly.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithDiscrepancy selects the degree-discrepancy objective (Absolute or
// Relative). Used by gdb and emd; lp's objective is fixed (it minimizes
// the total absolute discrepancy by construction, Theorem 1).
func WithDiscrepancy(d Discrepancy) Option {
	return func(c *config) error {
		if d != Absolute && d != Relative {
			return fmt.Errorf("ugs: unknown discrepancy %d", int(d))
		}
		c.discrepancy = d
		return nil
	}
}

// WithBackbone selects the backbone construction (BackboneSpanning or
// BackboneRandom). Used by gdb, emd and lp.
func WithBackbone(b Backbone) Option {
	return func(c *config) error {
		if b != BackboneSpanning && b != BackboneRandom {
			return fmt.Errorf("ugs: unknown backbone %d", int(b))
		}
		c.backbone = b
		return nil
	}
}

// WithCutOrder selects the cut order k to preserve: 1 preserves expected
// degrees, values in [2, n) preserve expected k-cuts, and KAll applies the
// k = n redistribution rule. Used by gdb only; emd and lp are defined for
// k = 1.
func WithCutOrder(k int) Option {
	return func(c *config) error {
		if k < 1 && k != KAll {
			return fmt.Errorf("ugs: cut order %d outside [1, n) and not KAll", k)
		}
		c.cutOrder = k
		return nil
	}
}

// WithEntropy sets the entropy parameter h ∈ [0, 1]: when an optimal
// probability step would increase an edge's entropy, only the fraction h of
// the step is applied. Unlike the core.Options.H field, an explicit
// WithEntropy(0) means a true zero (the HZero sentinel is applied
// internally); omitting the option selects the paper's default 0.05.
func WithEntropy(h float64) Option {
	return func(c *config) error {
		if !(h >= 0 && h <= 1) {
			return fmt.Errorf("ugs: entropy parameter h = %v outside [0, 1]", h)
		}
		if h == 0 {
			c.entropy = HZero
		} else {
			c.entropy = h
		}
		return nil
	}
}

// WithTau sets the convergence threshold on the objective improvement
// between iterations. Used by gdb and emd; the default is 1e-9·|V|.
func WithTau(tau float64) Option {
	return func(c *config) error {
		if !(tau > 0) {
			return fmt.Errorf("ugs: convergence threshold τ = %v not positive", tau)
		}
		c.tau = tau
		return nil
	}
}

// WithMaxIters bounds the method's outer iteration loop: GDB sweeps
// (default 200) or EMD rounds (default 30).
func WithMaxIters(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("ugs: iteration bound %d below 1", n)
		}
		c.maxIters = n
		return nil
	}
}

// WithDenseSweeps disables the epoch-stamped worklist inside GDB sweeps
// (including EMD's M-phase), recomputing every backbone edge's update step
// on every sweep. The output is identical with or without the worklist —
// the worklist skips only steps that are provably no-ops — so this option
// exists for ablation benchmarks and equivalence tests. Used by gdb and
// emd.
func WithDenseSweeps() Option {
	return func(c *config) error {
		c.denseSweeps = true
		return nil
	}
}

// WithProgress installs a callback observing the run as it progresses: it
// receives a RunStats snapshot after every GDB sweep, EMD round, batch of
// LP pivots, NI calibration, or SS spanner construction. The callback runs
// synchronously on the sparsifier's goroutine; to cancel a run from inside
// it, cancel the context passed to Sparsify.
func WithProgress(fn func(RunStats)) Option {
	return func(c *config) error {
		c.progress = fn
		return nil
	}
}
