package core

import (
	"context"
	"fmt"
	"math/rand"

	"ugs/internal/ugraph"
)

// Method selects a sparsification algorithm.
type Method int

const (
	// MethodGDB is Gradient Descent Backbone (Algorithm 2): the backbone
	// structure is kept fixed and only probabilities are optimized.
	MethodGDB Method = iota
	// MethodEMD is Expectation-Maximization Degree (Algorithm 3): both
	// the backbone structure and the probabilities are optimized.
	MethodEMD
	// MethodLP solves the Theorem 1 linear program for the optimal
	// probability assignment on the backbone (slow; small graphs only).
	MethodLP
	// MethodNI is the Nagamochi–Ibaraki cut-sparsifier benchmark
	// (implemented by internal/ni; core.Sparsify does not dispatch it).
	MethodNI
	// MethodSS is the Baswana–Sen spanner benchmark (implemented by
	// internal/spanner; core.Sparsify does not dispatch it).
	MethodSS
)

// methodNames maps every Method to its canonical (registry) name.
var methodNames = map[Method]string{
	MethodGDB: "gdb",
	MethodEMD: "emd",
	MethodLP:  "lp",
	MethodNI:  "ni",
	MethodSS:  "ss",
}

// String returns the canonical lowercase method name ("gdb", "emd", "lp",
// "ni", "ss"), which round-trips through ParseMethod.
func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod is the inverse of Method.String: it resolves a canonical
// method name (case-sensitive, lowercase) to its Method value.
func ParseMethod(s string) (Method, error) {
	for m, name := range methodNames {
		if s == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown method %q", s)
}

// ParseDiscrepancy is the inverse of Discrepancy.String.
func ParseDiscrepancy(s string) (Discrepancy, error) {
	switch s {
	case Absolute.String():
		return Absolute, nil
	case Relative.String():
		return Relative, nil
	}
	return 0, fmt.Errorf("core: unknown discrepancy %q", s)
}

// ParseBackbone is the inverse of Backbone.String.
func ParseBackbone(s string) (Backbone, error) {
	switch s {
	case BackboneSpanning.String():
		return BackboneSpanning, nil
	case BackboneRandom.String():
		return BackboneRandom, nil
	}
	return 0, fmt.Errorf("core: unknown backbone %q", s)
}

// Options configures Sparsify. The zero value requests the paper's
// recommended defaults: GDB, absolute discrepancy, spanning (BGI) backbone,
// k = 1, h = 0.05.
type Options struct {
	Method      Method
	Discrepancy Discrepancy
	Backbone    Backbone
	// K is the cut order (GDB only; EMD and LP are defined for k = 1).
	// Use KAll for the k = n redistribution rule. Default 1.
	K int
	// H is the entropy parameter in [0, 1]; use HZero to request a true
	// zero. Default 0.05.
	H float64
	// Tau is the convergence threshold; MaxIters bounds GDB sweeps or EMD
	// rounds. Zero values select defaults.
	Tau      float64
	MaxIters int
	// Seed drives backbone randomization. Runs are fully deterministic
	// given (graph, alpha, Options).
	Seed int64
	// Progress, when non-nil, receives a RunStats snapshot after every
	// GDB sweep, EMD round, or batch of LP pivots.
	Progress func(RunStats)
}

// HZero requests a true h = 0 entropy parameter (a zero H field means
// "default", which is 0.05).
const HZero = hExplicitZero

// Sparsify reduces g to α·|E| edges with the configured method and returns
// the sparsified uncertain graph along with run statistics. The input graph
// is not modified. Cancelling ctx aborts the iteration loops and returns the
// context's error.
func Sparsify(ctx context.Context, g *ugraph.Graph, alpha float64, opts Options) (*ugraph.Graph, *RunStats, error) {
	backbone, err := BuildBackbone(g, alpha, opts)
	if err != nil {
		return nil, nil, err
	}
	switch opts.Method {
	case MethodGDB:
		return GDB(ctx, g, backbone, GDBOptions{
			Discrepancy: opts.Discrepancy,
			K:           opts.K,
			H:           opts.H,
			Tau:         opts.Tau,
			MaxIters:    opts.MaxIters,
			Progress:    opts.Progress,
		})
	case MethodEMD:
		if opts.K > 1 || opts.K == KAll {
			return nil, nil, fmt.Errorf("core: EMD supports only k = 1 (got %d)", opts.K)
		}
		return EMD(ctx, g, backbone, EMDOptions{
			Discrepancy: opts.Discrepancy,
			H:           opts.H,
			Tau:         opts.Tau,
			MaxRounds:   opts.MaxIters,
			Progress:    opts.Progress,
		})
	case MethodLP:
		return LPAssign(ctx, g, backbone, opts.Progress)
	case MethodNI, MethodSS:
		return nil, nil, fmt.Errorf("core: method %v is implemented outside core; resolve it through the ugs registry", opts.Method)
	default:
		return nil, nil, fmt.Errorf("core: unknown method %d", opts.Method)
	}
}

// BuildBackbone constructs the backbone edge set for the configured backbone
// type. It is exposed separately so callers can reuse one backbone across
// several probability-assignment methods (as the paper's Table 2 does).
func BuildBackbone(g *ugraph.Graph, alpha float64, opts Options) ([]int, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	switch opts.Backbone {
	case BackboneSpanning:
		return SpanningBackbone(g, alpha, rng)
	case BackboneRandom:
		return RandomBackbone(g, alpha, rng)
	default:
		return nil, fmt.Errorf("core: unknown backbone type %d", opts.Backbone)
	}
}
