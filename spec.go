package ugs

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is a serializable sparsifier configuration: the method name plus the
// subset of functional options that affect the output. It exists so callers
// that receive configurations over a wire — the ugs-serve HTTP service, job
// queues, config files — can validate them, build the Sparsifier they
// describe, and key caches on them.
//
// The zero value of every field means "method default", mirroring the
// functional options: two Specs that resolve to the same effective
// configuration produce the same Key even when one spells a default out and
// the other omits it. Entropy is a pointer because an explicit 0 (a true
// h = 0, the HZero sentinel) differs from "use the paper's default 0.05".
type Spec struct {
	// Method is the registry name ("gdb", "emd", "lp", "ni", "ss", or a
	// custom registration). Required.
	Method string `json:"method"`
	// Discrepancy is "absolute" or "relative"; empty selects absolute.
	Discrepancy string `json:"discrepancy,omitempty"`
	// Backbone is "spanning" or "random"; empty selects spanning.
	Backbone string `json:"backbone,omitempty"`
	// CutOrder is the cut order k (GDB only); 0 selects k = 1 and -1
	// requests the k = n rule (KAll).
	CutOrder int `json:"cut_order,omitempty"`
	// Entropy is the entropy parameter h ∈ [0, 1]; nil selects the default
	// 0.05, an explicit 0 a true zero.
	Entropy *float64 `json:"entropy,omitempty"`
	// Tau is the convergence threshold; 0 selects the default 1e-9·|V|.
	Tau float64 `json:"tau,omitempty"`
	// MaxIters bounds the outer iteration loop; 0 selects the method
	// default.
	MaxIters int `json:"max_iters,omitempty"`
	// Seed drives all randomness; runs are deterministic given
	// (graph, alpha, Spec).
	Seed int64 `json:"seed,omitempty"`
}

// normalized returns s with empty optional fields replaced by their canonical
// defaults, so equivalent Specs compare and hash identically.
func (s Spec) normalized() Spec {
	if s.Discrepancy == "" {
		s.Discrepancy = Absolute.String()
	}
	if s.Backbone == "" {
		s.Backbone = BackboneSpanning.String()
	}
	if s.CutOrder == 0 {
		s.CutOrder = 1
	}
	return s
}

// Key returns a canonical string identifying the sparsification output the
// Spec describes on a given input: equal Keys guarantee bit-identical output
// graphs on the same (graph, alpha). It is the cache key used by ugs-serve,
// prefixed there with the graph and alpha. Key is exact: every field
// appears in fixed order with defaults spelled out.
func (s Spec) Key() string {
	n := s.normalized()
	var b strings.Builder
	b.WriteString(n.Method)
	b.WriteString("|d=")
	b.WriteString(n.Discrepancy)
	b.WriteString("|b=")
	b.WriteString(n.Backbone)
	b.WriteString("|k=")
	b.WriteString(strconv.Itoa(n.CutOrder))
	b.WriteString("|h=")
	if n.Entropy == nil {
		b.WriteString("default")
	} else {
		b.WriteString(strconv.FormatFloat(*n.Entropy, 'g', -1, 64))
	}
	b.WriteString("|tau=")
	b.WriteString(strconv.FormatFloat(n.Tau, 'g', -1, 64))
	b.WriteString("|it=")
	b.WriteString(strconv.Itoa(n.MaxIters))
	b.WriteString("|seed=")
	b.WriteString(strconv.FormatInt(n.Seed, 10))
	return b.String()
}

// Options translates the Spec into the functional options it stands for,
// validating each field. Fields at their zero value contribute no option, so
// method defaults apply exactly as with a hand-written option list.
func (s Spec) Options() ([]Option, error) {
	if s.Method == "" {
		return nil, fmt.Errorf("ugs: Spec without a method")
	}
	opts := []Option{WithSeed(s.Seed)}
	if s.Discrepancy != "" {
		d, err := ParseDiscrepancy(s.Discrepancy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithDiscrepancy(d))
	}
	if s.Backbone != "" {
		b, err := ParseBackbone(s.Backbone)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithBackbone(b))
	}
	if s.CutOrder != 0 {
		opts = append(opts, WithCutOrder(s.CutOrder))
	}
	if s.Entropy != nil {
		opts = append(opts, WithEntropy(*s.Entropy))
	}
	if s.Tau != 0 {
		opts = append(opts, WithTau(s.Tau))
	}
	if s.MaxIters != 0 {
		opts = append(opts, WithMaxIters(s.MaxIters))
	}
	// Functional options validate when applied; apply them to a throwaway
	// config now so a bad Spec fails here rather than at Lookup time.
	if _, err := newConfig(opts); err != nil {
		return nil, err
	}
	return opts, nil
}

// Sparsifier resolves the Spec to a configured Sparsifier through the
// registry, appending any extra options (typically WithProgress, which is
// not part of a Spec because it does not affect the output).
func (s Spec) Sparsifier(extra ...Option) (Sparsifier, error) {
	opts, err := s.Options()
	if err != nil {
		return nil, err
	}
	return Lookup(s.Method, append(opts, extra...)...)
}
