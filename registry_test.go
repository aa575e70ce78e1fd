package ugs_test

// Tests of the redesigned public API: the Sparsifier registry, functional
// options, parse/format round-trips, progress reporting and context
// cancellation.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ugs"
	"ugs/internal/core"
)

func TestMethodsListsAllBuiltins(t *testing.T) {
	got := ugs.Methods()
	for _, want := range []string{"gdb", "emd", "lp", "ni", "ss"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Methods() = %v: missing %q", got, want)
		}
	}
	if !sortedStrings(got) {
		t.Errorf("Methods() = %v not sorted", got)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

func TestRegisterErrors(t *testing.T) {
	dummy := func(opts ...ugs.Option) (ugs.Sparsifier, error) {
		return ugs.NewSparsifier("dummy", nil), nil
	}
	cases := []struct {
		name    string
		regName string
		factory ugs.Factory
		wantSub string
	}{
		{"empty name", "", dummy, "empty"},
		{"nil factory", "custom-nilfactory", nil, "nil factory"},
		{"duplicate builtin", "gdb", dummy, "already registered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ugs.Register(tc.regName, tc.factory)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Register(%q) error = %v, want substring %q", tc.regName, err, tc.wantSub)
			}
		})
	}
}

func TestRegisterAndLookupCustomMethod(t *testing.T) {
	// A custom method is a one-file plug-in: register a factory, resolve
	// it by name, and drive it through the uniform interface. The registry
	// is process-global, so a rerun of this test in the same binary
	// (go test -count=2) legitimately sees the earlier registration.
	name := "custom-keep-nothing-test"
	err := ugs.Register(name, func(opts ...ugs.Option) (ugs.Sparsifier, error) {
		return ugs.NewSparsifier(name, func(ctx context.Context, g *ugs.Graph, alpha float64) (*ugs.Result, error) {
			return nil, errors.New("not much of a sparsifier")
		}), nil
	})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("Register: %v", err)
	}
	sp, err := ugs.Lookup(name)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if sp.Name() != name {
		t.Errorf("Name() = %q, want %q", sp.Name(), name)
	}
	if _, err := sp.Sparsify(context.Background(), ugs.TwitterLike(30, 1), 0.5); err == nil {
		t.Error("custom sparsifier error not propagated")
	}
}

func TestLookupUnknownMethod(t *testing.T) {
	_, err := ugs.Lookup("bogus")
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, name := range []string{"bogus", "gdb", "emd"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}

func TestLookupInvalidOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  ugs.Option
	}{
		{"entropy above 1", ugs.WithEntropy(1.5)},
		{"entropy negative", ugs.WithEntropy(-0.1)},
		{"entropy NaN", ugs.WithEntropy(math.NaN())},
		{"cut order zero", ugs.WithCutOrder(0)},
		{"cut order negative non-KAll", ugs.WithCutOrder(-7)},
		{"max iters zero", ugs.WithMaxIters(0)},
		{"tau zero", ugs.WithTau(0)},
		{"tau negative", ugs.WithTau(-1)},
		{"bad discrepancy", ugs.WithDiscrepancy(ugs.Discrepancy(99))},
		{"bad backbone", ugs.WithBackbone(ugs.Backbone(99))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ugs.Lookup("gdb", tc.opt); err == nil {
				t.Error("invalid option accepted")
			}
		})
	}
	// EMD is defined for k = 1 only; the factory rejects higher orders
	// before any work happens.
	if _, err := ugs.Lookup("emd", ugs.WithCutOrder(2)); err == nil {
		t.Error("emd with cut order 2 accepted")
	}
	if _, err := ugs.Lookup("emd", ugs.WithCutOrder(ugs.KAll)); err == nil {
		t.Error("emd with KAll accepted")
	}
}

// TestOptionsMatchDeprecatedShim (named after the positional public API it
// was written against) pins the option translation behind Lookup: the
// functional options must configure exactly what the equivalent positional
// core.Options does through core.Sparsify, the registry's dispatcher.
func TestOptionsMatchDeprecatedShim(t *testing.T) {
	// Including the HZero sentinel: an explicit WithEntropy(0) is a true
	// zero, and an omitted option is the 0.05 default.
	g := ugs.TwitterLike(120, 5)
	cases := []struct {
		name string
		opts []ugs.Option
		old  core.Options
	}{
		{
			"defaults",
			nil,
			core.Options{},
		},
		{
			"explicit entropy zero is HZero",
			[]ugs.Option{ugs.WithEntropy(0), ugs.WithSeed(3)},
			core.Options{H: core.HZero, Seed: 3},
		},
		{
			"full configuration",
			[]ugs.Option{
				ugs.WithDiscrepancy(ugs.Relative),
				ugs.WithBackbone(ugs.BackboneRandom),
				ugs.WithCutOrder(2),
				ugs.WithEntropy(0.4),
				ugs.WithTau(1e-7),
				ugs.WithMaxIters(17),
				ugs.WithSeed(11),
			},
			core.Options{
				Discrepancy: core.Relative,
				Backbone:    core.BackboneRandom,
				K:           2,
				H:           0.4,
				Tau:         1e-7,
				MaxIters:    17,
				Seed:        11,
			},
		},
		{
			"k = n redistribution",
			[]ugs.Option{ugs.WithCutOrder(ugs.KAll), ugs.WithSeed(7)},
			core.Options{K: core.KAll, Seed: 7},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := ugs.Lookup("gdb", tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sp.Sparsify(context.Background(), g, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			oldGraph, oldStats, err := core.Sparsify(context.Background(), g, 0.3, tc.old)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Graph.Equal(oldGraph) {
				t.Error("functional options and core.Options produced different graphs")
			}
			if res.Stats != *oldStats {
				t.Errorf("stats mismatch: %+v vs %+v", res.Stats, *oldStats)
			}
		})
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, name := range []string{"gdb", "emd", "lp", "ni", "ss"} {
		m, err := ugs.ParseMethod(name)
		if err != nil {
			t.Errorf("ParseMethod(%q): %v", name, err)
			continue
		}
		if m.String() != name {
			t.Errorf("ParseMethod(%q).String() = %q", name, m.String())
		}
	}
	for _, m := range []ugs.Method{ugs.MethodGDB, ugs.MethodEMD, ugs.MethodLP, ugs.MethodNI, ugs.MethodSS} {
		back, err := ugs.ParseMethod(m.String())
		if err != nil || back != m {
			t.Errorf("round trip of %v: got %v, err %v", m, back, err)
		}
	}
	for _, d := range []ugs.Discrepancy{ugs.Absolute, ugs.Relative} {
		back, err := ugs.ParseDiscrepancy(d.String())
		if err != nil || back != d {
			t.Errorf("discrepancy round trip of %v: got %v, err %v", d, back, err)
		}
	}
	for _, b := range []ugs.Backbone{ugs.BackboneSpanning, ugs.BackboneRandom} {
		back, err := ugs.ParseBackbone(b.String())
		if err != nil || back != b {
			t.Errorf("backbone round trip of %v: got %v, err %v", b, back, err)
		}
	}
	for _, parse := range []func(string) (fmt.Stringer, error){
		func(s string) (fmt.Stringer, error) { v, err := ugs.ParseMethod(s); return v, err },
		func(s string) (fmt.Stringer, error) { v, err := ugs.ParseDiscrepancy(s); return v, err },
		func(s string) (fmt.Stringer, error) { v, err := ugs.ParseBackbone(s); return v, err },
	} {
		if _, err := parse("bogus"); err == nil {
			t.Error("bogus value parsed")
		}
	}
}

func TestEveryRegisteredMethodRunsUniformly(t *testing.T) {
	// Every built-in resolves through the registry, hits the edge budget,
	// and fills its RunStats diagnostics.
	g := ugs.TwitterLike(80, 3)
	want := int(math.Round(0.4 * float64(g.NumEdges())))
	for _, name := range []string{"gdb", "emd", "lp", "ni", "ss"} {
		t.Run(name, func(t *testing.T) {
			sp, err := ugs.Lookup(name, ugs.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sp.Sparsify(context.Background(), g, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			if res.Graph.NumEdges() != want {
				t.Errorf("%d edges, want %d", res.Graph.NumEdges(), want)
			}
			if res.Stats.Iterations < 1 {
				t.Errorf("Iterations = %d, want ≥ 1", res.Stats.Iterations)
			}
			switch name {
			case "ni":
				if res.Stats.Epsilon <= 0 {
					t.Errorf("NI Epsilon = %v, want > 0", res.Stats.Epsilon)
				}
			case "ss":
				if res.Stats.StretchT < 1 {
					t.Errorf("SS StretchT = %d, want ≥ 1", res.Stats.StretchT)
				}
			}
		})
	}
}

func TestProgressReportsEveryIteration(t *testing.T) {
	g := ugs.FlickrLike(150, 9)
	var iters []int
	sp, err := ugs.Lookup("gdb",
		ugs.WithSeed(2),
		ugs.WithProgress(func(s ugs.RunStats) { iters = append(iters, s.Iterations) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Sparsify(context.Background(), g, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != res.Stats.Iterations {
		t.Fatalf("progress fired %d times for %d iterations", len(iters), res.Stats.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("progress iteration %d at position %d", it, i)
		}
	}
}

func TestCancelledContextStopsEveryMethod(t *testing.T) {
	g := ugs.TwitterLike(80, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range ugs.Methods() {
		if strings.HasPrefix(name, "custom-") {
			continue // test registrations with their own semantics
		}
		t.Run(name, func(t *testing.T) {
			sp, err := ugs.Lookup(name, ugs.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sp.Sparsify(ctx, g, 0.4); !errors.Is(err, context.Canceled) {
				t.Errorf("error = %v, want context.Canceled", err)
			}
		})
	}
}

func TestCancelMidRunStopsEMDPromptly(t *testing.T) {
	// Cancel a running EMD sparsification of a large generated graph from
	// inside its progress callback, after the first EM round. The run must
	// surface context.Canceled without completing the remaining rounds —
	// that it stops at the immediately following round is what "promptly"
	// means here, independent of wall-clock speed.
	g := ugs.FlickrLike(1200, 21)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	sp, err := ugs.Lookup("emd",
		ugs.WithSeed(4),
		ugs.WithMaxIters(500),
		ugs.WithTau(1e-300), // effectively never converge
		ugs.WithProgress(func(s ugs.RunStats) {
			rounds = s.Iterations
			cancel()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Sparsify(ctx, g, 0.2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
	if rounds == 0 {
		t.Error("progress never fired; cancellation untested")
	}
	if rounds > 2 {
		t.Errorf("EMD ran %d rounds after cancellation; not prompt", rounds)
	}
}

func TestResultStatsIsValueCopy(t *testing.T) {
	// Result.Stats is a value, not a pointer into the method's internals:
	// mutating it must not affect a rerun.
	g := ugs.TwitterLike(60, 7)
	sp, err := ugs.Lookup("gdb", ugs.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sp.Sparsify(context.Background(), g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	saved := a.Stats
	a.Stats.Iterations = -99
	b, err := sp.Sparsify(context.Background(), g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(saved, b.Stats) {
		t.Errorf("rerun stats %+v differ from first run %+v", b.Stats, saved)
	}
}
