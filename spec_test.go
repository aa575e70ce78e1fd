package ugs_test

import (
	"context"
	"encoding/json"
	"testing"

	"ugs"
)

func TestSpecKeyCanonicalizesDefaults(t *testing.T) {
	implicit := ugs.Spec{Method: "gdb", Seed: 3}
	explicit := ugs.Spec{
		Method:      "gdb",
		Discrepancy: "absolute",
		Backbone:    "spanning",
		CutOrder:    1,
		Seed:        3,
	}
	if implicit.Key() != explicit.Key() {
		t.Errorf("default spelled out changes key:\n%s\n%s", implicit.Key(), explicit.Key())
	}
}

func TestSpecKeySeparatesDistinctConfigs(t *testing.T) {
	base := ugs.Spec{Method: "gdb", Seed: 1}
	h := 0.0
	variants := []ugs.Spec{
		{Method: "emd", Seed: 1},
		{Method: "gdb", Seed: 2},
		{Method: "gdb", Seed: 1, Discrepancy: "relative"},
		{Method: "gdb", Seed: 1, Backbone: "random"},
		{Method: "gdb", Seed: 1, CutOrder: 2},
		{Method: "gdb", Seed: 1, CutOrder: ugs.KAll},
		{Method: "gdb", Seed: 1, Entropy: &h},
		{Method: "gdb", Seed: 1, Tau: 1e-3},
		{Method: "gdb", Seed: 1, MaxIters: 5},
	}
	seen := map[string]int{base.Key(): -1}
	for i, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %s", i, prev, k)
		}
		seen[k] = i
	}
}

func TestSpecOptionsValidation(t *testing.T) {
	bad := []ugs.Spec{
		{},                                       // missing method
		{Method: "gdb", Discrepancy: "sideways"}, // unknown discrepancy
		{Method: "gdb", Backbone: "wishbone"},    // unknown backbone
		{Method: "gdb", CutOrder: -7},            // invalid cut order
		{Method: "gdb", Entropy: float64p(1.5)},  // h outside [0,1]
		{Method: "gdb", Tau: -1},                 // non-positive tau
		{Method: "gdb", MaxIters: -2},            // negative iteration bound
	}
	for i, s := range bad {
		if _, err := s.Options(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	if _, err := (ugs.Spec{Method: "nope"}).Sparsifier(); err == nil {
		t.Error("unknown method resolved")
	}
}

// TestSpecSparsifierMatchesHandWrittenOptions pins the contract behind the
// serve cache: a Spec-built sparsifier is bit-identical to the same
// configuration written as functional options, and to itself across runs.
func TestSpecSparsifierMatchesHandWrittenOptions(t *testing.T) {
	g := ugs.TwitterLike(90, 5)
	spec := ugs.Spec{Method: "emd", Discrepancy: "relative", Seed: 4}
	fromSpec, err := spec.Sparsifier()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ugs.Lookup("emd", ugs.WithDiscrepancy(ugs.Relative), ugs.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := fromSpec.Sparsify(ctx, g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := direct.Sparsify(ctx, g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Graph.Equal(b.Graph) {
		t.Error("Spec-built sparsifier differs from hand-written options")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	h := 0.0
	s := ugs.Spec{Method: "gdb", CutOrder: 2, Entropy: &h, Seed: 9}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back ugs.Spec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key() != s.Key() {
		t.Errorf("JSON round trip changes key:\n%s\n%s", back.Key(), s.Key())
	}
}

func float64p(v float64) *float64 { return &v }

// FuzzSpecKey exercises the wire boundary of the serve cache: arbitrary
// JSON must never panic Spec decoding, and any decodable Spec must have a
// deterministic Key and a non-panicking Options validation.
func FuzzSpecKey(f *testing.F) {
	f.Add([]byte(`{"method":"gdb","seed":3}`))
	f.Add([]byte(`{"method":"emd","discrepancy":"relative","cut_order":1}`))
	f.Add([]byte(`{"method":"gdb","entropy":0,"tau":1e-9,"max_iters":200}`))
	f.Add([]byte(`{"method":"","backbone":"random"}`))
	f.Add([]byte(`{"method":"gdb","cut_order":-1}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var s ugs.Spec
		if err := json.Unmarshal(blob, &s); err != nil {
			return
		}
		k1, k2 := s.Key(), s.Key()
		if k1 != k2 {
			t.Fatalf("Key not deterministic: %q vs %q", k1, k2)
		}
		opts, err := s.Options()
		if err == nil && len(opts) == 0 {
			t.Fatal("valid Spec produced no options (seed must always be set)")
		}
	})
}
