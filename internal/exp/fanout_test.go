package exp

import (
	"bytes"
	"testing"
)

// TestFig10FanOutIdentical reruns Figure 10 with the pair estimators forced
// onto the per-source path (FanOut: 1) and with multi-source groups of
// eight (FanOut: 8) and requires byte-identical tables: the source fan-out is an
// execution choice of the engine, never a result-space knob, so every figure
// number the harness reports must be independent of it.
func TestFig10FanOutIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipping in -short mode")
	}
	e, ok := ByID("fig10")
	if !ok {
		t.Fatal("fig10 not registered")
	}
	run := func(fan int) string {
		ctx := NewContext(Config{Seed: 42, FanOut: fan})
		var buf bytes.Buffer
		if err := e.Run(&buf, ctx); err != nil {
			t.Fatalf("fig10 with FanOut %d: %v", fan, err)
		}
		return buf.String()
	}
	perSource := run(1)
	grouped := run(8)
	if perSource != grouped {
		t.Errorf("fig10 output differs between FanOut 1 and FanOut 8:\n--- per-source ---\n%s\n--- grouped ---\n%s", perSource, grouped)
	}
}
