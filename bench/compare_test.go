package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	latency := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	throughput := metricDef{Name: "throughput_ops", Unit: "ops/s", Better: "higher", Bound: 0.10}
	// Ten runs with a 1% quartile spread around 10.
	tight := []float64{9.95, 10.02, 9.98, 10.05, 10.0, 9.97, 10.03, 9.99, 10.01, 10.04}
	// Ten runs whose quartile spread (about 40%) is wider than the bound.
	wide := []float64{7, 13, 9, 11, 8, 12, 10, 14, 6, 10}

	cases := []struct {
		name       string
		def        metricDef
		base, head []float64
		want       string
	}{
		{"same runs", latency, tight, tight, unchanged},
		{"slower within the bound", latency, tight, scaled(tight, 1.05), unchanged},
		{"slower beyond the bound", latency, tight, scaled(tight, 1.2), regressed},
		{"faster, every pair won", latency, tight, scaled(tight, 0.9), improved},
		{"throughput drop beyond the bound", throughput, tight, scaled(tight, 0.85), regressed},
		{"throughput gain", throughput, tight, scaled(tight, 1.08), improved},
		{"spread wider than the bound", latency, wide, scaled(wide, 1.15), unresolved},
		{"wide spread but every head run better", latency, wide, scaled(wide, 0.3), improved},
		{"wide spread but every head run worse", latency, wide, scaled(wide, 3), regressed},
	}
	for _, c := range cases {
		if got := judge(c.def, c.base, c.head); got.verdict != c.want {
			t.Errorf("%s: verdict %s (change %+.3f, won %.2f, spread %.3f), want %s",
				c.name, got.verdict, got.change, got.won, got.spread, c.want)
		}
	}

	// A gain smaller than the base's own quartile spread (5% here) is not a
	// gain, even when the head wins every pair.
	base := []float64{9.6, 9.8, 10, 10.2, 10.4, 9.6, 9.8, 10, 10.2, 10.4}
	head := scaled(base, 0.97)
	if got := judge(latency, base, head); got.verdict != unchanged {
		t.Errorf("3%% gain inside a 5%% spread: verdict %s, want %s", got.verdict, unchanged)
	}
	// ok_ratio: any drop beyond 0.001 regresses.
	ok := metricDef{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.001}
	ones := []float64{1, 1, 1, 1, 1}
	if got := judge(ok, ones, []float64{0.99, 0.99, 0.99, 0.99, 0.99}); got.verdict != regressed {
		t.Errorf("ok_ratio drop: verdict %s, want %s", got.verdict, regressed)
	}
}

func TestCompareFilesExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		return writeResults(t, dir, name, p50, -1)
	}
	base, same, slow := write("base.json", 10), write("same.json", 10.1), write("slow.json", 13)
	var out, errOut bytes.Buffer
	if code := runCompare(base, same, &out, &errOut); code != 0 {
		t.Errorf("compare of equal sets exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := runCompare(base+","+same, slow, &out, &errOut); code != 1 {
		t.Errorf("compare with a 30%% slower head exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), regressed) {
		t.Errorf("comparison does not report the regression:\n%s", out.String())
	}
}

// A set with an invalid run is refused on either side, even when its numbers
// would read as no regression.
func TestCompareRefusesInvalidRuns(t *testing.T) {
	dir := t.TempDir()
	good := writeResults(t, dir, "good.json", 10, -1)
	bad := writeResults(t, dir, "bad.json", 10, 2)
	for _, c := range [][2]string{{good, bad}, {bad, good}, {good + "," + bad, good}} {
		var out, errOut bytes.Buffer
		if code := runCompare(c[0], c[1], &out, &errOut); code != 2 {
			t.Errorf("compare %s vs %s exited %d, want 2:\n%s", c[0], c[1], code, out.String())
		}
		if !strings.Contains(errOut.String(), "invalid") {
			t.Errorf("compare %s vs %s: error %q does not name the invalid run", c[0], c[1], errOut.String())
		}
	}
}

// writeResults writes a five-run query_cold results file around the given
// p50; the run at index invalid (if any) is marked invalid.
func writeResults(t *testing.T, dir, name string, p50 float64, invalid int) string {
	t.Helper()
	res := resultsFile{Schema: resultsSchema}
	w := workloadResults{Name: "query_cold"}
	for i := 0; i < 5; i++ {
		w.Runs = append(w.Runs, runRecord{Seed: int64(i), Valid: i != invalid, Correct: true, Metrics: map[string]float64{
			"latency_p50_ms": p50 * (1 + 0.001*float64(i)), "throughput_ops": 50,
		}})
	}
	res.Workloads = []workloadResults{w}
	data, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
