package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resultsFile is the schema of a -runs results file: the machine and build
// the runs were made on, and every run's values.
type resultsFile struct {
	Schema     string            `json:"schema"`
	Commit     string            `json:"commit"`
	Modified   bool              `json:"modified"`
	GoVersion  string            `json:"go"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Quick      bool              `json:"quick,omitempty"`
	Started    time.Time         `json:"started"`
	Workloads  []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name    string             `json:"name"`
	Runs    []runRecord        `json:"runs"`
	Summary map[string]summary `json:"summary,omitempty"`
	// Traced holds the per-layer metrics of one traced replay, and
	// TraceOverhead its p50 latency relative to the first untraced run,
	// which has the same seed and ran just before it (0.05 = the traced
	// replay was 5% slower).
	Traced        map[string]float64 `json:"traced,omitempty"`
	TraceOverhead *float64           `json:"trace_overhead,omitempty"`
}

type runRecord struct {
	Seed int64 `json:"seed"`
	// Valid is false when the run exited non-zero: an output failed
	// verification or the run broke a validity rule.
	Valid     bool               `json:"valid"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

const resultsSchema = "ugs-loadbench/1"

// fingerprint fills in the machine and build fields. The commit comes from
// the binary's VCS stamp (go build), else from git (go run stamps none).
func fingerprint(ctx context.Context, r *resultsFile) {
	r.Schema = resultsSchema
	r.Commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.Commit = s.Value
			case "vcs.modified":
				r.Modified = s.Value == "true"
			}
		}
	}
	if r.Commit == "unknown" {
		if rev, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
			r.Commit = strings.TrimSpace(string(rev))
			st, err := exec.CommandContext(ctx, "git", "status", "--porcelain").Output()
			r.Modified = err != nil || len(bytes.TrimSpace(st)) > 0
		}
	}
	r.GoVersion = runtime.Version()
	r.NumCPU = runtime.NumCPU()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.CPUModel = cpuModel()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runHarness runs every named workload runs times (seeds seed, seed+1, …),
// each run in a fresh process, plus — when rc is traced — one traced replay
// per workload. It prints a summary table and writes the results file.
func runHarness(ctx context.Context, names []string, rc runConfig, runs int, out string, stdout, stderr io.Writer) int {
	res := resultsFile{Seed: rc.seed, Seconds: int(rc.window / time.Second), Quick: rc.quick, Started: time.Now().UTC()}
	fingerprint(ctx, &res)
	failures := 0
	common := func(name string, seed int64) []string {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(res.Seconds), "-workdir", rc.workdir}
		if rc.quick {
			args = append(args, "-quick")
		}
		return args
	}
	for _, name := range names {
		res.Workloads = append(res.Workloads, workloadResults{Name: name})
	}
	untraced := func(w *workloadResults, seed int64) {
		line, err := runChildLine(ctx, stderr, append(common(w.Name, seed), "-trace", "0")...)
		if err != nil {
			fmt.Fprintf(stderr, "%s seed %d: %v\n", w.Name, seed, err)
			failures++
		}
		if line == nil {
			return
		}
		w.Runs = append(w.Runs, runRecord{Seed: seed, Valid: err == nil, Correct: line.Correct,
			Attempted: line.Attempted, Failed: line.Failed, Metrics: values(line)})
		fmt.Fprintf(stderr, "%s seed %d: p50 %.3g ms, %.3g CPU-ms/op, %.4g ops/s\n", w.Name, seed,
			line.Metrics["latency_p50_ms"].Value, line.Metrics["cpu_ms_per_op"].Value, line.Metrics["throughput_ops"].Value)
	}
	// The traced replay runs right after the first untraced run of its
	// workload, with the same seed, so the overhead compares like with like
	// on a machine whose speed drifts over minutes.
	traced := func(w *workloadResults) {
		trace := "1"
		if rc.spans != "" {
			trace = strings.TrimSuffix(rc.spans, ".json") + "-" + w.Name + ".json"
		}
		line, err := runChildLine(ctx, stderr, append(common(w.Name, rc.seed), "-trace", trace)...)
		if err != nil {
			fmt.Fprintf(stderr, "%s traced: %v\n", w.Name, err)
			failures++
		}
		if line == nil {
			return
		}
		w.Traced = values(line)
		if len(w.Runs) > 0 && w.Runs[0].Metrics["latency_p50_ms"] > 0 {
			o := w.Traced["trace.latency_p50_ms"]/w.Runs[0].Metrics["latency_p50_ms"] - 1
			w.TraceOverhead = &o
		}
	}
	for r := 0; r < max(runs, 1); r++ {
		for wi := range res.Workloads {
			w := &res.Workloads[wi]
			if r < runs {
				untraced(w, rc.seed+int64(r))
			}
			if r == 0 && rc.traced {
				traced(w)
			}
		}
	}
	for wi := range res.Workloads {
		res.Workloads[wi].summarize()
	}
	printResults(stdout, &res)
	if out != "" {
		data, err := json.MarshalIndent(&res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "writing results:", err)
			return 1
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "%d run(s) failed or were invalid\n", failures)
		return 1
	}
	return 0
}

// runChildLine runs one benchmark run in a child process and decodes its
// result line (nil if it printed none).
func runChildLine(ctx context.Context, stderr io.Writer, args ...string) (*resultLine, error) {
	last, err := runChild(ctx, stderr, args...)
	if len(last) == 0 {
		return nil, err
	}
	var line resultLine
	if jerr := json.Unmarshal(last, &line); jerr != nil {
		return nil, fmt.Errorf("run printed %q: %w", last, jerr)
	}
	return &line, err
}

func values(line *resultLine) map[string]float64 {
	m := make(map[string]float64, len(line.Metrics))
	for k, v := range line.Metrics {
		m[k] = v.Value
	}
	return m
}

// series returns a metric's values across the workload's runs.
func (w *workloadResults) series(metric string) []float64 {
	var xs []float64
	for _, r := range w.Runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func (w *workloadResults) summarize() {
	if len(w.Runs) == 0 {
		return
	}
	w.Summary = map[string]summary{}
	for _, def := range endToEnd {
		xs := w.series(def.Name)
		if len(xs) == 0 {
			continue
		}
		q1, q3 := quartiles(xs)
		w.Summary[def.Name] = summary{Unit: def.Unit, Median: median(xs), Q1: q1, Q3: q3}
	}
}

func printResults(out io.Writer, res *resultsFile) {
	fmt.Fprintf(out, "commit %s (modified %v), %s, %d CPUs (%s), GOMAXPROCS %d, %d s windows\n",
		res.Commit, res.Modified, res.GoVersion, res.NumCPU, res.CPUModel, res.GOMAXPROCS, res.Seconds)
	for _, w := range res.Workloads {
		fmt.Fprintf(out, "\n%s (%d runs)\n", w.Name, len(w.Runs))
		for _, def := range endToEnd {
			s, ok := w.Summary[def.Name]
			if !ok {
				continue
			}
			spread := 0.0
			if s.Median != 0 {
				spread = (s.Q3 - s.Q1) / s.Median
			}
			fmt.Fprintf(out, "  %-16s %12.4g %-6s  [%.4g, %.4g]  spread %5.1f%%  bound %g%%\n",
				def.Name, s.Median, def.Unit, s.Q1, s.Q3, 100*spread, 100*def.Bound)
		}
		if w.Traced == nil {
			continue
		}
		if w.TraceOverhead != nil {
			fmt.Fprintf(out, "  traced replay: p50 %.4g ms, overhead %+.1f%%\n", w.Traced["trace.latency_p50_ms"], 100**w.TraceOverhead)
		}
		names := make([]string, 0, len(w.Traced))
		for k := range w.Traced {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if v := w.Traced[k]; v != 0 {
				def, _ := metricByName(k)
				fmt.Fprintf(out, "    %-38s %12.4g %s\n", k, v, def.Unit)
			}
		}
	}
}
