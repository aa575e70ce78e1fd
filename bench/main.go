// Command ugs-loadbench is the benchmark of record for ugs: end-to-end load
// on ugs-serve and on the library, with a traced replay for per-layer
// numbers.
//
// Three open-loop workloads (query_cold, query_hot, patch_churn) send a
// seeded Poisson stream of requests to an in-process serve.Server through
// its HTTP handler; sparsify_repair is a closed loop over the ugs facade.
// Each workload runs in its own process, so process-wide state such as the
// query planner's calibration cache and the heap never carries over from
// one workload to the next.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload query_cold --seed 1 --seconds 25 --trace 0
//
// or from bench/:
//
//	go run . -workload query_hot -seed 3        # one run; last line is JSON
//	go run . -workload query_hot -trace 1       # traced replay, per-layer metrics
//	go run . -runs 5 -trace 1 -out head.json    # every workload 5×, plus a traced run each
//	go run . -trace spans.json                  # one traced run each, spans written out
//	go run . -compare base.json head.json       # verdict per workload × metric
//
// A single run prints its metrics as the last line of standard output:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
// It exits non-zero when an output fails verification or the run breaks a
// validity rule (a late load generator, a cache that should not hit, too few
// ops for the p99).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runReport is the outcome of one run of one workload.
type runReport struct {
	e2e       map[string]float64
	layer     map[string]float64 // traced runs only
	attempted int
	failed    int
	problems  []string // outputs that failed verification
	invalid   []string // validity rules the run broke
}

// resultLine is the JSON a single run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runReport) line(traced bool) resultLine {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return resultLine{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ugs-loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run this workload (query_cold, query_hot, patch_churn, sparsify_repair); with -runs, restrict the set")
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Int("seconds", defaultSeconds, "length of the measured window")
		trace     = fs.String("trace", "0", `"1": replay through the traced pipeline and report per-layer metrics; a file name: the same, and write the spans there`)
		runs      = fs.Int("runs", 0, "run each selected workload this many times in fresh processes (seeds seed, seed+1, …)")
		quick     = fs.Bool("quick", false, "smoke mode: small fixtures, one set-up, no timing or volume gates")
		out       = fs.String("out", "", "with -runs: write the results file here")
		compare   = fs.Bool("compare", false, "compare two results files: -compare base.json head.json (comma-separated lists pool runs)")
		workdir   = fs.String("workdir", ".bench_build", "directory for fixtures and scratch files")
		setupOnly = fs.Bool("setup-only", false, "time one set-up of -workload and exit (used for the repeated set-ups of a run)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare base.json head.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "-seconds must be at least 1")
		return 2
	}
	rc := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, quick: *quick, workdir: *workdir}
	switch *trace {
	case "0", "":
	case "1":
		rc.traced = true
	default:
		rc.traced, rc.spans = true, *trace
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(*workload); !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}

	switch {
	case *setupOnly:
		elapsed, err := setupOnce(ctx, names[0], rc)
		if err != nil {
			fmt.Fprintln(stderr, "set-up:", err)
			return 1
		}
		fmt.Fprintf(stdout, "{\"setup_s\": %v}\n", elapsed)
		return 0
	case *runs > 0 || *workload == "":
		if *runs == 0 && !rc.traced {
			fs.Usage()
			return 2
		}
		return runHarness(ctx, names, rc, *runs, *out, stdout, stderr)
	}
	return runSingle(ctx, names[0], rc, stdout, stderr)
}

// runSingle runs one workload once and prints its result line.
func runSingle(ctx context.Context, name string, rc runConfig, stdout, stderr io.Writer) int {
	wl, _ := workloadByName(name)
	var setups []float64
	if !rc.quick && !rc.traced {
		for i := 0; i < setupRepeats-1; i++ {
			s, err := childSetup(ctx, name, rc, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "set-up:", err)
				return 1
			}
			setups = append(setups, s)
		}
	}
	var (
		rep *runReport
		err error
	)
	if wl.serve != nil {
		rep, err = runServe(ctx, wl, rc, setups)
	} else {
		rep, err = runLibrary(ctx, rc, setups)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "verification failed:", p)
	}
	for _, p := range rep.invalid {
		fmt.Fprintln(stderr, "invalid run:", p)
	}
	data, err := json.Marshal(rep.line(rc.traced))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if len(rep.problems) > 0 || len(rep.invalid) > 0 {
		return 1
	}
	return 0
}

// setupOnce performs one full set-up of a workload and tears it down,
// returning its duration in seconds.
func setupOnce(ctx context.Context, name string, rc runConfig) (float64, error) {
	wl, _ := workloadByName(name)
	if wl.serve != nil {
		s, err := setupServe(ctx, wl.serve, name, rc)
		if err != nil {
			return 0, err
		}
		s.close()
		return s.elapsed.Seconds(), nil
	}
	l, err := setupLibrary(ctx, rc)
	if err != nil {
		return 0, err
	}
	l.close()
	return l.elapsed.Seconds(), nil
}

// childSetup times one set-up in a fresh process, so every repeat starts as
// cold as the first.
func childSetup(ctx context.Context, name string, rc runConfig, stderr io.Writer) (float64, error) {
	line, err := runChild(ctx, stderr, "-setup-only", "-workload", name, "-seed", strconv.FormatInt(rc.seed, 10),
		"-seconds", strconv.Itoa(int(rc.window/time.Second)), "-workdir", rc.workdir)
	if err != nil {
		return 0, err
	}
	var v struct {
		Setup float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(line, &v); err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", line, err)
	}
	return v.Setup, nil
}

// runChild runs this program with args, passing its standard error through,
// waits for it, and returns the last line of its standard output.
func runChild(ctx context.Context, stderr io.Writer, args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()
	last := lastLine(stdout.Bytes())
	if runErr != nil {
		var ee *exec.ExitError
		if errors.As(runErr, &ee) && len(last) > 0 {
			return last, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), runErr)
		}
		return nil, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), runErr)
	}
	return last, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
