package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ugs"
	"ugs/internal/exp"
)

// parseConfidence parses a -confidence flag value "eps" or "eps,delta"
// into a sequential-stopping target (eps half-width at confidence
// 1−delta; delta defaults to 0.05) and checks it, with the engine width,
// by the rule the estimators apply. Empty means no target (eps 0).
func parseConfidence(s string, lanes int) (eps, delta float64, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > 2 {
		return 0, 0, fmt.Errorf("want \"eps\" or \"eps,delta\", got %q", s)
	}
	if eps, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, fmt.Errorf("eps: %v", err)
	}
	if len(parts) == 2 {
		if delta, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
			return 0, 0, fmt.Errorf("delta: %v", err)
		}
	}
	if err := (ugs.MCOptions{Lanes: lanes, Target: ugs.WithConfidence(eps, delta)}).Validate(); err != nil {
		return 0, 0, err
	}
	return eps, delta, nil
}

// RunExp is the ugs-exp command: regenerate the paper's tables and figures
// on the synthetic stand-in datasets.
func RunExp(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ugs-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		full    = fs.Bool("full", false, "paper-scale parameters (slow)")
		seed    = fs.Int64("seed", 42, "random seed")
		workers = fs.Int("workers", 0, "Monte-Carlo parallelism (0 = GOMAXPROCS)")
		timeout = fs.Duration("timeout", 0, "abort the batch after this duration, checked between sparsification runs (0 = unbounded)")
		lanes   = fs.String("lanes", "auto", "batch-engine width: auto (fixed rule over query kind and sample budget), 1 (scalar one-world-per-traversal ablation), 64 or 256 world lanes; results are bit-identical at any width")
		fanOut  = fs.String("fan-out", "auto", "source group size of pair-query source traversals (pairs whose source has few targets run pair searches instead): auto (fixed rule over lane width and distinct sources), 1 (per-source ablation) or 8 (groups of eight sources); results are bit-identical at any fan-out")
		conf    = fs.String("confidence", "", "adaptive stopping target \"eps[,delta]\" for the pair estimators: sample until every CI half-width ≤ eps at confidence 1−delta (empty = fixed budgets)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	laneWidth, err := ugs.ParseLanes(*lanes)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-exp: -lanes:", err)
		return 2
	}
	fanWidth, err := ugs.ParseFanOut(*fanOut)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-exp: -fan-out:", err)
		return 2
	}
	confEps, confDelta, err := parseConfidence(*conf, laneWidth)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-exp: -confidence:", err)
		return 2
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "ugs-exp: specify experiment ids or \"all\" (see -list)")
		return 2
	}

	runCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}
	// Once the run is cancelled (first signal or timeout), unregister the
	// signal capture so a second Ctrl-C kills the process immediately
	// instead of being swallowed while a Monte-Carlo phase drains.
	go func() {
		<-runCtx.Done()
		stop()
	}()
	ctx := exp.NewContext(exp.Config{
		Full: *full, Seed: *seed, Workers: *workers,
		Lanes: laneWidth, FanOut: fanWidth, ConfEps: confEps, ConfDelta: confDelta, Ctx: runCtx,
	})
	var experiments []exp.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		experiments = exp.All()
	} else {
		for _, id := range ids {
			e, ok := exp.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "ugs-exp: unknown experiment %q (see -list)\n", id)
				return 2
			}
			experiments = append(experiments, e)
		}
	}

	for _, e := range experiments {
		if err := runCtx.Err(); err != nil {
			fmt.Fprintf(stderr, "ugs-exp: aborted before %s: %v\n", e.ID, err)
			return 1
		}
		start := time.Now()
		if err := e.Run(stdout, ctx); err != nil {
			fmt.Fprintf(stderr, "ugs-exp: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
