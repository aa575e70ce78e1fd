package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ugs"
	"ugs/internal/exp"
)

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
		fanOut  = fs.String("fan-out", "auto", "pair-query source group size: auto (fixed rule over lane width and distinct sources), 1 (per-source ablation) or 2..64 sources per traversal; results are bit-identical at any fan-out")
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
	confEps, confDelta, confSet, err := parseConfidence(*conf)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-exp: -confidence:", err)
		return 2
	}
	if confSet && laneWidth == 1 {
		fmt.Fprintln(stderr, "ugs-exp: -confidence requires the batch engine; drop -lanes 1")
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
