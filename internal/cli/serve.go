package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ugs"
	"ugs/internal/faults"
	"ugs/internal/serve"
)

// parseConfidence parses a -confidence flag value "eps" or "eps,delta"
// into a sequential-stopping target (eps half-width at confidence
// 1−delta; delta defaults to 0.05). Empty means no target.
func parseConfidence(s string) (eps, delta float64, ok bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, 0, false, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > 2 {
		return 0, 0, false, fmt.Errorf("want \"eps\" or \"eps,delta\", got %q", s)
	}
	if eps, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, false, fmt.Errorf("eps: %v", err)
	}
	if len(parts) == 2 {
		if delta, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
			return 0, 0, false, fmt.Errorf("delta: %v", err)
		}
	}
	if !(eps > 0 && eps < 1) || delta < 0 || delta >= 1 {
		return 0, 0, false, fmt.Errorf("eps %v outside (0,1) or delta %v outside [0,1)", eps, delta)
	}
	return eps, delta, true, nil
}

// RunServe is the ugs-serve command: a long-lived HTTP JSON service over
// the sparsifier core. It installs SIGINT/SIGTERM handling and shuts down
// gracefully: in-flight requests drain, async jobs are cancelled through
// their contexts and awaited.
func RunServe(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return RunServeContext(ctx, args, stdout, stderr)
}

// RunServeContext is RunServe under a caller-supplied lifetime context —
// the in-process testing entry point: cancel ctx to trigger the same
// graceful shutdown a signal would.
func RunServeContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ugs-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8471", "listen address (host:port; port 0 picks a free port)")
		graphs      = fs.String("graphs", "", "directory of *.ugsb / *.ugs / *.txt graph files to load at startup")
		cacheSize   = fs.Int("cache", 128, "resident sparsified results (LRU entries)")
		queryCache  = fs.Int("query-cache", 1024, "cached query results (LRU entries)")
		workers     = fs.Int("workers", 0, "Monte-Carlo parallelism per flight (0 = GOMAXPROCS)")
		maxSamples  = fs.Int("max-samples", 20000, "per-request Monte-Carlo sample cap")
		storeBudget = fs.String("store-budget", "", "resident graph-bytes budget with K/M/G suffixes, e.g. 512M (empty = unlimited)")
		convertDir  = fs.String("convert-dir", "", "directory for .ugsb sidecars of converted text graphs and uploads (default: a temp dir)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for requests and jobs")
		lanes       = fs.String("lanes", "auto", "default query engine width: auto (fixed rule over query kind and sample budget), 1 (scalar ablation), 64 or 256 world lanes")
		fanOut      = fs.String("fan-out", "auto", "default pair-query source group size: auto (fixed rule over lane width and distinct sources), 1 (per-source ablation) or 2..64 sources per traversal")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this side listener (e.g. localhost:6060; empty = disabled)")
		confidence  = fs.String("confidence", "", "default adaptive stopping target \"eps[,delta]\": sample until every estimate's CI half-width ≤ eps at confidence 1−delta (empty = fixed budgets)")
		worldCache  = fs.String("world-cache", "64M", "sampled-world cache budget with K/M/G suffixes (0 disables)")
		reqTimeout  = fs.Duration("request-timeout", 0, "per-request wall-clock cap for queries and sparsifications (0 = unbounded; a request's timeout_ms can only tighten it)")
		maxCost     = fs.String("max-cost", "", "admission-control capacity in cost units (samples × graph arcs) with K/M/G suffixes, e.g. 2G (empty = no admission control)")
		maxQueue    = fs.Int("max-queue", 64, "admission wait-queue length before shedding with 429 (negative = unbounded)")
		drainForce  = fs.Duration("drain-timeout", 5*time.Second, "extra budget for jobs to exit after forced cancellation when the -drain budget expires")
		faultsSpec  = fs.String("faults", "", "deterministic fault-injection spec \"point:action[=arg][@rate],...\", e.g. 'store.open:err@0.3' (testing only)")
		faultsSeed  = fs.Int64("faults-seed", 1, "seed for the fault injector's deterministic draws")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	budget, err := parseBytes(*storeBudget)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-serve: -store-budget:", err)
		return 2
	}
	laneWidth, err := ugs.ParseLanes(*lanes)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-serve: -lanes:", err)
		return 2
	}
	fanWidth, err := ugs.ParseFanOut(*fanOut)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-serve: -fan-out:", err)
		return 2
	}
	var defConfidence *serve.Confidence
	if eps, delta, ok, err := parseConfidence(*confidence); err != nil {
		fmt.Fprintln(stderr, "ugs-serve: -confidence:", err)
		return 2
	} else if ok {
		if laneWidth == 1 {
			fmt.Fprintln(stderr, "ugs-serve: -confidence requires the batch engine; drop -lanes 1")
			return 2
		}
		defConfidence = &serve.Confidence{Eps: eps, Delta: delta}
	}
	worldBudget, err := parseBytes(*worldCache)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-serve: -world-cache:", err)
		return 2
	}
	if worldBudget == 0 {
		worldBudget = -1 // explicit 0 disables; Config 0 means "default"
	}
	costCap, err := parseBytes(*maxCost)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-serve: -max-cost:", err)
		return 2
	}
	injector, err := faults.Parse(*faultsSpec, *faultsSeed)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-serve: -faults:", err)
		return 2
	}
	if injector != nil {
		fmt.Fprintf(stderr, "ugs-serve: FAULT INJECTION ACTIVE: %s (seed %d)\n", injector, *faultsSeed)
	}

	// The server base context deliberately does NOT derive from ctx: a
	// signal must first stop the listener and drain in-flight requests
	// (srv.Shutdown below), and only then cancel background work. A child
	// context would abort every in-flight sparsify the instant the signal
	// arrived, defeating the drain budget.
	srvCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	server, err := serve.New(srvCtx, serve.Config{
		GraphDir:          *graphs,
		SparsifyCacheSize: *cacheSize,
		QueryCacheSize:    *queryCache,
		Workers:           *workers,
		MaxSamples:        *maxSamples,
		StoreBudgetBytes:  budget,
		ConvertDir:        *convertDir,
		Lanes:             laneWidth,
		FanOut:            fanWidth,
		Confidence:        defConfidence,
		WorldCacheBytes:   worldBudget,
		RequestTimeout:    *reqTimeout,
		MaxCost:           costCap,
		MaxQueue:          *maxQueue,
		Faults:            injector,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ugs-serve:", err)
		return 1
	}
	defer server.Close()

	// The pprof endpoints ride a separate listener on their own mux, so
	// profiling is opt-in and never reachable through the service address
	// (the service mux stays closed-world for untrusted clients).
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "ugs-serve: -pprof:", err)
			return 1
		}
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Handler: pprofMux, ReadHeaderTimeout: 10 * time.Second}
		defer pprofSrv.Close()
		go func() { _ = pprofSrv.Serve(pln) }()
		fmt.Fprintf(stdout, "ugs-serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ugs-serve:", err)
		return 1
	}
	httpSrv := &http.Server{
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return srvCtx },
	}
	fmt.Fprintf(stdout, "ugs-serve: %d graphs resident, listening on http://%s\n",
		server.Store().Len(), ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "ugs-serve:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: flip the drain gate (new requests get a typed 503
	// while connections stay answerable), stop accepting and drain in-flight
	// requests, cancel background work (jobs, flights) through the server
	// context, and wait for jobs to exit. A job that ignores cancellation
	// cannot wedge the shutdown: after the -drain budget its context is
	// force-cancelled, and after -drain-timeout more the process exits
	// regardless, reporting the stuck job.
	fmt.Fprintln(stdout, "ugs-serve: shutting down")
	server.StartDrain()
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), *drain)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "ugs-serve: shutdown:", err)
	}
	cancel()
	if !server.DrainJobs(*drain) {
		fmt.Fprintln(stderr, "ugs-serve: jobs did not drain within", *drain, "— forcing cancellation")
		server.CancelJobs()
		if !server.DrainJobs(*drainForce) {
			fmt.Fprintln(stderr, "ugs-serve: jobs still running after forced cancel; exiting anyway")
			<-serveErr
			return 1
		}
	}
	<-serveErr // Serve has returned ErrServerClosed by now
	fmt.Fprintln(stdout, "ugs-serve: bye")
	return 0
}
