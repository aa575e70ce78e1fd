package ugs_test

// End-to-end CLI tests, two layers deep: the in-process suite drives the
// tools through internal/cli's run functions (same flag parsing, same exit
// codes, no subprocess), and the subprocess suite additionally builds the
// real binaries and drives them through exec.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ugs"
	"ugs/internal/cli"
	"ugs/internal/serve"
)

// runTool invokes one of the in-process CLI entry points, returning its
// exit code and captured stdout/stderr.
func runTool(t *testing.T, run func([]string, io.Writer, io.Writer) int, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestInProcessPipeline drives the full generate → sparsify → re-sparsify →
// experiment pipeline through the main packages' run functions, asserting
// exit codes and the shape of every file the stages hand to each other.
func TestInProcessPipeline(t *testing.T) {
	work := t.TempDir()
	graphFile := filepath.Join(work, "g.ugs")
	sparseFile := filepath.Join(work, "s.ugs")
	resparseFile := filepath.Join(work, "ss.ugs")

	// Stage 1: generate.
	code, out, errOut := runTool(t, cli.RunGen, "-kind", "twitter", "-n", "100", "-seed", "5", "-out", graphFile)
	if code != 0 {
		t.Fatalf("ugs-gen exit %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "wrote "+graphFile) {
		t.Errorf("ugs-gen stdout: %q", out)
	}
	g, err := ugs.ReadGraphFile(graphFile)
	if err != nil {
		t.Fatalf("generated file unreadable: %v", err)
	}
	if g.NumVertices() != 100 || g.NumEdges() == 0 {
		t.Fatalf("generated graph shape: %v", g)
	}

	// Stage 2: sparsify.
	code, out, errOut = runTool(t, cli.RunSparsify,
		"-in", graphFile, "-out", sparseFile, "-alpha", "0.4", "-method", "emd", "-seed", "2")
	if code != 0 {
		t.Fatalf("ugs exit %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "degree discrepancy") || !strings.Contains(out, "wrote "+sparseFile) {
		t.Errorf("ugs stdout: %q", out)
	}
	sparse, err := ugs.ReadGraphFile(sparseFile)
	if err != nil {
		t.Fatalf("sparsified file unreadable: %v", err)
	}
	budget := int(math.Round(0.4 * float64(g.NumEdges())))
	if sparse.NumVertices() != g.NumVertices() || sparse.NumEdges() > budget {
		t.Fatalf("sparsified shape: %v, want ≤ %d edges on %d vertices", sparse, budget, g.NumVertices())
	}

	// Stage 3: re-sparsify the sparsified output (the ROADMAP regression
	// scenario: written sparsifier output must itself be a valid input).
	code, _, errOut = runTool(t, cli.RunSparsify,
		"-in", sparseFile, "-out", resparseFile, "-alpha", "0.5", "-method", "gdb", "-seed", "3")
	if code != 0 {
		t.Fatalf("re-ugs exit %d\nstderr: %s", code, errOut)
	}
	resparse, err := ugs.ReadGraphFile(resparseFile)
	if err != nil {
		t.Fatalf("re-sparsified file unreadable: %v", err)
	}
	if resparse.NumEdges() >= sparse.NumEdges() {
		t.Errorf("second pass did not reduce edges: %d >= %d", resparse.NumEdges(), sparse.NumEdges())
	}

	// Stage 4: experiments run on the library the files round-tripped
	// through.
	code, out, errOut = runTool(t, cli.RunExp, "table1")
	if code != 0 {
		t.Fatalf("ugs-exp exit %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "completed") {
		t.Errorf("ugs-exp stdout: %q", out)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the output of a
// concurrently running tool.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestInProcessServe boots ugs-serve through its run function on an
// ephemeral port, drives the HTTP API (upload → sparsify → cached repeat →
// query), then cancels the lifetime context and asserts a clean graceful
// shutdown with exit code 0.
func TestInProcessServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- cli.RunServeContext(ctx, []string{"-addr", "127.0.0.1:0", "-graphs", "examples/graphs"}, &stdout, &stderr)
	}()

	// Wait for the listen line and extract the base URL.
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		out := stdout.String()
		if i := strings.Index(out, "listening on http://"); i >= 0 {
			rest := out[i+len("listening on "):]
			base = strings.TrimSpace(rest[:strings.IndexByte(rest, '\n')])
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address\nstdout: %s\nstderr: %s", out, stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(blob)
	}
	post := func(path, contentType, body string) (int, string) {
		resp, err := http.Post(base+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(blob)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	// The -graphs dir was loaded at startup.
	if code, body := get("/v1/graphs"); code != 200 || !strings.Contains(body, "twitter80") || !strings.Contains(body, "tiny") {
		t.Fatalf("graphs: %d %s", code, body)
	}
	if code, body := post("/v1/sparsify", "application/json",
		`{"graph":"twitter80","alpha":0.3,"method":"gdb","seed":1}`); code != 200 || !strings.Contains(body, `"cached": false`) {
		t.Fatalf("sparsify: %d %s", code, body)
	}
	if code, body := post("/v1/sparsify", "application/json",
		`{"graph":"twitter80","alpha":0.3,"method":"gdb","seed":1}`); code != 200 || !strings.Contains(body, `"cached": true`) {
		t.Fatalf("repeat sparsify not cached: %d %s", code, body)
	}
	if code, body := post("/v1/query", "application/json",
		`{"graph":"twitter80","kind":"reliability","pairs":[[0,5],[3,9]],"samples":64,"seed":2}`); code != 200 || !strings.Contains(body, "values") {
		t.Fatalf("query: %d %s", code, body)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
	if out := stdout.String(); !strings.Contains(out, "shutting down") || !strings.Contains(out, "bye") {
		t.Errorf("shutdown log: %q", out)
	}
}

// TestInProcessExitCodes pins the exit-code contract of every tool: 2 for
// usage errors, 1 for runtime failures, 0 for success.
func TestInProcessExitCodes(t *testing.T) {
	work := t.TempDir()
	if code, _, _ := runTool(t, cli.RunGen); code != 2 {
		t.Errorf("ugs-gen without -out: exit %d, want 2", code)
	}
	if code, _, _ := runTool(t, cli.RunGen, "-kind", "bogus", "-out", filepath.Join(work, "x.ugs")); code != 1 {
		t.Errorf("ugs-gen bogus kind: exit %d, want 1", code)
	}
	if code, _, _ := runTool(t, cli.RunSparsify); code != 2 {
		t.Errorf("ugs without -in: exit %d, want 2", code)
	}
	if code, _, _ := runTool(t, cli.RunSparsify, "-in", filepath.Join(work, "missing.ugs")); code != 1 {
		t.Errorf("ugs missing input: exit %d, want 1", code)
	}
	if code, _, _ := runTool(t, cli.RunSparsify, "-bogus-flag"); code != 2 {
		t.Errorf("ugs bogus flag: exit %d, want 2", code)
	}
	if code, _, _ := runTool(t, cli.RunExp); code != 2 {
		t.Errorf("ugs-exp without ids: exit %d, want 2", code)
	}
	if code, _, _ := runTool(t, cli.RunExp, "nope"); code != 2 {
		t.Errorf("ugs-exp unknown id: exit %d, want 2", code)
	}
	if code, out, _ := runTool(t, cli.RunExp, "-list"); code != 0 || !strings.Contains(out, "table1") {
		t.Errorf("ugs-exp -list: exit %d, out %q", code, out)
	}
	// NaN passes a range check written as two comparisons.
	if code, _, _ := runTool(t, cli.RunExp, "-confidence", "0.1,NaN", "fig10"); code != 2 {
		t.Errorf("ugs-exp -confidence 0.1,NaN: exit %d, want 2", code)
	}
	// Fan-outs other than auto, 1 and 8 are usage errors at flag parsing.
	if code, _, errOut := runTool(t, cli.RunExp, "-fan-out", "4", "fig10"); code != 2 || !strings.Contains(errOut, "-fan-out") {
		t.Errorf("ugs-exp -fan-out 4: exit %d, want 2; stderr %q", code, errOut)
	}
	// Byte sizes whose suffix product overflows int64 (to -2^63 and to 0),
	// and a fan-out other than auto, 1 and 8. The context is already
	// cancelled, so a server that accepts the flag shuts down at once and
	// exits 0 instead of serving.
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	serveStopped := func(args []string, stdout, stderr io.Writer) int {
		return cli.RunServeContext(stopped, args, stdout, stderr)
	}
	for _, arg := range [][2]string{{"-max-cost", "8589934592G"}, {"-world-cache", "17179869184G"}, {"-fan-out", "4"}} {
		if code, _, errOut := runTool(t, serveStopped, "-addr", "127.0.0.1:0", arg[0], arg[1]); code != 2 || !strings.Contains(errOut, arg[1]) {
			t.Errorf("ugs-serve %s %s: exit %d, want 2 with the input quoted; stderr %q", arg[0], arg[1], code, errOut)
		}
	}
}

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// buildCLIs compiles the commands once per test process.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ugs-cli")
		if err != nil {
			cliErr = err
			return
		}
		for _, tool := range []string{"ugs", "ugs-gen", "ugs-exp"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			cmd.Env = os.Environ()
			if out, err := cmd.CombinedOutput(); err != nil {
				cliErr = err
				t.Logf("go build %s: %s", tool, out)
				return
			}
		}
		cliDir = dir
	})
	if cliErr != nil {
		t.Fatalf("building CLIs: %v", cliErr)
	}
	return cliDir
}

func runCLI(t *testing.T, dir, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIGenerateAndSparsify(t *testing.T) {
	dir := buildCLIs(t)
	work := t.TempDir()
	graphFile := filepath.Join(work, "g.txt")
	sparseFile := filepath.Join(work, "s.txt")

	out, err := runCLI(t, dir, "ugs-gen", "-kind", "twitter", "-n", "120", "-seed", "3", "-out", graphFile)
	if err != nil {
		t.Fatalf("ugs-gen: %v\n%s", err, out)
	}
	if !strings.Contains(out, "wrote") {
		t.Errorf("ugs-gen output: %q", out)
	}
	g, err := ugs.ReadGraphFile(graphFile)
	if err != nil {
		t.Fatalf("generated file unreadable: %v", err)
	}

	for _, method := range []string{"gdb", "emd", "ni", "ss"} {
		out, err := runCLI(t, dir, "ugs",
			"-in", graphFile, "-out", sparseFile,
			"-alpha", "0.3", "-method", method, "-seed", "1")
		if err != nil {
			t.Fatalf("ugs -method %s: %v\n%s", method, err, out)
		}
		sparse, err := ugs.ReadGraphFile(sparseFile)
		if err != nil {
			t.Fatalf("%s: sparsified file unreadable: %v", method, err)
		}
		// The sparsifier keeps α|E| edges, but Write drops those whose
		// probability was driven to exactly 0. Methods are deterministic
		// given (graph, α, seed), so rerunning in-process with the CLI's
		// flag defaults tells us exactly how many survive the write.
		sp, err := ugs.Lookup(method, ugs.WithSeed(1))
		if err != nil {
			t.Fatalf("%s: Lookup: %v", method, err)
		}
		res, err := sp.Sparsify(context.Background(), g, 0.3)
		if err != nil {
			t.Fatalf("%s: in-process Sparsify: %v", method, err)
		}
		want := 0
		for id := 0; id < res.Graph.NumEdges(); id++ {
			if res.Graph.Prob(id) > 0 {
				want++
			}
		}
		if kept := int(math.Round(0.3 * float64(g.NumEdges()))); res.Graph.NumEdges() != kept {
			t.Errorf("%s: in-process result has %d edges, want α|E| = %d", method, res.Graph.NumEdges(), kept)
		}
		if sparse.NumEdges() != want {
			t.Errorf("%s: written file has %d edges, want %d (α|E| minus p=0 drops)", method, sparse.NumEdges(), want)
		}
		for id := 0; id < sparse.NumEdges(); id++ {
			if sparse.Prob(id) == 0 {
				t.Errorf("%s: written file contains a p=0 edge", method)
				break
			}
		}
		if !strings.Contains(out, "degree discrepancy") {
			t.Errorf("%s: missing stats in output:\n%s", method, out)
		}
	}
}

func TestCLISparsifyErrors(t *testing.T) {
	dir := buildCLIs(t)
	if out, err := runCLI(t, dir, "ugs"); err == nil {
		t.Errorf("missing -in accepted:\n%s", out)
	}
	work := t.TempDir()
	graphFile := filepath.Join(work, "g.txt")
	if out, err := runCLI(t, dir, "ugs-gen", "-kind", "social", "-n", "30", "-avgdeg", "4", "-out", graphFile); err != nil {
		t.Fatalf("ugs-gen: %v\n%s", err, out)
	}
	if out, err := runCLI(t, dir, "ugs", "-in", graphFile, "-method", "bogus"); err == nil {
		t.Errorf("bogus method accepted:\n%s", out)
	}
	if out, err := runCLI(t, dir, "ugs", "-in", graphFile, "-alpha", "7"); err == nil {
		t.Errorf("alpha 7 accepted:\n%s", out)
	}
	if out, err := runCLI(t, dir, "ugs", "-in", filepath.Join(work, "missing.txt")); err == nil {
		t.Errorf("missing input accepted:\n%s", out)
	}
}

func TestCLIGenErrors(t *testing.T) {
	dir := buildCLIs(t)
	if out, err := runCLI(t, dir, "ugs-gen"); err == nil {
		t.Errorf("missing -out accepted:\n%s", out)
	}
	if out, err := runCLI(t, dir, "ugs-gen", "-kind", "bogus", "-out", filepath.Join(t.TempDir(), "x.txt")); err == nil {
		t.Errorf("bogus kind accepted:\n%s", out)
	}
}

func TestCLIExperiments(t *testing.T) {
	dir := buildCLIs(t)
	out, err := runCLI(t, dir, "ugs-exp", "-list")
	if err != nil {
		t.Fatalf("ugs-exp -list: %v\n%s", err, out)
	}
	for _, id := range []string{"table1", "table2", "fig10", "fig12"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list missing %q:\n%s", id, out)
		}
	}

	out, err = runCLI(t, dir, "ugs-exp", "table1")
	if err != nil {
		t.Fatalf("ugs-exp table1: %v\n%s", err, out)
	}
	if !strings.Contains(out, "Flickr-like") || !strings.Contains(out, "completed") {
		t.Errorf("table1 output unexpected:\n%s", out)
	}

	if out, err := runCLI(t, dir, "ugs-exp", "nope"); err == nil {
		t.Errorf("unknown experiment accepted:\n%s", out)
	}
	if out, err := runCLI(t, dir, "ugs-exp"); err == nil {
		t.Errorf("no-args accepted:\n%s", out)
	}
}

// bootServe starts ugs-serve in-process with the given extra flags and waits
// for its listen line, returning the base URL and the exit channel. The
// caller cancels ctx to begin shutdown.
func bootServe(t *testing.T, ctx context.Context, stdout, stderr *syncBuffer, extra ...string) (string, chan int) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	exit := make(chan int, 1)
	go func() {
		exit <- cli.RunServeContext(ctx, args, stdout, stderr)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		out := stdout.String()
		if i := strings.Index(out, "listening on http://"); i >= 0 {
			rest := out[i+len("listening on "):]
			return strings.TrimSpace(rest[:strings.IndexByte(rest, '\n')]), exit
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address\nstdout: %s\nstderr: %s", out, stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeStuckJobShutdown: a job wedged in a slow fault (which ignores
// cancellation, like a real stuck syscall) must not wedge shutdown — after
// the -drain budget its context is force-cancelled, and after -drain-timeout
// more the process exits anyway with code 1, reporting the stuck job.
func TestServeStuckJobShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	base, exit := bootServe(t, ctx, &stdout, &stderr,
		"-graphs", "examples/graphs",
		"-faults", "job.run:slow=5s",
		"-drain", "100ms", "-drain-timeout", "100ms")

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"graph":"twitter80","alpha":0.3,"method":"gdb","seed":1}`))
	if err != nil {
		t.Fatalf("create job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("create job: %d", resp.StatusCode)
	}
	time.Sleep(50 * time.Millisecond) // let the job enter its stuck fault

	cancel()
	select {
	case code := <-exit:
		if code != 1 {
			t.Errorf("exit code %d, want 1 (stuck job reported)\nstderr: %s", code, stderr.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stuck job wedged the shutdown")
	}
	errs := stderr.String()
	if !strings.Contains(errs, "forcing cancellation") || !strings.Contains(errs, "exiting anyway") {
		t.Errorf("stderr missing forced-cancel trail: %s", errs)
	}
	if !strings.Contains(errs, "FAULT INJECTION ACTIVE") {
		t.Errorf("fault injection not announced on stderr: %s", errs)
	}
}

// TestServeChaosSmoke is the CI chaos gate: boot ugs-serve with a corrupt
// graph (quarantined at load) and injected handler panics, hammer it with
// mixed traffic through the retrying client, and assert that panics were all
// recovered, the quarantine held, every failure wore the typed envelope (no
// bare 500s), and shutdown still exits 0.
func TestServeChaosSmoke(t *testing.T) {
	dir := t.TempDir()
	if err := ugs.WriteBinaryGraphFile(filepath.Join(dir, "g.ugsb"), ugs.TwitterLike(60, 3)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.ugsb"), []byte("definitely not a ugsb header"), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	base, exit := bootServe(t, ctx, &stdout, &stderr,
		"-graphs", dir,
		"-faults", "handler.query:panic@0.2", "-faults-seed", "7")

	client := serve.NewClient(base, serve.WithRetries(2),
		serve.WithBackoff(time.Millisecond, 10*time.Millisecond))
	nonEnvelope := 0
	sawEnvelope := func(err error) {
		var apiErr *serve.APIError
		if err == nil {
			return
		}
		if !errors.As(err, &apiErr) || strings.HasPrefix(apiErr.Message, "HTTP ") {
			nonEnvelope++
		}
	}
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0, 1:
			_, err := client.Query(ctx, &serve.QueryRequest{
				Graph: "g", Kind: "reliability", Pairs: [][2]int{{0, i % 60}},
				Samples: 16, Seed: int64(i)})
			sawEnvelope(err)
		case 2:
			// The quarantined graph: retried (it is retryable) then surfaced
			// as a typed quarantined error, never a bare 500.
			_, err := client.Query(ctx, &serve.QueryRequest{
				Graph: "bad", Kind: "reliability", Pairs: [][2]int{{0, 1}}, Samples: 8})
			if err == nil {
				t.Fatal("quarantined graph served a result")
			}
			sawEnvelope(err)
		default:
			_, err := client.Stats(ctx)
			sawEnvelope(err)
		}
	}
	if nonEnvelope != 0 {
		t.Errorf("%d failures were not typed envelopes", nonEnvelope)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("stats after chaos: %v", err)
	}
	if stats.Resilience.HandlerPanics == 0 {
		t.Error("no panics recovered at rate 0.2 over 20 queries")
	}
	if stats.Resilience.Quarantined < 1 || stats.Resilience.QuarantineRejects == 0 {
		t.Errorf("quarantine not exercised: %+v", stats.Resilience)
	}
	if stats.Resilience.FaultsInjected == 0 {
		t.Error("fault injector reports zero injections")
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestCLIPatch drives the "ugs patch" verb in both modes: local file → file,
// and against a live server through the retrying client.
func TestCLIPatch(t *testing.T) {
	work := t.TempDir()
	graphFile := filepath.Join(work, "g.ugs")
	outFile := filepath.Join(work, "patched.ugsb")
	editsFile := filepath.Join(work, "edits.txt")

	g := ugs.TwitterLike(50, 4)
	if err := ugs.WriteGraphFile(graphFile, g); err != nil {
		t.Fatal(err)
	}
	e0, e1 := g.Edge(0), g.Edge(1)
	edits := fmt.Sprintf("# reweight one edge, drop another\nreweight %d %d 0.25\ndelete %d %d\n",
		e0.U, e0.V, e1.U, e1.V)
	if err := os.WriteFile(editsFile, []byte(edits), 0o644); err != nil {
		t.Fatal(err)
	}

	// Local mode.
	code, out, errOut := runTool(t, cli.RunPatch, "-in", graphFile, "-out", outFile, "-edits", editsFile)
	if code != 0 {
		t.Fatalf("patch exit %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "2 edit(s) applied") {
		t.Errorf("patch stdout: %q", out)
	}
	pg, err := ugs.OpenMappedGraph(outFile)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	if id, ok := pg.EdgeID(e0.U, e0.V); !ok || pg.Prob(id) != 0.25 {
		t.Error("reweight not applied to output file")
	}
	if pg.HasEdge(e1.U, e1.V) || pg.NumEdges() != g.NumEdges()-1 {
		t.Error("delete not applied to output file")
	}

	// Usage and validation failures.
	if code, _, _ := runTool(t, cli.RunPatch, "-edits", editsFile); code != 2 {
		t.Errorf("missing -in/-out: exit %d", code)
	}
	badEdits := filepath.Join(work, "bad.txt")
	if err := os.WriteFile(badEdits, []byte("upsert 0 1 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errs := runTool(t, cli.RunPatch, "-in", graphFile, "-out", outFile, "-edits", badEdits); code != 1 || !strings.Contains(errs, "unknown edit op") {
		t.Errorf("bad edits: exit %d stderr %q", code, errs)
	}

	// Server mode, with optimistic concurrency.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := serve.New(ctx, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Store().Add("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, out, errOut = runTool(t, cli.RunPatch,
		"-server", ts.URL, "-graph", "g", "-expect-version", "1", "-edits", editsFile)
	if code != 0 {
		t.Fatalf("server patch exit %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "version 2") {
		t.Errorf("server patch stdout: %q", out)
	}
	// Replay with the now-stale precondition: typed conflict, exit 1.
	if code, _, errs := runTool(t, cli.RunPatch,
		"-server", ts.URL, "-graph", "g", "-expect-version", "1", "-edits", editsFile); code != 1 || !strings.Contains(errs, "conflict") {
		t.Errorf("stale expect-version: exit %d stderr %q", code, errs)
	}
}
