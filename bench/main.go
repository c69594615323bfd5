// Command bench is the repository's benchmark: four seeded workloads, nine
// end-to-end metrics taken with tracing off, and a traced run with layer
// probes for the per-layer metrics. See README.md for what each number means
// and which end-to-end metric each layer metric should move.
//
// Usage (from this directory, or `go run -C bench .` from the root):
//
//	go run . [-seed S] [-seconds T] [-out DIR]       all workloads, one child process each
//	go run . -workload NAME [-trace 1] ...           one workload, in this process
//	go run . -trace 1                                the traced run of every workload
//	go run . -compare A.json B.json                  apply the bounds to two result sets
//	go run . -selfcheck                              two sets of the same code must agree
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	resultsSchema = "kmgraph-bench/v1"
	// defaultSeconds is BENCHMARK.json's run_seconds: the timed window of an
	// untraced run and the cap on each window of a traced one.
	defaultSeconds = 20
	// setupsPerRun is how many times a run sets up; setup_s is the fastest.
	// It is fixed: it decides how many samples that minimum is taken over and
	// how much earlier set-ups add to the process's peak RSS, so sets made
	// with different values would not compare.
	setupsPerRun = 5
	// measuredProcs is the GOMAXPROCS every run is measured at. With both of
	// the box's virtual cores busy, the fastest time of the same op wanders
	// by 20% either way over minutes, in step on every workload, and nothing
	// a run measures in its own window can tell; with one busy thread it
	// stays within 6% (README.md, "Timings on a shared box").
	measuredProcs = 1
	// selfcheckReps is the runs per workload in each set of -selfcheck.
	selfcheckReps = 2
	// runLinePrefix starts the line on which a single-workload run prints its
	// whole runResult, for the parent process that collects a set.
	runLinePrefix = "run: "
)

// envInfo records where a result set was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

// resultsFile is results.json: one set of runs.
type resultsFile struct {
	Schema string      `json:"schema"`
	Env    envInfo     `json:"env"`
	Runs   []runResult `json:"runs"`
}

func main() {
	runtime.GOMAXPROCS(measuredProcs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

type cli struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out       string
	compare   bool
	selfcheck bool
	root      string
}

func run(ctx context.Context, args []string) (int, error) {
	var c cli
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	fs.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&c.seconds, "seconds", defaultSeconds, "length of the timed window")
	fs.IntVar(&c.trace, "trace", 0, "1: the traced run (per-layer metrics, trace.<workload>.json); 0: end-to-end metrics")
	fs.StringVar(&c.out, "out", "", "directory for results.json and traces (default <checkout>/.bench_out)")
	fs.BoolVar(&c.compare, "compare", false, "compare two results files: -compare A.json B.json")
	fs.BoolVar(&c.selfcheck, "selfcheck", false, "run two sets of the same code and require them to agree within the bounds")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if c.compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two results files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.trace != 0 && c.trace != 1 {
		return 2, errors.New("-trace is 0 or 1")
	}
	if c.seconds <= 0 {
		return 2, errors.New("-seconds must be positive")
	}
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	c.root = root
	if err := checkContract(root); err != nil {
		return 1, err
	}
	if c.out == "" {
		c.out = filepath.Join(root, ".bench_out")
	}
	switch {
	case c.selfcheck:
		return c.selfCheck(ctx)
	case c.workload != "":
		return c.one(ctx)
	default:
		set, err := c.set(ctx)
		if err != nil {
			return 1, err
		}
		if err := writeJSON(filepath.Join(c.out, "results.json"), set); err != nil {
			return 1, err
		}
		return reportFailed("results", set), nil
	}
}

// reportFailed names every run of the set with a failed op or a wrong answer
// and returns the exit code they call for. Correctness is judged run by run,
// never through a median: the same wrong answer on both sides of a comparison
// is not "unchanged".
func reportFailed(label string, set *resultsFile) int {
	code := 0
	for _, r := range set.Runs {
		if r.Failed > 0 || !r.Correct {
			fmt.Printf("%s: %s seed %d trace %d: %d of %d ops failed\n", label, r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
			code = 1
		}
	}
	return code
}

// findRoot walks up from the working directory to the checkout's root, the
// directory that holds BENCHMARK.json. Fixtures and outputs stay inside it:
// the driver's contract allows no read or write outside the checkout.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json above the working directory: run inside a checkout")
		}
		dir = parent
	}
}

func (c *cli) env() envInfo {
	return envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: gitCommit(c.root), Seed: c.seed}
}

// gitCommit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

// one runs a single workload in this process: the mode the driver calls.
// It prints every metric by name with its unit, then the whole run on one
// line, and ends with the driver's one-line JSON result. The only file it
// writes is the traced run's trace.<workload>.json.
func (c *cli) one(ctx context.Context) (int, error) {
	res, err := runWorkload(ctx, runOptions{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace == 1,
		WorkDir: c.root, OutDir: c.out,
	})
	if err != nil {
		return 1, err
	}
	printRun(res)
	whole, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(runLinePrefix + string(whole))
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

func printRun(r *runResult) {
	specs, kind := endToEnd, "end-to-end"
	if r.Trace == 1 {
		specs, kind = perLayer, "per-layer (traced)"
	}
	fmt.Printf("== %s  seed %d  n=%d m=%d k=%d  %s, %d timed ops, %d attempted, %d failed, %.1f s wall\n",
		r.Workload, r.Seed, r.Scale.N, r.Scale.M, r.Scale.K, kind, r.Samples, r.Attempted, r.Failed, r.WallS)
	for _, m := range specs {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("   %-36s %16.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if r.Trace == 0 {
		fmt.Printf("   %-36s %16d\n", "samples(op_p50_s)", r.Samples)
	} else if r.TracedP50 > 0 && r.Workload != wlServeChurn {
		// A layer saves at most its share of the blocking path: this is the
		// share the round engine's fixed cost per round can account for.
		share := r.Metrics["kmachine.round_us"].Value * 1e-6 * r.Metrics["kmachine.rounds"].Value / r.TracedP50
		fmt.Printf("   %-36s %16.6g ratio  (of a traced op of %.6g s)\n", "round_us x rounds / op_p50_s", share, r.TracedP50)
	}
	for _, n := range r.Notes {
		fmt.Println("   note:", n)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultsSchema)
	}
	return &f, nil
}

// child runs one workload in a child process, so that peak RSS, the heap
// and every pool start fresh for each workload, and returns its run.
func (c *cli) child(ctx context.Context, workload string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
		"-trace", fmt.Sprint(c.trace), "-out", c.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	// The child prints its report, then the whole run on one line, then the
	// driver's JSON: pass the report on and keep the run.
	var res *runResult
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if whole, ok := strings.CutPrefix(line, runLinePrefix); ok {
			res = new(runResult)
			if jerr := json.Unmarshal([]byte(whole), res); jerr != nil {
				return nil, fmt.Errorf("%s: the child's run line: %w", workload, jerr)
			}
			break
		}
		fmt.Print(line)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if res == nil {
		return nil, fmt.Errorf("%s: the child printed no run line", workload)
	}
	return res, nil
}

// set runs every workload once, each in a child process.
func (c *cli) set(ctx context.Context) (*resultsFile, error) {
	set := &resultsFile{Schema: resultsSchema, Env: c.env()}
	for _, w := range workloads {
		r, err := c.child(ctx, w.Name)
		if err != nil {
			return nil, err
		}
		set.Runs = append(set.Runs, *r)
	}
	return set, nil
}

// selfCheck runs two full sets of the same code, alternating between them
// run by run, and fails if any op of any run failed, any end-to-end cell
// differs by more than its bound, or an exact cell is not bit-identical.
// Cells the sets cannot resolve are reported: they say how noisy the machine
// was, not that the code moved.
func (c *cli) selfCheck(ctx context.Context) (int, error) {
	start := time.Now()
	sets := [2]*resultsFile{{Schema: resultsSchema, Env: c.env()}, {Schema: resultsSchema, Env: c.env()}}
	for rep := 0; rep < selfcheckReps; rep++ {
		for _, w := range workloads {
			for i := range sets {
				side := (i + rep) % 2 // alternate which set runs first
				r, err := c.child(ctx, w.Name)
				if err != nil {
					return 1, err
				}
				sets[side].Runs = append(sets[side].Runs, *r)
			}
		}
	}
	paths := [2]string{filepath.Join(c.out, "selfcheck.a.json"), filepath.Join(c.out, "selfcheck.b.json")}
	for i, s := range sets {
		if err := writeJSON(paths[i], s); err != nil {
			return 1, err
		}
	}
	code, err := compareFiles(paths[0], paths[1])
	// compareFiles judges B against A; here both are the code under test.
	code = max(code, reportFailed(paths[0], sets[0]))
	fmt.Printf("selfcheck: %d runs in %.0f s wall\n", len(sets[0].Runs)+len(sets[1].Runs), time.Since(start).Seconds())
	return code, err
}

// compareFiles applies the bounds to two result sets, A the baseline and B
// the change, and prints one row per workload and metric. It fails on a
// regression, a moved fingerprint, or any failed op in B.
func compareFiles(pathA, pathB string) (int, error) {
	a, err := readResults(pathA)
	if err != nil {
		return 1, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 1, err
	}
	cells := compareSets(a, b)
	if len(cells) == 0 {
		return 1, errors.New("the two sets share no workload run with the same -trace")
	}
	bad := 0
	counts := map[string]int{}
	for _, c := range cells {
		fmt.Println(c)
		counts[c.Verdict]++
		if c.Verdict == verdictRegressed || c.Verdict == verdictChanged {
			bad++
		}
	}
	verdicts := make([]string, 0, len(counts))
	for v, n := range counts {
		verdicts = append(verdicts, fmt.Sprintf("%d %s", n, v))
	}
	sort.Strings(verdicts)
	fmt.Printf("compare: %d cells: %s\n", len(cells), strings.Join(verdicts, ", "))
	if reportFailed(pathB, b) != 0 || bad > 0 {
		return 1, nil
	}
	return 0, nil
}

// values collects one metric over the runs of a workload in a set.
func values(f *resultsFile, workload string, trace int, metric string) (vals []float64, seeds map[int64]bool) {
	seeds = map[int64]bool{}
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
			seeds[r.Seed] = true
		}
	}
	return vals, seeds
}

// compareSets judges every cell both sets have runs for: the end-to-end
// metrics of untraced runs under their bounds, and of traced runs the exact
// per-layer metrics, which must not move at all.
func compareSets(a, b *resultsFile) []cell {
	var cells []cell
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			specs := endToEnd
			if trace == 1 {
				specs = perLayer
			}
			for _, m := range specs {
				va, seedsA := values(a, w.Name, trace, m.Name)
				vb, seedsB := values(b, w.Name, trace, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				if m.Name == "ok_share" {
					// Any rise in failures fails: a set is as good as its
					// worst run, which a median over three runs would hide.
					va, vb = []float64{slices.Min(va)}, []float64{slices.Min(vb)}
				}
				// A count repeats only for one input: exactness holds when
				// every run of the cell used the same seed.
				sameSeed := len(seedsA) == 1 && len(seedsB) == 1
				for s := range seedsA {
					sameSeed = sameSeed && seedsB[s]
				}
				exact := sameSeed && (m.Exact || exactOnJobs[m.Name]) &&
					!(w.Name == wlServeChurn && (trace == 0 || windowMetrics[m.Name]))
				if trace == 1 && !exact {
					continue
				}
				c := judge(m, exact, va, vb)
				c.Workload = w.Name
				cells = append(cells, c)
			}
		}
	}
	return cells
}
