// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the attackd serving layer, the sweep engine or
// the overlay simulator, checks that the outputs are correct, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). See README.md in this directory for the metric catalogue.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// the sidecar: environment, exact counts and every workload metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int64
	// endToEnd holds the gated metrics, printed on the result line of an
	// untraced run.
	endToEnd map[string]metric
	// extra holds workload metrics that exist only on this workload
	// (slo_rate_rps, run_s, ...), printed in the sidecar.
	extra map[string]metric
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// counts are machine-independent work counts that must repeat
	// exactly between runs of the same code and seed.
	counts map[string]int64
	// mismatches lists failed correctness checks; errors lists failed
	// requests (already counted in failed).
	mismatches, errors []string
	// notes carries free-form sidecar details (phase tables, sizes).
	notes map[string]any
}

func newReport() *report {
	return &report{
		endToEnd: map[string]metric{},
		extra:    map[string]metric{},
		layers:   map[string]metric{},
		counts:   map[string]int64{},
		notes:    map[string]any{},
	}
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// capacity makes serve-hot measure its closed-loop capacity instead.
	capacity bool
}

type workloadFunc func(ctx context.Context, o options) (*report, error)

var workloads = map[string]workloadFunc{
	"serve-hot":     runServeHot,
	"serve-cold":    runServeCold,
	"solve-offline": runSolveOffline,
	"simulate":      runSimulate,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: serve-hot, serve-cold, solve-offline or simulate")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 12, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&o.outDir, "outdir", ".bench_build", "directory for the span dump of traced runs")
	fs.BoolVar(&o.capacity, "capacity", false, "serve-hot only: measure the hot mix's closed-loop capacity and exit")
	writeRefs := fs.String("write-references", "", "recompute the solve-offline reference values into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRefs != "" {
		if err := writeReferences(*writeRefs); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o.trace = trace == 1
	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := wl(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, m := range rep.mismatches {
		fmt.Fprintln(stderr, "perfbench: mismatch:", m)
	}
	for _, e := range rep.errors {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	correct := len(rep.mismatches) == 0 && rep.failed == 0
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	failed := rep.failed + int64(len(rep.mismatches))
	rep.extra["error_rate"] = metric{float64(failed) / float64(attempted), "fraction"}

	metrics, missing, extra := fromCatalog(endToEndCatalog, rep.endToEnd)
	if o.trace {
		metrics, missing, extra = fromCatalog(perLayerCatalog, rep.layers)
	}
	enc := json.NewEncoder(stdout)
	sidecar := map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"seconds":        o.seconds,
		"trace":          trace,
		"environment":    environment(),
		"counts":         rep.counts,
		"workload_only":  rep.extra,
		"notes":          rep.notes,
		"mismatch_count": len(rep.mismatches),
		"not_reached":    missing,
		"uncatalogued":   extra,
	}
	if err := enc.Encode(map[string]any{"sidecar": sidecar}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	result := map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
	if err := enc.Encode(result); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// The verdict travels in "correct"; the exit status reports only
	// whether a result could be produced.
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment records what a reader needs to compare two runs.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"llc_bytes":  llcBytes(),
		"commit":     commit(),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			_, v, _ := strings.Cut(name, ":")
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the commit under test, as given in $PERFBENCH_COMMIT.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
