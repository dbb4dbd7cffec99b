// Command paperrepro regenerates every table and figure of the evaluation
// sections of the DSN 2011 targeted-attack paper (see DESIGN.md for the
// experiment index) plus this reproduction's ablations and engine-enabled
// sweeps. Experiments are scenarios in the internal/experiments registry;
// the full reproduction executes them concurrently on a worker pool while
// staying deterministic for a fixed -seed. Text renderings go to stdout in
// registry order; with -outdir, each artifact is also written as CSV.
//
// Usage:
//
//	paperrepro [-outdir results] [-quick] [-only fig3,table1,...]
//	           [-workers N] [-seed S] [-list] [-solver dense|sparse|bicgstab|ilu|auto]
//	           [-tol 1e-12] [-buildworkers N] [-cpuprofile f] [-memprofile f]
//
// -quick shrinks the slow grids for a fast smoke run. -workers 0 (the
// default) uses one worker per CPU. -list prints the scenario catalog and
// exits. -solver/-tol pick the analytic linear-solver backend of every
// scenario that solves closed forms: the paper's tables and figures, the
// ablations, the Monte-Carlo cross-check and the sweeps. Without -solver
// each scenario keeps its default backend (dense LU for the paper
// artifacts, bicgstab for S3/S4/S7, auto for S5, whose mixing probe
// engages the ILU(0) preconditioner on slow-mixing chains); -tol applies
// either way.
// -buildworkers sizes a dedicated pool for the row-parallel
// transition-matrix construction of every scenario that builds matrices:
// 0 (the default) shares the scenario pool, 1 forces a serial
// build, N > 1 dedicates that many workers; construction output is
// bit-identical for any setting. -cpuprofile/-memprofile write pprof
// profiles so solver hot spots are inspectable without code edits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"targetedattacks/internal/engine"
	"targetedattacks/internal/experiments"
	"targetedattacks/internal/matrix"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	var (
		outdir     = fs.String("outdir", "", "directory for CSV outputs (optional)")
		quick      = fs.Bool("quick", false, "shrink slow experiments for a smoke run")
		only       = fs.String("only", "", "comma-separated subset of scenarios (e.g. fig3,table1)")
		workers    = fs.Int("workers", 0, "worker pool width (0 = one per CPU)")
		seed       = fs.Int64("seed", 1, "root seed for randomized scenarios")
		list       = fs.Bool("list", false, "list the scenario catalog and exit")
		solver     = fs.String("solver", "", "linear-solver backend of every closed-form scenario (\"\" keeps each scenario's default): "+strings.Join(matrix.SolverKinds(), ", "))
		tol        = fs.Float64("tol", 0, "iterative solver residual tolerance (0 = default)")
		buildwkrs  = fs.Int("buildworkers", 0, "dedicated workers for transition-matrix construction (0 = share -workers pool)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	solverCfg := matrix.SolverConfig{Kind: *solver, Tol: *tol}
	if _, err := solverCfg.Build(); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro: memprofile:", err)
			}
		}()
	}
	if *list {
		for _, s := range experiments.Scenarios() {
			fmt.Fprintf(out, "%-10s %s\n", s.Key, s.Desc)
		}
		return nil
	}
	keys := experiments.Keys()
	if *only != "" {
		keys = nil
		for _, key := range strings.Split(*only, ",") {
			if key = strings.TrimSpace(key); key != "" {
				keys = append(keys, key)
			}
		}
		if len(keys) == 0 {
			return fmt.Errorf("no experiments matched -only=%q", *only)
		}
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}
	env := experiments.Env{
		Pool:   engine.New(*workers),
		Seed:   *seed,
		Quick:  *quick,
		Solver: solverCfg,
	}
	if *buildwkrs > 0 {
		env.BuildPool = engine.New(*buildwkrs)
	}
	results, err := experiments.RunScenarios(context.Background(), env, keys)
	if err != nil {
		return err
	}
	var failed []string
	for _, res := range results {
		fmt.Fprintf(out, "\n### %s (%s)\n\n", res.Scenario.Desc, res.Scenario.Key)
		if res.Err != nil {
			// Scenario failures are isolated: report it, keep rendering
			// the others, fail the run at the end.
			fmt.Fprintf(out, "error: %v\n", res.Err)
			failed = append(failed, res.Scenario.Key)
			continue
		}
		for _, art := range res.Artifacts {
			if err := art.Text(out); err != nil {
				return fmt.Errorf("%s: rendering: %w", res.Scenario.Key, err)
			}
			if *outdir != "" {
				path := filepath.Join(*outdir, art.Name+".csv")
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := art.CSV(f); err != nil {
					f.Close()
					return fmt.Errorf("%s: writing %s: %w", res.Scenario.Key, path, err)
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(out, "csv: %s\n", path)
			}
		}
	}
	fmt.Fprintf(out, "\n%d experiment groups regenerated.\n", len(results)-len(failed))
	if len(failed) > 0 {
		return fmt.Errorf("%d scenario(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}
