// Command attackmodel computes the closed-form results of the DSN 2011
// targeted-attack model for one parameter point: expected safe/polluted
// times before absorption, successive sojourn durations and absorption
// probabilities.
//
// Usage:
//
//	attackmodel [-C 7] [-delta 7] [-mu 0.2] [-d 0.9] [-k 1] [-nu 0.1]
//	            [-alpha delta|beta] [-sojourns 2] [-overlay 0] [-events 100000]
//	            [-mc 0] [-mcsteps 1000000] [-workers 0] [-seed 1]
//	            [-scenarios] [-solver dense|sparse|bicgstab|ilu|auto] [-tol 1e-12]
//
// -solver selects the linear-solver backend of the closed forms: the
// exact dense LU (default), a sparse iterative path that keeps large
// C/∆ state spaces affordable (bicgstab, or the ILU(0)-preconditioned
// ilu for slow-mixing chains as d → 1), or auto, which
// probes each block's mixing speed and picks for you; -tol tunes the
// iterative residual target.
//
// With -overlay n > 0 it additionally prints the overlay-level expected
// proportions of safe and polluted clusters after -events events
// (Theorem 2). With -mc N > 0 it cross-validates the closed forms against
// N Monte-Carlo trajectories fanned across -workers workers — the result
// is deterministic in -seed alone, for any worker count. -scenarios lists
// the registered experiment scenarios (run them with cmd/paperrepro).
//
// -model selects a registered chain family other than the default paper
// model. For "apt-compromise" the cell comes from -n/-theta/-phi/-rho/
// -detect (or a raw -params JSON object for any family), the initial
// distribution from -dist, and the output is the model-free analysis:
// expected times in the A/B transient split, successive sojourns, hit
// probability and per-class absorption.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	_ "targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/experiments"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/montecarlo"
	"targetedattacks/internal/overlay"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "attackmodel:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("attackmodel", flag.ContinueOnError)
	var (
		c         = fs.Int("C", 7, "core set size C")
		delta     = fs.Int("delta", 7, "maximal spare set size ∆")
		mu        = fs.Float64("mu", 0.2, "fraction µ of malicious peers in the universe")
		d         = fs.Float64("d", 0.9, "identifier survival probability d per time unit")
		k         = fs.Int("k", 1, "protocol_k randomization amount (1..C)")
		nu        = fs.Float64("nu", 0.1, "Rule 1 threshold ν")
		alpha     = fs.String("alpha", "delta", "initial distribution: delta or beta")
		sojourns  = fs.Int("sojourns", 2, "number of successive sojourns to report")
		overlayN  = fs.Int("overlay", 0, "if > 0, also evaluate an overlay of n clusters (Theorem 2)")
		events    = fs.Int("events", 100000, "overlay events m for -overlay")
		mcRuns    = fs.Int("mc", 0, "if > 0, cross-validate with this many Monte-Carlo trajectories")
		mcSteps   = fs.Int("mcsteps", 1_000_000, "step budget per Monte-Carlo trajectory")
		workers   = fs.Int("workers", 0, "worker pool width for -mc (0 = one per CPU)")
		seed      = fs.Int64("seed", 1, "root seed for -mc")
		scenarios = fs.Bool("scenarios", false, "list the experiment scenario registry and exit")
		solver    = fs.String("solver", "", "linear-solver backend: "+strings.Join(matrix.SolverKinds(), ", "))
		tol       = fs.Float64("tol", 0, "iterative solver residual tolerance (0 = default)")
		modelName = fs.String("model", "", "chain family: "+strings.Join(chainmodel.Names(), ", ")+" (\"\" = "+chainmodel.DefaultFamily+")")
		params    = fs.String("params", "", "non-default -model: raw JSON cell, overriding the per-family flags")
		distName  = fs.String("dist", "", "non-default -model: named initial distribution (\"\" = family default)")
		n         = fs.Int("n", 6, "apt-compromise: number of nodes n")
		theta     = fs.Float64("theta", 0.5, "apt-compromise: per-probe infiltration probability θ")
		phi       = fs.Float64("phi", 0.4, "apt-compromise: escalation probability φ")
		rho       = fs.Float64("rho", 0.3, "apt-compromise: implant stealth ρ")
		detect    = fs.Float64("detect", 0.7, "apt-compromise: detection probability δ")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenarios {
		for _, s := range experiments.Scenarios() {
			fmt.Printf("%-10s %s\n", s.Key, s.Desc)
		}
		fmt.Println("\nrun scenarios with: paperrepro -only <keys> [-workers N] [-seed S]")
		return nil
	}
	if name := strings.ToLower(strings.TrimSpace(*modelName)); name != "" && name != chainmodel.DefaultFamily {
		body := *params
		if body == "" {
			body = fmt.Sprintf(`{"n":%d,"theta":%g,"phi":%g,"rho":%g,"detect":%g}`,
				*n, *theta, *phi, *rho, *detect)
		}
		return runModel(name, body, *distName, *sojourns, matrix.SolverConfig{Kind: *solver, Tol: *tol})
	}
	p := core.Params{C: *c, Delta: *delta, Mu: *mu, D: *d, K: *k, Nu: *nu}
	model, err := core.NewWithSolver(p, matrix.SolverConfig{Kind: *solver, Tol: *tol})
	if err != nil {
		return err
	}
	var dist core.InitialDistribution
	switch *alpha {
	case "delta":
		dist = core.DistributionDelta
	case "beta":
		dist = core.DistributionBeta
	default:
		return fmt.Errorf("unknown -alpha %q (want delta or beta)", *alpha)
	}
	a, err := model.AnalyzeNamed(dist, *sojourns)
	if err != nil {
		return err
	}
	fmt.Printf("model: %v, α = %v, |Ω| = %d states, solver = %s\n", p, dist, model.Space().Size(), model.SolverName())
	if a.Solver.Iterations > 0 || a.Solver.Fallbacks > 0 {
		line := fmt.Sprintf("solver stats: backend = %s, %d iterations", a.Solver.Backend, a.Solver.Iterations)
		if a.Solver.Fallbacks > 0 {
			line += fmt.Sprintf(", %d dense fallbacks (%s)", a.Solver.Fallbacks, a.Solver.FallbackReason)
		}
		fmt.Println(line)
	}
	fmt.Printf("E(T_S) = %.6g   (expected events in safe states before absorption)\n", a.ExpectedSafeTime)
	fmt.Printf("E(T_P) = %.6g   (expected events in polluted states before absorption)\n", a.ExpectedPollutedTime)
	fmt.Printf("P(ever polluted) = %.6g\n", a.PollutionProbability)
	for i := range a.SafeSojourns {
		fmt.Printf("E(T_S,%d) = %-12.6g E(T_P,%d) = %.6g\n",
			i+1, a.SafeSojourns[i], i+1, a.PollutedSojourns[i])
	}
	names := make([]string, 0, len(a.Absorption))
	for name := range a.Absorption {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("p(%s) = %.6g\n", name, a.Absorption[name])
	}
	if *mcRuns > 0 {
		if err := crossValidate(model, a, dist, *mcRuns, *mcSteps, *workers, *seed); err != nil {
			return err
		}
	}
	if *overlayN > 0 {
		cc, err := overlay.New(model, *overlayN)
		if err != nil {
			return err
		}
		init, err := model.Initial(dist)
		if err != nil {
			return err
		}
		pts, err := cc.ProportionSeries(init, *events, 10)
		if err != nil {
			return err
		}
		fmt.Printf("\noverlay of n=%d clusters (Theorem 2):\n", *overlayN)
		fmt.Printf("%-12s %-12s %s\n", "events", "E(N_S)/n", "E(N_P)/n")
		for _, pt := range pts {
			fmt.Printf("%-12d %-12.6f %.6f\n", pt.Events, pt.Safe, pt.Polluted)
		}
	}
	return nil
}

// runModel analyzes one cell of a non-default chain family through the
// model-agnostic engine and prints the model-free closed forms.
func runModel(name, body, dist string, sojourns int, sc matrix.SolverConfig) error {
	fam, ok := chainmodel.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown -model %q (registered: %s)", name, strings.Join(chainmodel.Names(), ", "))
	}
	cell, err := fam.ParseCell([]byte(body))
	if err != nil {
		return err
	}
	distName, err := fam.ParseDist(dist)
	if err != nil {
		return err
	}
	states, err := fam.StateCount(cell)
	if err != nil {
		return err
	}
	shared, err := fam.NewShared([]chainmodel.Cell{cell})
	if err != nil {
		return err
	}
	inst, err := fam.Build(shared, cell, sc, nil)
	if err != nil {
		return err
	}
	a, err := chainmodel.Analyze(inst, distName, sojourns)
	if err != nil {
		return err
	}
	dto, err := json.Marshal(fam.CellDTO(cell))
	if err != nil {
		return err
	}
	solverName := sc.Kind
	if solverName == "" {
		solverName = "dense"
	}
	fmt.Printf("model: %s %s, α = %s, |Ω| = %d states, solver = %s\n",
		fam.Name(), dto, distName, states, solverName)
	if a.Solver.Iterations > 0 || a.Solver.Fallbacks > 0 {
		line := fmt.Sprintf("solver stats: backend = %s, %d iterations", a.Solver.Backend, a.Solver.Iterations)
		if a.Solver.Fallbacks > 0 {
			line += fmt.Sprintf(", %d dense fallbacks (%s)", a.Solver.Fallbacks, a.Solver.FallbackReason)
		}
		fmt.Println(line)
	}
	fmt.Printf("E(T_A) = %.6g   (expected events in transient subset A before absorption)\n", a.TimeInA)
	fmt.Printf("E(T_B) = %.6g   (expected events in transient subset B before absorption)\n", a.TimeInB)
	fmt.Printf("P(hit B) = %.6g\n", a.HitProbability)
	for i := range a.SojournsA {
		fmt.Printf("E(T_A,%d) = %-12.6g E(T_B,%d) = %.6g\n",
			i+1, a.SojournsA[i], i+1, a.SojournsB[i])
	}
	classes := make([]string, 0, len(a.Absorption))
	for class := range a.Absorption {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Printf("p(%s) = %.6g\n", class, a.Absorption[class])
	}
	return nil
}

// crossValidate fans runs Monte-Carlo trajectories across the pool and
// prints the simulated estimates beside the closed forms.
func crossValidate(model *core.Model, exact *core.Analysis, dist core.InitialDistribution, runs, maxSteps, workers int, seed int64) error {
	init, err := model.Initial(dist)
	if err != nil {
		return err
	}
	sim, err := montecarlo.New(model, seed)
	if err != nil {
		return err
	}
	pool := engine.New(workers)
	sum, err := sim.RunManyBatch(context.Background(), pool, init, runs, maxSteps)
	if err != nil {
		return err
	}
	fmt.Printf("\nMonte-Carlo cross-check (%d runs, seed %d, %d workers):\n", runs, seed, pool.Workers())
	fmt.Printf("%-22s %-14s %s\n", "quantity", "closed form", "monte carlo")
	fmt.Printf("%-22s %-14.6g %.6g ± %.2g\n", "E(T_S)",
		exact.ExpectedSafeTime, sum.SafeTime.Mean(), sum.SafeTime.ConfidenceInterval95())
	fmt.Printf("%-22s %-14.6g %.6g ± %.2g\n", "E(T_P)",
		exact.ExpectedPollutedTime, sum.PollutedTime.Mean(), sum.PollutedTime.ConfidenceInterval95())
	for _, class := range []string{
		core.ClassNameSafeMerge, core.ClassNameSafeSplit,
		core.ClassNamePollutedMerge, core.ClassNamePollutedSplit,
	} {
		fmt.Printf("%-22s %-14.6g %.6g\n", "p("+class+")",
			exact.Absorption[class], sum.Absorption.Frequency(class))
	}
	if sum.Truncated > 0 {
		fmt.Printf("%d trajectories hit the %d-step budget\n", sum.Truncated, maxSteps)
	}
	return nil
}
