package experiments

import (
	"context"
	"fmt"

	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/sweep"
)

// The sweeps in this file go beyond the paper's printed evaluation. Each
// is a core.Grid of paper-model cells run through sweep.EvaluateModel
// with the δ initial distribution: one shared state space, maintenance
// kernel and Rule 1 gain table per (C, ∆) group, provably identical
// cells solved once (the ν axis collapses wherever the firing set does
// not change), and the remaining distinct chains fanned across the pool.

// NuSweepConfig parameterizes the fine-grained ν sweep (S1).
type NuSweepConfig struct {
	// Nus is the Rule 1 threshold grid, much denser than ablation A1.
	Nus []float64
	// Ks are the protocols swept (Rule 1 is inert for k = 1).
	Ks []int
	// Mu and D fix the attack point.
	Mu, D float64
	// Solver selects the analytic linear-solver backend; the zero value
	// is the exact dense path.
	Solver matrix.SolverConfig
	// BuildPool fans the row-parallel transition-matrix construction of
	// each distinct cell; nil builds rows serially.
	BuildPool *engine.Pool
}

// DefaultNuSweepConfig sweeps 11 thresholds × every randomizing protocol
// at the paper's hardest printed attack point (µ=30%, d=90%).
func DefaultNuSweepConfig() NuSweepConfig {
	return NuSweepConfig{
		Nus: []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.60, 0.75, 0.90},
		Ks:  []int{2, 3, 4, 5, 6, 7},
		Mu:  0.30,
		D:   0.90,
	}
}

// NuSweep densely maps the response surface of the unspecified Rule 1
// threshold ν: for every (k, ν) it reports the expected safe/polluted
// times, the probability of ever being polluted and the number of states
// in which Rule 1 fires. The 66-cell grid runs through the amortized
// evaluator; thresholds that select the same firing set share one solve.
func NuSweep(ctx context.Context, pool *engine.Pool, cfg NuSweepConfig) (*Table, error) {
	if len(cfg.Nus) == 0 || len(cfg.Ks) == 0 {
		return nil, fmt.Errorf("experiments: NuSweep needs non-empty Nus and Ks")
	}
	cells, err := paperGrid(cfg.Ks, []float64{cfg.Mu}, []float64{cfg.D}, cfg.Nus)
	if err != nil {
		return nil, err
	}
	rs, err := evaluatePaper(ctx, pool, cfg.BuildPool, cfg.Solver, core.DistributionDelta, 1, cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Sweep S1 — dense ν response surface (µ=%g%%, d=%g%%, α=δ)", cfg.Mu*100, cfg.D*100),
		Columns: []string{"k", "nu", "E(T_S)", "E(T_P)", "P(ever polluted)", "rule1 states"},
		Note: fmt.Sprintf("extends ablation A1: the paper never fixes ν; the surface shows how the adversary's "+
			"voluntary-leave trigger shapes pollution (%d cells, %d distinct chains solved)",
			len(cells), rs.Evaluated),
	}
	// Grid order is k-major, ν-minor — the table's row order.
	for _, cell := range rs.Cells {
		p := cell.Cell.(core.Params)
		if err := t.AddRow(
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%g", p.Nu),
			fmtFloat(cell.Analysis.TimeInA),
			fmtFloat(cell.Analysis.TimeInB),
			fmtFloat(cell.Analysis.HitProbability),
			fmt.Sprintf("%d", cell.SharedTables.(*core.SweepTables).Gains(p.K).CountFires(p.Nu)),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// StressConfig parameterizes the large-cluster stress sweep (S2).
type StressConfig struct {
	// C and Delta size the cluster; C = ∆ = 9 grows Ω well past the
	// paper's 288 states and raises the Byzantine quorum to c = 2.
	C, Delta int
	// Ks are the protocols compared (typically 1 and C).
	Ks []int
	// Mus and Ds span the attack grid.
	Mus []float64
	Ds  []float64
	// Solver selects the analytic linear-solver backend; the zero value
	// is the exact dense path.
	Solver matrix.SolverConfig
	// BuildPool fans the row-parallel transition-matrix construction of
	// each distinct cell; nil builds rows serially.
	BuildPool *engine.Pool
}

// DefaultStressConfig evaluates C = ∆ = 9 across the paper's attack axes.
func DefaultStressConfig() StressConfig {
	return StressConfig{
		C:     9,
		Delta: 9,
		Ks:    []int{1, 9},
		Mus:   []float64{0.10, 0.20, 0.30},
		Ds:    []float64{0.50, 0.80, 0.90},
	}
}

// Stress evaluates the closed forms on a larger cluster than the paper
// ever prints (C = ∆ = 9 by default): expected safe/polluted times,
// pollution probability and the polluted-merge absorption risk for every
// (k, µ, d). The grid shares one state space and kernel through the
// sweep evaluator.
func Stress(ctx context.Context, pool *engine.Pool, cfg StressConfig) (*Table, error) {
	if len(cfg.Ks) == 0 || len(cfg.Mus) == 0 || len(cfg.Ds) == 0 {
		return nil, fmt.Errorf("experiments: Stress needs non-empty Ks, Mus and Ds")
	}
	cells, err := core.Grid([]int{cfg.C}, []int{cfg.Delta}, cfg.Ks, cfg.Mus, cfg.Ds, []float64{0.1})
	if err != nil {
		return nil, err
	}
	rs, err := evaluatePaper(ctx, pool, cfg.BuildPool, cfg.Solver, core.DistributionDelta, 1, cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Sweep S2 — large-cluster stress (C=%d, ∆=%d, |Ω|=%d, α=δ)",
			cfg.C, cfg.Delta, rs.Cells[0].States),
		Columns: []string{"protocol", "mu", "d", "E(T_S)", "E(T_P)", "P(ever polluted)", "p(polluted-merge)"},
		Note: fmt.Sprintf("beyond the paper's evaluation: quorum c=%d; checks that the C=∆=7 "+
			"qualitative ordering survives a larger cluster", (cfg.C-1)/3),
	}
	// Grid order is k-major, then µ, then d — the table's row order.
	for _, cell := range rs.Cells {
		p := cell.Cell.(core.Params)
		if err := t.AddRow(
			fmt.Sprintf("protocol_%d", p.K),
			fmtPercent(p.Mu),
			fmtPercent(p.D),
			fmtFloat(cell.Analysis.TimeInA),
			fmtFloat(cell.Analysis.TimeInB),
			fmtFloat(cell.Analysis.HitProbability),
			fmtFloat(cell.Analysis.Absorption[core.ClassNamePollutedMerge]),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// LargeClusterConfig parameterizes the sparse-solver scale sweep (S3).
type LargeClusterConfig struct {
	// Sizes are the cluster sizes evaluated with C = ∆ = size. C = ∆ = 16
	// already has 2295 transient states; 25 has 8424 — an order of
	// magnitude past what the dense path solves in reasonable time.
	Sizes []int
	// Ks are the protocols evaluated.
	Ks []int
	// Mu and D fix the attack point.
	Mu, D float64
	// Solver is the sparse backend; the zero value selects BiCGSTAB
	// (running this sweep densely is the thing it exists to avoid).
	Solver matrix.SolverConfig
	// BuildPool fans the per-row transition-matrix construction of each
	// cell across workers (bit-identical output for any width); nil
	// builds serially. At C = ∆ ≥ 40 construction is the dominant cost
	// of a cell, so the huge sweep always threads one through.
	BuildPool *engine.Pool
	// Label names the sweep in the table title; "" selects the S3 label.
	Label string
}

// DefaultLargeClusterConfig scales C = ∆ to 25 (|Ω| = 9126) at the
// paper's central attack point.
func DefaultLargeClusterConfig() LargeClusterConfig {
	return LargeClusterConfig{
		Sizes: []int{16, 20, 25},
		Ks:    []int{1},
		Mu:    0.2,
		D:     0.8,
	}
}

// DefaultHugeClusterConfig is the S4 frontier: C = ∆ ∈ {40, 50}, up to
// |Ω| = 67626 states (64974 transient) per cell — the scale the
// row-parallel construction pass and the memoized maintenance kernel
// exist for. Attack point and protocol follow S3.
func DefaultHugeClusterConfig() LargeClusterConfig {
	return LargeClusterConfig{
		Sizes: []int{40, 50},
		Ks:    []int{1},
		Mu:    0.2,
		D:     0.8,
		Label: "S4 — huge-cluster parallel-build analytics",
	}
}

// DefaultColossalClusterConfig is the S5 frontier: C = ∆ ∈ {75, 100},
// up to |Ω| = 520251 states (509949 transient) per cell, at the high
// survival probability d = 90% where the transient blocks mix slowly.
// The auto backend's mixing probe detects that regime and swaps the
// fixed two-sweep Gauss-Seidel preconditioner for ILU(0) — the step
// that makes this scale routine instead of iteration-bound.
func DefaultColossalClusterConfig() LargeClusterConfig {
	return LargeClusterConfig{
		Sizes:  []int{75, 100},
		Ks:     []int{1},
		Mu:     0.2,
		D:      0.9,
		Solver: matrix.SolverConfig{Kind: "auto"},
		Label:  "S5 — colossal-cluster preconditioned analytics",
	}
}

// LargeCluster evaluates the closed forms on state spaces far beyond the
// paper's printed figures — thousands of transient states — which only
// the sparse solver path makes affordable: per cell it reports |Ω|, the
// transient-state count, expected safe/polluted times, the pollution
// probability and the polluted-merge absorption risk. Each size is one
// single-geometry core.Grid (C = ∆ = size), so protocols at the same
// size share the enumerated space.
func LargeCluster(ctx context.Context, pool *engine.Pool, cfg LargeClusterConfig) (*Table, error) {
	if len(cfg.Sizes) == 0 || len(cfg.Ks) == 0 {
		return nil, fmt.Errorf("experiments: LargeCluster needs non-empty Sizes and Ks")
	}
	solver := withDefaultKind(cfg.Solver, "bicgstab")
	label := cfg.Label
	if label == "" {
		label = "S3 — large-cluster sparse analytics"
	}
	t := &Table{
		Title: fmt.Sprintf("Sweep %s (µ=%g%%, d=%g%%, α=δ, solver=%s)",
			label, cfg.Mu*100, cfg.D*100, solver.Kind),
		Columns: []string{"C=∆", "protocol", "|Ω|", "transient", "E(T_S)", "E(T_P)", "P(ever polluted)", "p(polluted-merge)", "backend", "iters"},
		Note:    "state spaces an order of magnitude past the printed figures; infeasible on the dense LU path, routine on CSR + iterative solves",
	}
	// One single-geometry grid per size; the independent per-size
	// evaluations fan across the pool (nested pool use splits width),
	// with rows appended in size order afterwards.
	resultSets := make([]*sweep.ModelResultSet, len(cfg.Sizes))
	if err := engine.Ensure(pool).Run(ctx, len(cfg.Sizes), func(i int) error {
		cells, err := core.Grid([]int{cfg.Sizes[i]}, []int{cfg.Sizes[i]}, cfg.Ks,
			[]float64{cfg.Mu}, []float64{cfg.D}, []float64{0.1})
		if err != nil {
			return err
		}
		rs, err := evaluatePaper(ctx, pool, cfg.BuildPool, solver, core.DistributionDelta, 1, cells)
		if err != nil {
			return err
		}
		resultSets[i] = rs
		return nil
	}); err != nil {
		return nil, err
	}
	for i, rs := range resultSets {
		for _, cell := range rs.Cells {
			if err := t.AddRow(
				fmt.Sprintf("%d", cfg.Sizes[i]),
				fmt.Sprintf("protocol_%d", cell.Cell.(core.Params).K),
				fmt.Sprintf("%d", cell.States),
				fmt.Sprintf("%d", cell.Transient),
				fmtFloat(cell.Analysis.TimeInA),
				fmtFloat(cell.Analysis.TimeInB),
				fmtFloat(cell.Analysis.HitProbability),
				fmtFloat(cell.Analysis.Absorption[core.ClassNamePollutedMerge]),
				cell.Analysis.Solver.Backend,
				fmt.Sprintf("%d", cell.Analysis.Solver.Iterations),
			); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
