package experiments

import (
	"context"
	"fmt"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/montecarlo"
)

// AblationKConfig parameterizes the all-k ablation.
type AblationKConfig struct {
	Mus []float64
	D   float64
	Nu  float64
	// Solver selects the analytic linear-solver backend; the zero value
	// is the paper-exact dense path.
	Solver matrix.SolverConfig
	// BuildPool fans each cell's matrix construction; nil builds rows
	// serially.
	BuildPool *engine.Pool
}

// DefaultAblationKConfig sweeps every protocol_k at d = 90%.
func DefaultAblationKConfig() AblationKConfig {
	return AblationKConfig{
		Mus: []float64{0.10, 0.20, 0.30},
		D:   0.90,
		Nu:  0.1,
	}
}

// AblationK extends the paper's Figure 3 to every k = 1…C. The paper only
// shows k = 1 and k = C, asserting that they bound the other protocols;
// this ablation verifies the claim for the whole family, one (µ, k) sweep
// cell each.
func AblationK(ctx context.Context, pool *engine.Pool, cfg AblationKConfig) (*Table, error) {
	if len(cfg.Mus) == 0 {
		return nil, fmt.Errorf("experiments: AblationK needs non-empty Mus")
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation A2 — protocol_k for k=1…C (d=%g%%, α=δ)", cfg.D*100),
		Columns: []string{"mu", "k", "E(T_S)", "E(T_P)"},
		Note:    "paper (Section VII-C): protocol_1 and protocol_C bound the family",
	}
	var cells []chainmodel.Cell
	for _, mu := range cfg.Mus {
		for k := 1; k <= 7; k++ {
			p := baseParams()
			p.Mu, p.D, p.K, p.Nu = mu, cfg.D, k, cfg.Nu
			cells = append(cells, p)
		}
	}
	rs, err := evaluatePaper(ctx, pool, cfg.BuildPool, cfg.Solver, core.DistributionDelta, 1, cells)
	if err != nil {
		return nil, err
	}
	for _, cell := range rs.Cells {
		p := cell.Cell.(core.Params)
		if err := t.AddRow(
			fmtPercent(p.Mu),
			fmt.Sprintf("%d", p.K),
			fmtFloat(cell.Analysis.TimeInA),
			fmtFloat(cell.Analysis.TimeInB),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AblationNuConfig parameterizes the ν-sensitivity ablation.
type AblationNuConfig struct {
	Nus []float64
	Mu  float64
	D   float64
	Ks  []int
	// Solver selects the analytic linear-solver backend; the zero value
	// is the paper-exact dense path.
	Solver matrix.SolverConfig
	// BuildPool fans each cell's matrix construction; nil builds rows
	// serially.
	BuildPool *engine.Pool
}

// DefaultAblationNuConfig sweeps ν across two orders of magnitude.
func DefaultAblationNuConfig() AblationNuConfig {
	return AblationNuConfig{
		Nus: []float64{0.01, 0.05, 0.1, 0.2, 0.5},
		Mu:  0.30,
		D:   0.90,
		Ks:  []int{2, 4, 7},
	}
}

// AblationNu measures the sensitivity of the results to the Rule 1
// threshold ν, which the paper leaves unspecified. For k = 1 Rule 1 never
// fires, so only k > 1 protocols are swept. The (k, ν) grid runs through
// the sweep evaluator, so thresholds that select the same firing set
// share one solve; the Rule 1 column counts the firing states from the
// group's shared relation (2) gain table.
func AblationNu(ctx context.Context, pool *engine.Pool, cfg AblationNuConfig) (*Table, error) {
	if len(cfg.Nus) == 0 || len(cfg.Ks) == 0 {
		return nil, fmt.Errorf("experiments: AblationNu needs non-empty Nus and Ks")
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation A1 — ν sensitivity of Rule 1 (µ=%g%%, d=%g%%, α=δ)", cfg.Mu*100, cfg.D*100),
		Columns: []string{"k", "nu", "E(T_S)", "E(T_P)", "rule1 states"},
		Note:    "ν is not printed in the paper; this reproduction defaults to 0.1",
	}
	cells, err := paperGrid(cfg.Ks, []float64{cfg.Mu}, []float64{cfg.D}, cfg.Nus)
	if err != nil {
		return nil, err
	}
	rs, err := evaluatePaper(ctx, pool, cfg.BuildPool, cfg.Solver, core.DistributionDelta, 1, cells)
	if err != nil {
		return nil, err
	}
	for _, cell := range rs.Cells {
		p := cell.Cell.(core.Params)
		if err := t.AddRow(
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%g", p.Nu),
			fmtFloat(cell.Analysis.TimeInA),
			fmtFloat(cell.Analysis.TimeInB),
			fmt.Sprintf("%d", cell.SharedTables.(*core.SweepTables).Gains(p.K).CountFires(p.Nu)),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ValidationConfig parameterizes the Monte-Carlo cross-validation.
type ValidationConfig struct {
	Points   []core.Params
	Runs     int
	MaxSteps int
	Seed     int64
	// Solver selects the analytic linear-solver backend of the closed
	// forms being validated; the zero value is the exact dense path.
	Solver matrix.SolverConfig
	// BuildPool fans each point's matrix construction; nil builds rows
	// serially.
	BuildPool *engine.Pool
}

// DefaultValidationConfig validates three representative points.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Points: []core.Params{
			{C: 7, Delta: 7, Mu: 0.10, D: 0.50, K: 1, Nu: 0.1},
			{C: 7, Delta: 7, Mu: 0.20, D: 0.80, K: 1, Nu: 0.1},
			{C: 7, Delta: 7, Mu: 0.20, D: 0.80, K: 7, Nu: 0.1},
		},
		Runs:     20000,
		MaxSteps: 1_000_000,
		Seed:     1,
	}
}

// Validation cross-checks the closed forms against direct Monte-Carlo
// simulation of the chain (experiment A3). The trajectory batches fan out
// across the pool; results are identical for every pool width.
func Validation(ctx context.Context, pool *engine.Pool, cfg ValidationConfig) (*Table, error) {
	t := &Table{
		Title: "Validation A3 — closed form vs Monte-Carlo",
		Columns: []string{
			"params", "quantity", "closed form", "monte carlo", "95% CI",
		},
	}
	for _, p := range cfg.Points {
		m, err := core.NewWithSolver(p, cfg.Solver, core.WithBuildPool(cfg.BuildPool))
		if err != nil {
			return nil, err
		}
		exact, err := m.AnalyzeNamed(core.DistributionDelta, 1)
		if err != nil {
			return nil, err
		}
		sim, err := montecarlo.New(m, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sum, err := sim.RunManyBatch(ctx, pool, m.InitialDelta(), cfg.Runs, cfg.MaxSteps)
		if err != nil {
			return nil, err
		}
		rows := []struct {
			name       string
			exact, mc  float64
			confidence float64
		}{
			{"E(T_S)", exact.ExpectedSafeTime, sum.SafeTime.Mean(), sum.SafeTime.ConfidenceInterval95()},
			{"E(T_P)", exact.ExpectedPollutedTime, sum.PollutedTime.Mean(), sum.PollutedTime.ConfidenceInterval95()},
			{"p(safe-merge)", exact.Absorption[core.ClassNameSafeMerge],
				sum.Absorption.Frequency(core.ClassNameSafeMerge), 0},
			{"p(safe-split)", exact.Absorption[core.ClassNameSafeSplit],
				sum.Absorption.Frequency(core.ClassNameSafeSplit), 0},
			{"p(polluted-merge)", exact.Absorption[core.ClassNamePollutedMerge],
				sum.Absorption.Frequency(core.ClassNamePollutedMerge), 0},
		}
		label := fmt.Sprintf("k=%d µ=%g%% d=%g%%", p.K, p.Mu*100, p.D*100)
		for _, r := range rows {
			ci := ""
			if r.confidence > 0 {
				ci = fmt.Sprintf("±%.3f", r.confidence)
			}
			if err := t.AddRow(label, r.name, fmtFloat(r.exact), fmtFloat(r.mc), ci); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
