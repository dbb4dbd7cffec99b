package experiments

import (
	"context"
	"fmt"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/combin"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/overlay"
)

// baseParams returns the paper's evaluation configuration: C = 7, ∆ = 7.
func baseParams() core.Params {
	return core.Params{C: 7, Delta: 7, Mu: 0, D: 0, K: 1, Nu: 0.1}
}

// paperGrid is the (k, µ, d, ν) cross product at the paper's C = ∆ = 7,
// in core.Grid order: k outermost, ν innermost.
func paperGrid(ks []int, mus, ds, nus []float64) ([]chainmodel.Cell, error) {
	base := baseParams()
	return core.Grid([]int{base.C}, []int{base.Delta}, ks, mus, ds, nus)
}

// Figure1 regenerates the state-space census behind the paper's Figure 1:
// the partition of Ω into S, P and the closed classes, with the paper's
// 288-state total for C = ∆ = 7.
func Figure1(c, delta int) (*Table, error) {
	sp, err := core.NewSpace(c, delta)
	if err != nil {
		return nil, err
	}
	census := sp.Census()
	t := &Table{
		Title:   fmt.Sprintf("Figure 1 — partition of Ω for C=%d, ∆=%d (|Ω|=%d)", c, delta, sp.Size()),
		Columns: []string{"class", "paper notation", "states"},
		Note:    "paper caption: for C = 7 and ∆ = 7, 288 states",
	}
	rows := []struct {
		cl   core.Class
		name string
	}{
		{core.ClassSafe, "S (transient safe)"},
		{core.ClassPolluted, "P (transient polluted)"},
		{core.ClassSafeMerge, "A^m_S (safe merge)"},
		{core.ClassSafeSplit, "A^l_S (safe split)"},
		{core.ClassPollutedMerge, "A^m_P (polluted merge)"},
		{core.ClassPollutedSplit, "A^l_P (unreachable)"},
	}
	for _, r := range rows {
		if err := t.AddRow(r.cl.String(), r.name, fmt.Sprintf("%d", census[r.cl])); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Figure2Config parameterizes Figure 2.
type Figure2Config struct {
	// Ks are the protocols whose matrices are constructed.
	Ks []int
	// BuildPool fans each matrix's row construction across workers; nil
	// builds rows serially. Output is bit-identical for any width.
	BuildPool *engine.Pool
}

// DefaultFigure2Config constructs every protocol_k matrix of the paper's
// configuration.
func DefaultFigure2Config() Figure2Config {
	return Figure2Config{Ks: []int{1, 2, 3, 4, 5, 6, 7}}
}

// Figure2 regenerates the object depicted by the paper's Figure 2: the
// transition matrix M itself. It reports, per protocol_k, the matrix
// dimensions, the number of non-zero transitions and the worst row-sum
// deviation from stochasticity; the per-k constructions fan out across
// the pool.
func Figure2(ctx context.Context, pool *engine.Pool, cfg Figure2Config) (*Table, error) {
	if len(cfg.Ks) == 0 {
		return nil, fmt.Errorf("experiments: Figure2 needs non-empty Ks")
	}
	t := &Table{
		Title:   "Figure 2 — transition matrix construction (C=7, ∆=7, µ=20%, d=90%)",
		Columns: []string{"protocol", "states", "transitions", "max |row sum − 1|"},
	}
	if err := gridRows(ctx, pool, t, len(cfg.Ks), func(i int) ([][]string, error) {
		k := cfg.Ks[i]
		p := baseParams()
		p.Mu, p.D, p.K = 0.20, 0.90, k
		m, sp, err := core.BuildTransitionMatrix(p, core.WithBuildPool(cfg.BuildPool))
		if err != nil {
			return nil, err
		}
		var worst float64
		for _, s := range m.RowSums() {
			if dev := abs(s - 1); dev > worst {
				worst = dev
			}
		}
		return [][]string{{
			fmt.Sprintf("protocol_%d", k),
			fmt.Sprintf("%d", sp.Size()),
			fmt.Sprintf("%d", m.NNZ()),
			fmt.Sprintf("%.2e", worst),
		}}, nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Figure3Config parameterizes Figure 3.
type Figure3Config struct {
	// Mus are the adversary fractions on the x-axis (paper: 0…30% by 5%).
	Mus []float64
	// Ds are the survival probabilities (paper: 0, 30%, 80%, 90%).
	Ds []float64
	// Ks are the protocols (paper: 1 and C = 7).
	Ks []int
	// Distributions are the initial distributions (paper: δ and β).
	Distributions []core.InitialDistribution
	// Solver selects the analytic linear-solver backend; the zero value
	// is the paper-exact dense path.
	Solver matrix.SolverConfig
	// BuildPool fans each cell's matrix construction; nil builds rows
	// serially.
	BuildPool *engine.Pool
}

// DefaultFigure3Config reproduces the paper's four panels.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{
		Mus:           []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30},
		Ds:            []float64{0, 0.30, 0.80, 0.90},
		Ks:            []int{1, 7},
		Distributions: []core.InitialDistribution{core.DistributionDelta, core.DistributionBeta},
	}
}

// Figure3 regenerates the paper's Figure 3: the expected number of events
// spent in safe and polluted transient states before absorption,
// E(T_S^k) and E(T_P^k), as a function of µ, d, k and α. Each (k, α)
// panel is one (d, µ) sweep-evaluator plan fanned across the pool.
func Figure3(ctx context.Context, pool *engine.Pool, cfg Figure3Config) (*Table, error) {
	if len(cfg.Mus) == 0 || len(cfg.Ds) == 0 || len(cfg.Ks) == 0 || len(cfg.Distributions) == 0 {
		return nil, fmt.Errorf("experiments: Figure3 needs non-empty Mus, Ds, Ks and Distributions")
	}
	t := &Table{
		Title: "Figure 3 — E(T_S^k) and E(T_P^k) before absorption (C=7, ∆=7)",
		Columns: []string{
			"protocol", "alpha", "d", "mu", "E(T_S)", "E(T_P)",
		},
		Note: "paper panels: protocol_1/protocol_7 × α∈{δ,β}; bars E(T_S) hatched, E(T_P) plain",
	}
	for _, k := range cfg.Ks {
		for _, dist := range cfg.Distributions {
			var cells []chainmodel.Cell
			for _, d := range cfg.Ds {
				for _, mu := range cfg.Mus {
					p := baseParams()
					p.Mu, p.D, p.K = mu, d, k
					cells = append(cells, p)
				}
			}
			rs, err := evaluatePaper(ctx, pool, cfg.BuildPool, cfg.Solver, dist, 1, cells)
			if err != nil {
				return nil, err
			}
			for _, cell := range rs.Cells {
				p := cell.Cell.(core.Params)
				if err := t.AddRow(
					fmt.Sprintf("protocol_%d", k),
					dist.String(),
					fmtPercent(p.D),
					fmtPercent(p.Mu),
					fmtFloat(cell.Analysis.TimeInA),
					fmtFloat(cell.Analysis.TimeInB),
				); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// Figure4Config parameterizes Figure 4.
type Figure4Config struct {
	Mus           []float64
	Ds            []float64
	Distributions []core.InitialDistribution
	// Solver selects the analytic linear-solver backend; the zero value
	// is the paper-exact dense path.
	Solver matrix.SolverConfig
	// BuildPool fans each cell's matrix construction; nil builds rows
	// serially.
	BuildPool *engine.Pool
}

// DefaultFigure4Config reproduces the paper's two panels (k = 1).
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		Mus:           []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30},
		Ds:            []float64{0, 0.30, 0.80, 0.90},
		Distributions: []core.InitialDistribution{core.DistributionDelta, core.DistributionBeta},
	}
}

// Figure4 regenerates the paper's Figure 4: absorption probabilities
// p(A^m_S), p(A^ℓ_S), p(A^m_P) as a function of µ and d for protocol_1,
// one (d, µ) sweep-evaluator plan per α, fanned across the pool.
func Figure4(ctx context.Context, pool *engine.Pool, cfg Figure4Config) (*Table, error) {
	if len(cfg.Mus) == 0 || len(cfg.Ds) == 0 || len(cfg.Distributions) == 0 {
		return nil, fmt.Errorf("experiments: Figure4 needs non-empty Mus, Ds and Distributions")
	}
	t := &Table{
		Title: "Figure 4 — absorption probabilities (k=1, C=7, ∆=7)",
		Columns: []string{
			"alpha", "d", "mu", "p(safe-merge)", "p(safe-split)", "p(polluted-merge)", "p(polluted-split)",
		},
		Note: "paper: µ=0 gives 0.57/0.43; p(polluted-merge) < 8% even at µ=30%, d=90%",
	}
	for _, dist := range cfg.Distributions {
		var cells []chainmodel.Cell
		for _, d := range cfg.Ds {
			for _, mu := range cfg.Mus {
				p := baseParams()
				p.Mu, p.D = mu, d
				cells = append(cells, p)
			}
		}
		rs, err := evaluatePaper(ctx, pool, cfg.BuildPool, cfg.Solver, dist, 1, cells)
		if err != nil {
			return nil, err
		}
		for _, cell := range rs.Cells {
			p := cell.Cell.(core.Params)
			abs := cell.Analysis.Absorption
			if err := t.AddRow(
				dist.String(),
				fmtPercent(p.D),
				fmtPercent(p.Mu),
				fmtFloat(abs[core.ClassNameSafeMerge]),
				fmtFloat(abs[core.ClassNameSafeSplit]),
				fmtFloat(abs[core.ClassNamePollutedMerge]),
				fmtFloat(abs[core.ClassNamePollutedSplit]),
			); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Figure5Config parameterizes Figure 5.
type Figure5Config struct {
	// Ns are the overlay sizes (paper: 500 and 1500 clusters).
	Ns []int
	// Ds are the survival probabilities (paper: 30% and 90%).
	Ds []float64
	// Mu is the adversary fraction. The paper does not print it; 25%
	// reproduces the "less than 2.2%" polluted-proportion ceiling stated
	// in Section VIII (see EXPERIMENTS.md).
	Mu float64
	// MaxEvents is the x-axis range (paper: 100000).
	MaxEvents int
	// Samples is the number of plotted points per curve.
	Samples int
	// Solver selects the analytic linear-solver backend of the
	// underlying models; the zero value is the paper-exact dense path.
	Solver matrix.SolverConfig
	// BuildPool fans each model's matrix construction; nil builds rows
	// serially.
	BuildPool *engine.Pool
}

// DefaultFigure5Config reproduces the paper's two panels.
func DefaultFigure5Config() Figure5Config {
	return Figure5Config{
		Ns:        []int{500, 1500},
		Ds:        []float64{0.30, 0.90},
		Mu:        0.25,
		MaxEvents: 100000,
		Samples:   50,
	}
}

// figure5Curve is the computed pair of series for one (n, d) combination.
type figure5Curve struct {
	name   string
	xs, ys []float64
	yp     []float64
}

// Figure5 regenerates the paper's Figure 5: the expected proportions
// E(N_S(m))/n (left panel) and E(N_P(m))/n (right panel) of safe and
// polluted clusters after m overlay events (Theorem 2). Each (n, d) curve
// is an independent matrix-power series, computed in parallel.
func Figure5(ctx context.Context, pool *engine.Pool, cfg Figure5Config) (safe, polluted *Figure, err error) {
	if cfg.MaxEvents < 1 || cfg.Samples < 1 {
		return nil, nil, fmt.Errorf("experiments: Figure5 needs positive MaxEvents and Samples")
	}
	safe = &Figure{
		Title:  "Figure 5 (left) — E(N_S(m))/n",
		XLabel: "m = number of events",
		YLabel: "expected proportion of safe clusters",
	}
	polluted = &Figure{
		Title:  "Figure 5 (right) — E(N_P(m))/n",
		XLabel: "m = number of events",
		YLabel: "expected proportion of polluted clusters",
		Note:   "paper (Section VIII): stays below 2.2% for d=90%",
	}
	type combo struct {
		n int
		d float64
	}
	var combos []combo
	for _, n := range cfg.Ns {
		for _, d := range cfg.Ds {
			combos = append(combos, combo{n, d})
		}
	}
	curves := make([]figure5Curve, len(combos))
	err = engine.Ensure(pool).Run(ctx, len(combos), func(i int) error {
		cb := combos[i]
		p := baseParams()
		p.Mu, p.D = cfg.Mu, cb.d
		m, err := core.NewWithSolver(p, cfg.Solver, core.WithBuildPool(cfg.BuildPool))
		if err != nil {
			return err
		}
		cc, err := overlay.New(m, cb.n)
		if err != nil {
			return err
		}
		pts, err := cc.ProportionSeries(m.InitialDelta(), cfg.MaxEvents, cfg.Samples)
		if err != nil {
			return err
		}
		lifetime, err := combin.LifetimeFromSurvival(cb.d)
		if err != nil {
			return err
		}
		curve := figure5Curve{
			name: fmt.Sprintf("n=%d d=%g%% (L=%.2f)", cb.n, cb.d*100, lifetime),
			xs:   make([]float64, len(pts)),
			ys:   make([]float64, len(pts)),
			yp:   make([]float64, len(pts)),
		}
		for j, pt := range pts {
			curve.xs[j] = float64(pt.Events)
			curve.ys[j] = pt.Safe
			curve.yp[j] = pt.Polluted
		}
		curves[i] = curve
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, curve := range curves {
		if err := safe.AddSeries(Series{Name: curve.name, X: curve.xs, Y: curve.ys}); err != nil {
			return nil, nil, err
		}
		if err := polluted.AddSeries(Series{Name: curve.name, X: curve.xs, Y: curve.yp}); err != nil {
			return nil, nil, err
		}
	}
	return safe, polluted, nil
}
