package experiments

import (
	"context"
	"fmt"

	"targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/sweep"
)

// APTConfig parameterizes the second-model-family sweep (S7): an
// APT-style multi-stage compromise campaign evaluated through the same
// model-agnostic amortized evaluator as the paper grids.
type APTConfig struct {
	// Ns are the node counts evaluated (one shared triangular state
	// space per n).
	Ns []int
	// Thetas sweep the per-probe infiltration probability θ.
	Thetas []float64
	// Phi fixes the escalation probability φ.
	Phi float64
	// Rhos sweep the implant stealth ρ — the family's warm-start lane
	// axis.
	Rhos []float64
	// Detects sweep the defender's detection probability δ.
	Detects []float64
	// Dist names the initial distribution; "" is the foothold default.
	Dist string
	// Solver is the sparse backend; the zero value selects BiCGSTAB,
	// like the other scale sweeps.
	Solver matrix.SolverConfig
	// BuildPool fans the row-parallel transition-matrix construction of
	// each cell; nil builds serially.
	BuildPool *engine.Pool
}

// DefaultAPTConfig spans moderate campaigns: two system sizes, two
// infiltration rates, three stealth levels and two defender strengths.
func DefaultAPTConfig() APTConfig {
	return APTConfig{
		Ns:      []int{20, 40},
		Thetas:  []float64{0.3, 0.6},
		Phi:     0.4,
		Rhos:    []float64{0, 0.25, 0.5},
		Detects: []float64{0.5, 0.8},
	}
}

// APTCampaign evaluates the APT compromise-campaign family over its
// grid: per cell the expected time contained (footholds only) and
// escalated (some node entrenched), the probability the attacker ever
// entrenches a node (the family's hit probability) and the full-
// compromise absorption risk. The grid runs through sweep.EvaluateModel
// with warm-start lanes along the stealth axis — the same planner the
// paper model uses, driven entirely by the family's declared structure.
func APTCampaign(ctx context.Context, pool *engine.Pool, cfg APTConfig) (*Table, error) {
	if len(cfg.Ns) == 0 || len(cfg.Thetas) == 0 || len(cfg.Rhos) == 0 || len(cfg.Detects) == 0 {
		return nil, fmt.Errorf("experiments: APTCampaign needs non-empty Ns, Thetas, Rhos and Detects")
	}
	solver := withDefaultKind(cfg.Solver, "bicgstab")
	fam := aptchain.Family{}
	distName, err := fam.ParseDist(cfg.Dist)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Cells in the family's canonical order: n outermost (the group
	// axis), stealth ρ innermost (the warm-start lane axis).
	var cells []chainmodel.Cell
	for _, n := range cfg.Ns {
		for _, theta := range cfg.Thetas {
			for _, detect := range cfg.Detects {
				for _, rho := range cfg.Rhos {
					p := aptchain.Params{N: n, Theta: theta, Phi: cfg.Phi, Rho: rho, Detect: detect}
					if err := p.Validate(); err != nil {
						return nil, fmt.Errorf("experiments: %w", err)
					}
					cells = append(cells, p)
				}
			}
		}
	}
	rs, err := sweep.EvaluateModel(ctx, sweep.ModelPlan{
		Family: fam,
		Cells:  cells,
		Dist:   distName,
	}, sweep.ModelOptions{
		Pool:      pool,
		BuildPool: cfg.BuildPool,
		Solver:    solver,
		WarmStart: true,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Sweep S7 — APT compromise campaign (φ=%g, %s start, solver=%s)",
			cfg.Phi, rs.Plan.Dist, solver.Kind),
		Columns: []string{"n", "theta", "detect", "rho", "|Ω|", "E(T_contained)", "E(T_escalated)", "P(entrench)", "p(compromised)", "iters"},
		Note: fmt.Sprintf("second model family through the model-agnostic engine: %d cells, %d distinct chains, "+
			"%d solver iterations with stealth-lane warm starts", len(cells), rs.Evaluated, rs.Iterations),
	}
	for _, cell := range rs.Cells {
		p := cell.Cell.(aptchain.Params)
		if err := t.AddRow(
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%g", p.Theta),
			fmt.Sprintf("%g", p.Detect),
			fmt.Sprintf("%g", p.Rho),
			fmt.Sprintf("%d", cell.States),
			fmtFloat(cell.Analysis.TimeInA),
			fmtFloat(cell.Analysis.TimeInB),
			fmtFloat(cell.Analysis.HitProbability),
			fmtFloat(cell.Analysis.Absorption[aptchain.ClassNameCompromised]),
			fmt.Sprintf("%d", cell.Iterations),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}
