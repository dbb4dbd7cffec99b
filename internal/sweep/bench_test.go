package sweep

import (
	"context"
	"testing"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
)

// hugeGrid is the acceptance grid: a ν×d surface of 64 cells at C=∆=40
// (|Ω| = 35301, 33579 transient per cell).
func hugeGrid() paperGrid {
	return paperGrid{
		C: []int{40}, Delta: []int{40}, K: []int{1},
		Mu: []float64{0.2},
		D:  []float64{0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85},
		Nu: []float64{0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.60},
	}
}

// BenchmarkSweepGrid measures the amortized evaluator against the same
// 64 cells run as independent chainmodel.Analyze calls. The evaluator shares
// one state space, kernel and Rule 1 gain table across the grid and
// proves the ν axis redundant per (µ, d) (protocol_1 never fires
// Rule 1), so it solves 8 distinct chains instead of 64; "evaluate"
// additionally verifies every cell against the per-cell result at
// 1e-12 on its first iteration.
func BenchmarkSweepGrid(b *testing.B) {
	sc := matrix.SolverConfig{Kind: "bicgstab"}
	plan := hugeGrid().plan(b)
	b.Run("evaluate", func(b *testing.B) {
		var iters int64
		for i := 0; i < b.N; i++ {
			rs, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc, Pool: engine.New(0)})
			if err != nil {
				b.Fatal(err)
			}
			iters += rs.Iterations
			if i == 0 {
				verifyAgainstPerCell(b, rs, sc)
			}
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	})
	b.Run("percell", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cell := range plan.Cells {
				if _, err := analyzeOne(cell.(core.Params), sc, plan.sojourns()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// warmGrid is the warm-start acceptance grid: C=∆=40 with protocol_2, so
// the ν axis survives deduplication (each threshold cut changes the
// Rule 1 firing rows and nothing else) and the planner's lanes walk 28
// distinct chains in (d, ν) order. Adjacent chains differ in a handful
// of matrix rows, which is exactly the regime warm starting exploits.
func warmGrid() paperGrid {
	return paperGrid{
		C: []int{40}, Delta: []int{40}, K: []int{2},
		Mu: []float64{0.2},
		D:  []float64{0.50, 0.70},
		Nu: []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.60, 0.70, 0.80, 0.90},
	}
}

// BenchmarkWarmStartSweep measures the warm-started evaluator against
// the cold schedule on the same grid. The iters/op metric is the
// machine-independent acceptance number: warm must cut total
// iterative-solver iterations by ≥ 2× (asserted in
// TestWarmStartHalvesIterationsHuge; CI compares the metric with
// benchstat against the committed baseline).
func BenchmarkWarmStartSweep(b *testing.B) {
	sc := matrix.SolverConfig{Kind: "bicgstab"}
	plan := warmGrid().plan(b)
	for _, mode := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var iters int64
			for i := 0; i < b.N; i++ {
				rs, err := EvaluateModel(context.Background(), plan, ModelOptions{
					Solver: sc, WarmStart: mode.warm, Pool: engine.New(0),
				})
				if err != nil {
					b.Fatal(err)
				}
				iters += rs.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}

// TestWarmStartHalvesIterationsHuge asserts the warm-start acceptance
// criterion on the C=∆=40 grid: ≥ 2× fewer total iterative-solver
// iterations than the cold schedule, with every cell agreeing at 1e-9.
func TestWarmStartHalvesIterationsHuge(t *testing.T) {
	if testing.Short() {
		t.Skip("C=∆=40 warm-start acceptance skipped in -short mode")
	}
	// One notch below the default residual tolerance: at |Ω| = 35301 the
	// blocks' conditioning amplifies 1e-12 residuals to ~1e-9 solution
	// differences, right at the agreement bar.
	sc := matrix.SolverConfig{Kind: "bicgstab", Tol: 1e-13}
	plan := warmGrid().plan(t)
	cold, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc, Pool: engine.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc, WarmStart: true, Pool: engine.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Cells {
		if field, ok := analysesEqual(warm.Cells[i].Analysis, cold.Cells[i].Analysis, 1e-9); !ok {
			t.Errorf("cell %d (%v): %s differs between warm and cold beyond 1e-9",
				i, cold.Cells[i].Cell, field)
		}
	}
	if warm.Iterations*2 > cold.Iterations {
		t.Errorf("warm iterations = %d, cold = %d; want ≥ 2× reduction", warm.Iterations, cold.Iterations)
	}
	t.Logf("cold %d iterations, warm %d (%.2f× reduction)",
		cold.Iterations, warm.Iterations, float64(cold.Iterations)/float64(warm.Iterations))
}

// analyzeOne is the independent per-cell path: a fresh model build and
// the generic closed-form analysis under the δ initial distribution.
func analyzeOne(p core.Params, sc matrix.SolverConfig, sojourns int) (*chainmodel.Analysis, error) {
	m, err := core.NewWithSolver(p, sc)
	if err != nil {
		return nil, err
	}
	return chainmodel.Analyze(core.Instance{M: m}, "delta", sojourns)
}

// verifyAgainstPerCell asserts the acceptance criterion: every sweep
// cell matches the independent per-cell path at 1e-12.
func verifyAgainstPerCell(b *testing.B, rs *ModelResultSet, sc matrix.SolverConfig) {
	b.StopTimer()
	defer b.StartTimer()
	for _, cell := range rs.Cells {
		want, err := analyzeOne(cell.Cell.(core.Params), sc, rs.Plan.sojourns())
		if err != nil {
			b.Fatal(err)
		}
		if field, ok := analysesEqual(cell.Analysis, want, 1e-12); !ok {
			b.Fatalf("cell %v: %s differs from per-cell path beyond 1e-12", cell.Cell, field)
		}
	}
}
