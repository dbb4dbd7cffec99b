package sweep

import (
	"context"
	"testing"

	"targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
)

// aptPlan is a small APT grid in the family's canonical order: n
// outermost, the stealth lane axis ρ innermost.
func aptPlan(t *testing.T) ModelPlan {
	t.Helper()
	cells, err := aptchain.Family{}.ParsePlan([]byte(
		`{"n":"5,6","theta":"0.4,0.7","phi":"0.5","detect":"0.6","rho":"0:0.4:0.1"}`))
	if err != nil {
		t.Fatal(err)
	}
	return ModelPlan{Family: aptchain.Family{}, Cells: cells, Sojourns: 2}
}

// TestEvaluateModelAPTBitIdenticalAcrossPools: the second family's
// sweeps must be bit-identical at worker widths 1 and 8, warm starting
// included — lanes, not cells, fan across the pool.
func TestEvaluateModelAPTBitIdenticalAcrossPools(t *testing.T) {
	plan := aptPlan(t)
	sc := matrix.SolverConfig{Kind: "bicgstab"}
	serial, err := EvaluateModel(context.Background(), plan, ModelOptions{
		Solver: sc, WarmStart: true, Pool: engine.New(1), BuildPool: engine.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := EvaluateModel(context.Background(), plan, ModelOptions{
		Solver: sc, WarmStart: true, Pool: engine.New(8), BuildPool: engine.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Cells) != len(plan.Cells) || len(wide.Cells) != len(plan.Cells) {
		t.Fatalf("cell counts %d/%d, want %d", len(serial.Cells), len(wide.Cells), len(plan.Cells))
	}
	if serial.Iterations != wide.Iterations {
		t.Errorf("total iterations differ across pool widths: %d vs %d", serial.Iterations, wide.Iterations)
	}
	for i := range serial.Cells {
		if field, ok := analysesEqual(serial.Cells[i].Analysis, wide.Cells[i].Analysis, 0); !ok {
			t.Fatalf("cell %d: %s differs between pool widths", i, field)
		}
		if serial.Cells[i].Iterations != wide.Cells[i].Iterations {
			t.Errorf("cell %d iterations differ: %d vs %d", i, serial.Cells[i].Iterations, wide.Cells[i].Iterations)
		}
	}
	// Two node counts → two shared-structure groups; every parameter
	// enters the APT matrix, so nothing dedups in this grid.
	if serial.Groups != 2 {
		t.Errorf("groups = %d, want 2", serial.Groups)
	}
	if serial.Evaluated != len(plan.Cells) {
		t.Errorf("evaluated = %d, want %d (no duplicate cells)", serial.Evaluated, len(plan.Cells))
	}
}

// TestEvaluateModelAPTWarmLanes: warm starting along the stealth lanes
// must cut iterative-solver work without changing convergence.
func TestEvaluateModelAPTWarmLanes(t *testing.T) {
	plan := aptPlan(t)
	sc := matrix.SolverConfig{Kind: "bicgstab"}
	cold, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Iterations == 0 {
		t.Fatal("cold sweep reports no iterations on an iterative backend")
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start saved nothing: %d warm vs %d cold iterations", warm.Iterations, cold.Iterations)
	}
	t.Logf("bicgstab: %d cold, %d warm iterations (%.0f%%)",
		cold.Iterations, warm.Iterations, 100*float64(warm.Iterations)/float64(cold.Iterations))
}

// TestEvaluateModelDedupsDuplicates: exact duplicate cells collapse to
// one solve; the copies are flagged Shared with cloned analyses.
func TestEvaluateModelDedupsDuplicates(t *testing.T) {
	base := aptchain.Params{N: 5, Theta: 0.5, Phi: 0.4, Rho: 0.2, Detect: 0.6}
	other := base
	other.Rho = 0.3
	plan := ModelPlan{
		Family: aptchain.Family{},
		Cells:  []chainmodel.Cell{base, other, base},
	}
	rs, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: matrix.SolverConfig{Kind: "dense"}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Evaluated != 2 || rs.Groups != 1 {
		t.Fatalf("evaluated=%d groups=%d, want 2/1", rs.Evaluated, rs.Groups)
	}
	if rs.Cells[0].Shared || rs.Cells[1].Shared || !rs.Cells[2].Shared {
		t.Fatalf("shared flags = %v %v %v, want false false true",
			rs.Cells[0].Shared, rs.Cells[1].Shared, rs.Cells[2].Shared)
	}
	if field, ok := analysesEqual(rs.Cells[0].Analysis, rs.Cells[2].Analysis, 0); !ok {
		t.Errorf("shared cell's analysis differs from its leader in %s", field)
	}
	// The clone is independent storage.
	if &rs.Cells[0].Analysis.SojournsA[0] == &rs.Cells[2].Analysis.SojournsA[0] {
		t.Error("shared cell aliases its leader's sojourn storage")
	}
}

// TestEvaluateModelRejectsBadPlans: the generic evaluator's own
// validation, independent of any family.
func TestEvaluateModelRejectsBadPlans(t *testing.T) {
	ctx := context.Background()
	if _, err := EvaluateModel(ctx, ModelPlan{}, ModelOptions{}); err == nil {
		t.Error("nil family accepted")
	}
	if _, err := EvaluateModel(ctx, ModelPlan{Family: aptchain.Family{}}, ModelOptions{}); err == nil {
		t.Error("empty grid accepted")
	}
	cells := []chainmodel.Cell{aptchain.Params{N: 5, Theta: 0.5, Phi: 0.4, Detect: 0.6}}
	if _, err := EvaluateModel(ctx, ModelPlan{Family: aptchain.Family{}, Cells: cells, Dist: "zeta"},
		ModelOptions{}); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := EvaluateModel(ctx, ModelPlan{Family: aptchain.Family{}, Cells: cells},
		ModelOptions{Solver: matrix.SolverConfig{Kind: "cholesky"}}); err == nil {
		t.Error("unknown solver accepted")
	}
}
