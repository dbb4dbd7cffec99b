package sweep

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
)

// paperGrid is one paper-model grid: the six axes core.Grid crosses,
// plus the sojourn count of every cell's analysis.
type paperGrid struct {
	C, Delta, K []int
	Mu, D, Nu   []float64
	Sojourns    int
}

// plan expands the grid into a paper-model ModelPlan (δ initial
// distribution).
func (g paperGrid) plan(t testing.TB) ModelPlan {
	t.Helper()
	cells, err := core.Grid(g.C, g.Delta, g.K, g.Mu, g.D, g.Nu)
	if err != nil {
		t.Fatal(err)
	}
	return ModelPlan{Family: core.Family{}, Cells: cells, Sojourns: g.Sojourns}
}

// analysesEqual compares two Analyses field by field at tolerance tol
// (0 demands bitwise equality) and reports the first differing field.
func analysesEqual(a, b *chainmodel.Analysis, tol float64) (string, bool) {
	eq := func(x, y float64) bool {
		if tol == 0 {
			return x == y
		}
		return math.Abs(x-y) <= tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	if !eq(a.TimeInA, b.TimeInA) {
		return "TimeInA", false
	}
	if !eq(a.TimeInB, b.TimeInB) {
		return "TimeInB", false
	}
	if !eq(a.HitProbability, b.HitProbability) {
		return "HitProbability", false
	}
	if len(a.SojournsA) != len(b.SojournsA) || len(a.SojournsB) != len(b.SojournsB) {
		return "sojourn lengths", false
	}
	for i := range a.SojournsA {
		if !eq(a.SojournsA[i], b.SojournsA[i]) {
			return "SojournsA", false
		}
	}
	for i := range a.SojournsB {
		if !eq(a.SojournsB[i], b.SojournsB[i]) {
			return "SojournsB", false
		}
	}
	if len(a.Absorption) != len(b.Absorption) {
		return "absorption size", false
	}
	for k, v := range a.Absorption {
		if !eq(v, b.Absorption[k]) {
			return "Absorption[" + k + "]", false
		}
	}
	return "", true
}

// perCell runs the independent single-cell path the evaluator must match.
func perCell(t testing.TB, p core.Params, sc matrix.SolverConfig, sojourns int) *chainmodel.Analysis {
	a, err := analyzeOne(p, sc, sojourns)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEvaluateMatchesPerCellExactly: on the paper-size geometry, every
// cell of a full (k, µ, d, ν) grid — dedup-shared cells included — must
// reproduce the independent chainmodel.Analyze numbers bit for bit.
func TestEvaluateMatchesPerCellExactly(t *testing.T) {
	plan := paperGrid{
		C: []int{7}, Delta: []int{7}, K: []int{1, 3},
		Mu:       []float64{0.1, 0.3},
		D:        []float64{0.5, 0.9},
		Nu:       []float64{0.05, 0.5},
		Sojourns: 2,
	}.plan(t)
	rs, err := EvaluateModel(context.Background(), plan, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cells) != len(plan.Cells) {
		t.Fatalf("got %d cells, want %d", len(rs.Cells), len(plan.Cells))
	}
	var shared int
	for _, cell := range rs.Cells {
		want := perCell(t, cell.Cell.(core.Params), matrix.SolverConfig{}, plan.Sojourns)
		if field, ok := analysesEqual(cell.Analysis, want, 0); !ok {
			t.Errorf("cell %v (shared=%v): %s differs from per-cell path", cell.Cell, cell.Shared, field)
		}
		if cell.Shared {
			shared++
		}
	}
	// protocol_1 never fires Rule 1, so its ν axis must have collapsed:
	// at least the 4 duplicate k=1 cells are shared.
	if shared < 4 {
		t.Errorf("shared cells = %d, want ≥ 4 (k=1 ν axis must deduplicate)", shared)
	}
	if rs.Evaluated+shared != len(plan.Cells) {
		t.Errorf("Evaluated (%d) + shared (%d) != cells (%d)", rs.Evaluated, shared, len(plan.Cells))
	}
	if rs.Groups != 1 {
		t.Errorf("Groups = %d, want 1", rs.Groups)
	}
}

// TestEvaluateDedupCounts: with protocol_1 the whole ν axis is one
// equivalence class per (µ, d).
func TestEvaluateDedupCounts(t *testing.T) {
	plan := paperGrid{
		C: []int{7}, Delta: []int{7}, K: []int{1},
		Mu: []float64{0.2},
		D:  []float64{0.5, 0.9},
		Nu: []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9},
	}.plan(t)
	rs, err := EvaluateModel(context.Background(), plan, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Evaluated != 2 {
		t.Errorf("Evaluated = %d, want 2 (one per d; ν must collapse at k=1)", rs.Evaluated)
	}
	if len(rs.Cells) != 16 {
		t.Errorf("cells = %d, want 16", len(rs.Cells))
	}
	for _, cell := range rs.Cells {
		p := cell.Cell.(core.Params)
		if fires := cell.SharedTables.(*core.SweepTables).Gains(p.K).CountFires(p.Nu); fires != 0 {
			t.Errorf("protocol_1 cell %v reports %d Rule 1 states", p, fires)
		}
		if cell.States != 288 {
			t.Errorf("cell %v: States = %d, want 288", p, cell.States)
		}
		if cell.Transient != 216 {
			t.Errorf("cell %v: Transient = %d, want 216", p, cell.Transient)
		}
	}
}

// TestEvaluateDeterministicAcrossPools: the result set must not depend
// on the pool width.
func TestEvaluateDeterministicAcrossPools(t *testing.T) {
	plan := paperGrid{
		C: []int{6, 7}, Delta: []int{7}, K: []int{2},
		Mu: []float64{0.2}, D: []float64{0.8}, Nu: []float64{0.05, 0.3},
	}.plan(t)
	serial, err := EvaluateModel(context.Background(), plan, ModelOptions{Pool: engine.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := EvaluateModel(context.Background(), plan, ModelOptions{Pool: engine.New(8), BuildPool: engine.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Evaluated != wide.Evaluated || serial.Groups != wide.Groups {
		t.Fatalf("plan accounting differs across pool widths")
	}
	for i := range serial.Cells {
		if field, ok := analysesEqual(serial.Cells[i].Analysis, wide.Cells[i].Analysis, 0); !ok {
			t.Errorf("cell %d: %s differs between pool widths", i, field)
		}
	}
}

// TestEvaluateStreamsEveryCell: OnCell must fire exactly once per cell.
func TestEvaluateStreamsEveryCell(t *testing.T) {
	plan := paperGrid{
		C: []int{7}, Delta: []int{7}, K: []int{1},
		Mu: []float64{0.1, 0.2}, D: []float64{0.5}, Nu: []float64{0.1, 0.9},
	}.plan(t)
	var calls atomic.Int64
	seen := make([]atomic.Bool, len(plan.Cells))
	_, err := EvaluateModel(context.Background(), plan, ModelOptions{
		Pool: engine.New(4),
		OnCell: func(c ModelCellResult) {
			calls.Add(1)
			if c.Index < 0 || c.Index >= len(seen) || seen[c.Index].Swap(true) {
				t.Errorf("cell %d streamed twice or out of range", c.Index)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(plan.Cells)) {
		t.Errorf("OnCell fired %d times, want %d", got, len(plan.Cells))
	}
}

// TestEvaluateErrors: invalid plans and solver configs are rejected.
func TestEvaluateErrors(t *testing.T) {
	good := paperGrid{C: []int{7}, Delta: []int{7}, K: []int{1}, Mu: []float64{0.1}, D: []float64{0.5}, Nu: []float64{0.1}}.plan(t)
	if _, err := EvaluateModel(context.Background(), ModelPlan{Family: core.Family{}}, ModelOptions{}); err == nil {
		t.Error("empty plan must fail")
	}
	if _, err := EvaluateModel(context.Background(), good, ModelOptions{Solver: matrix.SolverConfig{Kind: "bogus"}}); err == nil {
		t.Error("bogus solver must fail")
	}
}

// TestEvaluateRejectsNaNCellBeforeSolve: a hand-built plan skips
// core.Grid's validation, so a non-finite parameter must still be
// refused by the planner before any chain is solved — even when valid
// cells of the same group and protocol precede it.
func TestEvaluateRejectsNaNCellBeforeSolve(t *testing.T) {
	valid := core.Params{C: 7, Delta: 7, K: 1, Mu: 0.2, D: 0.9, Nu: 0.1}
	for _, bad := range []core.Params{
		{C: 7, Delta: 7, K: 1, Mu: math.NaN(), D: 0.9, Nu: 0.1},
		{C: 7, Delta: 7, K: 1, Mu: 0.2, D: math.NaN(), Nu: 0.1},
		{C: 7, Delta: 7, K: 1, Mu: 0.2, D: 0.9, Nu: math.NaN()},
	} {
		var solved atomic.Int64
		_, err := EvaluateModel(context.Background(), ModelPlan{
			Family: core.Family{},
			Cells:  []chainmodel.Cell{valid, bad},
		}, ModelOptions{
			Solver: matrix.SolverConfig{Kind: "bicgstab"},
			OnCell: func(ModelCellResult) { solved.Add(1) },
		})
		if err == nil {
			t.Errorf("cell %v: plan accepted", bad)
		}
		if n := solved.Load(); n != 0 {
			t.Errorf("cell %v: %d cells solved before the plan was refused", bad, n)
		}
	}
}

// TestEvaluateWarmStartAgreesWithCold: warm-started sweeps must agree
// with the cold path on every cell to solver tolerance, for every
// iterative backend, and must spend strictly less iterative-solver work
// (a dense d axis gives each lane many close-by chains to chain through).
func TestEvaluateWarmStartAgreesWithCold(t *testing.T) {
	plan := paperGrid{
		C: []int{7}, Delta: []int{7}, K: []int{2, 3},
		Mu:       []float64{0.1, 0.3},
		D:        []float64{0.5, 0.6, 0.7, 0.8, 0.9},
		Nu:       []float64{0.1, 0.5},
		Sojourns: 2,
	}.plan(t)
	for _, kind := range []string{"bicgstab", "ilu", "auto"} {
		sc := matrix.SolverConfig{Kind: kind}
		cold, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc})
		if err != nil {
			t.Fatalf("%s cold: %v", kind, err)
		}
		warm, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc, WarmStart: true})
		if err != nil {
			t.Fatalf("%s warm: %v", kind, err)
		}
		for i := range cold.Cells {
			if field, ok := analysesEqual(warm.Cells[i].Analysis, cold.Cells[i].Analysis, 1e-9); !ok {
				t.Errorf("%s cell %d (%v): %s differs between warm and cold beyond 1e-9",
					kind, i, cold.Cells[i].Cell, field)
			}
		}
		if cold.Iterations == 0 {
			t.Fatalf("%s: cold sweep reports 0 iterations", kind)
		}
		if warm.Iterations >= cold.Iterations {
			t.Errorf("%s: warm iterations = %d, cold = %d; warm starting must cut work",
				kind, warm.Iterations, cold.Iterations)
		}
		t.Logf("%s: cold %d iterations, warm %d (%.1f%%)",
			kind, cold.Iterations, warm.Iterations, 100*float64(warm.Iterations)/float64(cold.Iterations))
	}
}

// TestEvaluateWarmStartDeterministicAcrossPools: lanes — not cells — fan
// out, so warm-started results must be bit-identical for any pool width.
func TestEvaluateWarmStartDeterministicAcrossPools(t *testing.T) {
	plan := paperGrid{
		C: []int{6, 7}, Delta: []int{7}, K: []int{2},
		Mu: []float64{0.1, 0.3},
		D:  []float64{0.5, 0.7, 0.9},
		Nu: []float64{0.05, 0.3},
	}.plan(t)
	sc := matrix.SolverConfig{Kind: "bicgstab"}
	serial, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc, WarmStart: true, Pool: engine.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc, WarmStart: true, Pool: engine.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iterations != wide.Iterations {
		t.Errorf("total iterations differ across pool widths: %d vs %d", serial.Iterations, wide.Iterations)
	}
	for i := range serial.Cells {
		if serial.Cells[i].Iterations != wide.Cells[i].Iterations {
			t.Errorf("cell %d: iteration count differs across pool widths: %d vs %d",
				i, serial.Cells[i].Iterations, wide.Cells[i].Iterations)
		}
		if field, ok := analysesEqual(serial.Cells[i].Analysis, wide.Cells[i].Analysis, 0); !ok {
			t.Errorf("cell %d: %s differs between pool widths", i, field)
		}
	}
}

// TestEvaluateIterationAccounting: per-cell counts live on leaders only
// and sum to the set total; the dense backend reports zero.
func TestEvaluateIterationAccounting(t *testing.T) {
	plan := paperGrid{
		C: []int{7}, Delta: []int{7}, K: []int{1},
		Mu: []float64{0.2}, D: []float64{0.5, 0.9}, Nu: []float64{0.1, 0.9},
	}.plan(t)
	rs, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: matrix.SolverConfig{Kind: "bicgstab"}})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, cell := range rs.Cells {
		if cell.Shared && cell.Iterations != 0 {
			t.Errorf("shared cell %d carries %d iterations, want 0", cell.Index, cell.Iterations)
		}
		if !cell.Shared && cell.Iterations == 0 {
			t.Errorf("leader cell %d reports 0 iterations on an iterative backend", cell.Index)
		}
		sum += cell.Iterations
	}
	if sum != rs.Iterations {
		t.Errorf("per-cell iterations sum to %d, ModelResultSet.Iterations = %d", sum, rs.Iterations)
	}
	dense, err := EvaluateModel(context.Background(), plan, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Iterations != 0 {
		t.Errorf("dense sweep reports %d iterations, want 0", dense.Iterations)
	}
}

// TestWarmStartedILUMatchesDense is the end-to-end property check of
// the preconditioner + warm-start stack: warm-started ILU(0) sweeps
// must reproduce the exact dense-LU per-cell Analysis — every field —
// at 1e-9 over the paper grid and at the S3 large-cluster scale, for
// 1-wide and 8-wide pools alike.
func TestWarmStartedILUMatchesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("dense reference at C=∆=16 skipped in -short mode")
	}
	sc := matrix.SolverConfig{Kind: "ilu", Tol: 1e-13}
	plans := []ModelPlan{
		paperGrid{
			C: []int{7}, Delta: []int{7}, K: []int{1, 2, 7},
			Mu:       []float64{0.1, 0.3},
			D:        []float64{0.5, 0.9},
			Nu:       []float64{0.1, 0.5},
			Sojourns: 2,
		}.plan(t),
		// The S3 large-cluster point (2295 transient states): one cell,
		// at the scale the sparse stack exists for.
		paperGrid{
			C: []int{16}, Delta: []int{16}, K: []int{1},
			Mu: []float64{0.2}, D: []float64{0.8}, Nu: []float64{0.1},
		}.plan(t),
	}
	for _, plan := range plans {
		dense := make(map[int]*chainmodel.Analysis)
		for i, cell := range plan.Cells {
			dense[i] = perCell(t, cell.(core.Params), matrix.SolverConfig{}, plan.sojourns())
		}
		for _, workers := range []int{1, 8} {
			rs, err := EvaluateModel(context.Background(), plan, ModelOptions{
				Solver: sc, WarmStart: true, Pool: engine.New(workers),
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i, cell := range rs.Cells {
				if field, ok := analysesEqual(cell.Analysis, dense[i], 1e-9); !ok {
					t.Errorf("workers=%d cell %v: %s differs from dense LU beyond 1e-9",
						workers, cell.Cell, field)
				}
			}
		}
	}
}

// TestEvaluateHugeSpotCheck compares a few C=∆=40 sweep cells against
// the independent per-cell path at 1e-12 on the sparse solver — a spot
// check of the acceptance benchmark's full verification.
func TestEvaluateHugeSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("C=∆=40 spot check skipped in -short mode")
	}
	sc := matrix.SolverConfig{Kind: "bicgstab"}
	plan := paperGrid{
		C: []int{40}, Delta: []int{40}, K: []int{1},
		Mu: []float64{0.2},
		D:  []float64{0.5, 0.8},
		Nu: []float64{0.05, 0.1},
	}.plan(t)
	rs, err := EvaluateModel(context.Background(), plan, ModelOptions{Solver: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Evaluated != 2 {
		t.Errorf("Evaluated = %d, want 2", rs.Evaluated)
	}
	for _, cell := range []ModelCellResult{rs.Cells[0], rs.Cells[3]} {
		want := perCell(t, cell.Cell.(core.Params), sc, 1)
		if field, ok := analysesEqual(cell.Analysis, want, 1e-12); !ok {
			t.Errorf("cell %v: %s differs from per-cell path beyond 1e-12", cell.Cell, field)
		}
	}
}
