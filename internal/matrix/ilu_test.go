package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// pathChain builds the n-state symmetric random walk with leaks only at
// the ends — the canonical slow-mixing block (ρ ≈ cos(π/(n+1))).
func pathChain(t testing.TB, n int) *CSR {
	t.Helper()
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			_ = b.Add(i, i-1, 0.5)
		}
		if i < n-1 {
			_ = b.Add(i, i+1, 0.5)
		}
	}
	return b.Build()
}

// lazyChain builds a fast-absorbing block: tiny off-diagonal mass, heavy
// leak everywhere.
func lazyChain(t testing.TB, n int) *CSR {
	t.Helper()
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		_ = b.Add(i, (i+1)%n, 0.1)
		_ = b.Add(i, i, 0.2)
	}
	return b.Build()
}

// TestILUFactorsReproduceAOnPattern checks the defining ILU(0) property
// on a small dense-pattern matrix: (LU)_ij = A_ij exactly on the
// sparsity pattern of A (here the pattern is full, so LU = A and the
// factorization is the exact LU).
func TestILUFactorsReproduceAOnPattern(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 8
	m := randomSubstochastic(t, r, n, 0.3)
	// Densify the pattern so ILU(0) must reproduce A exactly.
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := m.At(i, j)
			if v == 0 {
				v = 1e-3 / float64(n) // structurally present, numerically small
			}
			_ = b.Add(i, j, v)
		}
	}
	full := b.Build()
	lu, err := factorILU0(full)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild LU densely and compare against A = I − full.
	get := func(f *iluFactors, i, j int) float64 {
		for k := f.rowStart[i]; k < f.rowEnd[i]; k++ {
			if int(f.colIdx[k]) == j {
				return f.vals[k]
			}
		}
		return 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var prod float64
			for k := 0; k <= i && k <= j; k++ {
				l := get(lu, i, k)
				if k == i {
					l = 1
				}
				u := get(lu, k, j)
				if k > j {
					u = 0
				}
				prod += l * u
			}
			a := -full.At(i, j)
			if i == j {
				a = 1 - full.At(i, j)
			}
			if math.Abs(prod-a) > 1e-12 {
				t.Errorf("(LU)[%d][%d] = %v, want %v", i, j, prod, a)
			}
		}
	}
}

// TestILUAppliesInverse: on a full pattern ILU(0) is the exact LU, so
// apply and applyTransposed must invert A and Aᵀ to rounding.
func TestILUAppliesInverse(t *testing.T) {
	const n = 30
	m := pathChain(t, n)
	// Path pattern is tridiagonal; ILU(0) of a tridiagonal matrix is
	// exact (elimination causes no fill).
	lu, err := factorILU0(m)
	if err != nil {
		t.Fatal(err)
	}
	dense := must(DenseSolver{}.Factor(m))
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i + 1))
	}
	z := make([]float64, n)
	lu.apply(b, z)
	want, err := dense.Solve(b, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if math.Abs(z[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Errorf("apply[%d] = %v, want %v", i, z[i], want[i])
		}
	}
	lu.applyTransposed(b, z)
	wantT, err := dense.Solve(b, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if math.Abs(z[i]-wantT[i]) > 1e-8*(1+math.Abs(wantT[i])) {
			t.Errorf("applyTransposed[%d] = %v, want %v", i, z[i], wantT[i])
		}
	}
}

// TestILUSolvesSlowMixingChain: the block that motivated the backend —
// GS-preconditioned BiCGSTAB needs hundreds of iterations on a long
// path chain; ILU(0) (exact here) needs a handful.
func TestILUSolvesSlowMixingChain(t *testing.T) {
	const n = 400
	m := pathChain(t, n)
	want, err := must(DenseSolver{}.Factor(m)).Solve(Ones(n), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	f := must(ILUSolver{}.Factor(m))
	x, err := f.Solve(Ones(n), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	ilu := f.Stats()
	if ilu.Backend != "ilu" {
		t.Errorf("Backend = %q, want ilu", ilu.Backend)
	}
	g := must(BiCGSTABSolver{}.Factor(m))
	if _, err := g.Solve(Ones(n), nil, false); err != nil {
		t.Fatal(err)
	}
	if gs := g.Stats(); ilu.Iterations*4 > gs.Iterations {
		t.Errorf("ILU took %d iterations vs %d for GS-preconditioned BiCGSTAB; want ≥4x fewer",
			ilu.Iterations, gs.Iterations)
	}
}

// TestWarmStartCutsIterations: re-solving a nearby system seeded with
// the previous solution must converge in fewer iterations than cold,
// and to the same answer.
func TestWarmStartCutsIterations(t *testing.T) {
	const n = 200
	m := pathChain(t, n)
	for _, s := range []Solver{BiCGSTABSolver{}, ILUSolver{}, AutoSolver{}} {
		f := must(s.Factor(m))
		b := Ones(n)
		x, err := f.Solve(b, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		cold := f.Stats().Iterations
		// Re-solving the same system from its own solution must cost no
		// iterations: the guess already satisfies the residual criterion.
		if _, err := f.Solve(b, x, false); err != nil {
			t.Fatalf("%s warm re-solve: %v", s.Name(), err)
		}
		if again := f.Stats().Iterations - cold; again != 0 {
			t.Errorf("%s: warm re-solve of the same system took %d iterations, want 0", s.Name(), again)
		}
		// Perturb the RHS slightly and re-solve warm: no more work than
		// cold (and for the weakly preconditioned backends, much less).
		b2 := make([]float64, n)
		for i := range b2 {
			b2[i] = 1 + 1e-6*math.Cos(float64(i))
		}
		warmX, err := f.Solve(b2, x, false)
		if err != nil {
			t.Fatalf("%s warm: %v", s.Name(), err)
		}
		warm := f.Stats().Iterations - cold
		if warm > cold {
			t.Errorf("%s: warm solve took %d iterations, cold took %d; want no more", s.Name(), warm, cold)
		}
		want, err := must(DenseSolver{}.Factor(m)).Solve(b2, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range warmX {
			if math.Abs(warmX[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Errorf("%s: warm x[%d] = %v, want %v", s.Name(), i, warmX[i], want[i])
				break
			}
		}
	}
}

// TestWarmStartRejectsWrongLength: a guess of the wrong order must be an
// explicit error on every backend (silently ignoring it would hide
// cross-cell plumbing bugs).
func TestWarmStartRejectsWrongLength(t *testing.T) {
	m := pathChain(t, 10)
	for _, s := range solverBackends(t) {
		f := must(s.Factor(m))
		if _, err := f.Solve(Ones(10), Ones(9), false); err == nil {
			t.Errorf("%s: Solve accepted a length-9 guess for order 10", s.Name())
		}
		if _, err := f.Solve(Ones(10), Ones(11), true); err == nil {
			t.Errorf("%s: left Solve accepted a length-11 guess for order 10", s.Name())
		}
		if _, err := SolveBatch(f, [][]float64{Ones(10)}, [][]float64{Ones(9), Ones(9)}, false); err == nil {
			t.Errorf("%s: SolveBatch accepted 2 guesses for 1 rhs", s.Name())
		}
	}
}

// TestMixingEstimate: the probe must separate fast from slow mixing.
func TestMixingEstimate(t *testing.T) {
	slow := MixingEstimate(pathChain(t, 300), MixingProbeSteps)
	fast := MixingEstimate(lazyChain(t, 300), MixingProbeSteps)
	if slow < DefaultSlowMixThreshold {
		t.Errorf("path chain estimate %v below threshold %v", slow, DefaultSlowMixThreshold)
	}
	if fast >= DefaultSlowMixThreshold {
		t.Errorf("lazy chain estimate %v above threshold %v", fast, DefaultSlowMixThreshold)
	}
	if fast > 0.5 {
		t.Errorf("lazy chain estimate %v, want ≤ 0.5 (row sums are 0.3)", fast)
	}
}

// TestAutoPicksPreconditionerByMixing: the heuristic must route
// slow-mixing blocks to ILU and fast-mixing blocks to plain BiCGSTAB.
func TestAutoPicksPreconditionerByMixing(t *testing.T) {
	slow := must(AutoSolver{}.Factor(pathChain(t, 300)))
	if _, err := slow.Solve(Ones(300), nil, false); err != nil {
		t.Fatal(err)
	}
	if got := slow.Stats().Backend; got != "ilu" {
		t.Errorf("slow-mixing block routed to %q, want ilu", got)
	}
	fast := must(AutoSolver{}.Factor(lazyChain(t, 300)))
	if _, err := fast.Solve(Ones(300), nil, false); err != nil {
		t.Fatal(err)
	}
	if got := fast.Stats().Backend; got != "bicgstab" {
		t.Errorf("fast-mixing block routed to %q, want bicgstab", got)
	}
}

// TestAutoFallbackDiagnostics: a capped iteration must fall back with
// reason iteration_cap, count the dense-answered solves, and stay
// correct.
func TestAutoFallbackDiagnostics(t *testing.T) {
	const n = 40
	m := pathChain(t, n)
	auto := AutoSolver{Sparse: BiCGSTABSolver{MaxIter: 1}}
	f := must(auto.Factor(m))
	if st := f.Stats(); st.Fallbacks != 0 || st.FallbackReason != FallbackNone {
		t.Fatalf("pre-solve stats report a fallback: %+v", st)
	}
	if _, err := f.Solve(Ones(n), nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(Ones(n), nil, true); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Fallbacks != 2 {
		t.Errorf("Fallbacks = %d, want 2", st.Fallbacks)
	}
	if st.FallbackReason != FallbackIterationCap {
		t.Errorf("FallbackReason = %q, want %q", st.FallbackReason, FallbackIterationCap)
	}
}

// TestConvergenceErrorClassification pins the reason taxonomy: budget
// exhaustion without breakdowns is iteration_cap; recorded breakdowns
// classify as breakdown.
func TestConvergenceErrorClassification(t *testing.T) {
	capErr := &ConvergenceError{Method: "bicgstab", Iterations: 7, N: 3, Tol: 1e-12}
	if !errors.Is(capErr, ErrNoConvergence) {
		t.Error("ConvergenceError must wrap ErrNoConvergence")
	}
	if got := classifyFallback(capErr); got != FallbackIterationCap {
		t.Errorf("classify(cap) = %q, want %q", got, FallbackIterationCap)
	}
	bdErr := &ConvergenceError{Method: "bicgstab", Iterations: 7, Breakdowns: 2, N: 3, Tol: 1e-12}
	if got := classifyFallback(bdErr); got != FallbackBreakdown {
		t.Errorf("classify(breakdown) = %q, want %q", got, FallbackBreakdown)
	}
}

// TestStatsPlus pins the aggregation semantics used by markov.Chain.
func TestStatsPlus(t *testing.T) {
	a := SolveStats{Backend: "ilu", Iterations: 10}
	b := SolveStats{Backend: "ilu", Iterations: 5, Fallbacks: 1, FallbackReason: FallbackBreakdown}
	got := a.Plus(b)
	if got.Backend != "ilu" || got.Iterations != 15 || got.Fallbacks != 1 || got.FallbackReason != FallbackBreakdown {
		t.Errorf("Plus = %+v", got)
	}
}
