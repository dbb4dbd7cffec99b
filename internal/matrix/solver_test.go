package matrix

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// solverBackends enumerates every backend under test.
func solverBackends(t *testing.T) []Solver {
	t.Helper()
	return []Solver{
		DenseSolver{},
		BiCGSTABSolver{},
		ILUSolver{},
		AutoSolver{},
	}
}

// randomSubstochastic builds an n x n CSR with row sums ≤ 1−leak, the
// shape every absorbing-chain block has.
func randomSubstochastic(t *testing.T, r *rand.Rand, n int, leak float64) *CSR {
	t.Helper()
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		weights := make([]float64, n)
		var sum float64
		for j := range weights {
			if r.Float64() < 0.5 { // keep it sparse
				weights[j] = r.Float64()
				sum += weights[j]
			}
		}
		if sum == 0 {
			continue
		}
		for j, w := range weights {
			if w > 0 {
				if err := b.Add(i, j, (1-leak)*w/sum); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

func TestSolversAgreeOnRandomSystems(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(40)
		m := randomSubstochastic(t, r, n, 0.05+0.2*r.Float64())
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		var refRight, refLeft []float64
		for _, s := range solverBackends(t) {
			f, err := s.Factor(m)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			x, err := f.Solve(b, nil, false)
			if err != nil {
				t.Fatalf("%s right solve: %v", s.Name(), err)
			}
			y, err := f.Solve(b, nil, true)
			if err != nil {
				t.Fatalf("%s left solve: %v", s.Name(), err)
			}
			if refRight == nil {
				refRight, refLeft = x, y
				continue
			}
			for i := range x {
				if math.Abs(x[i]-refRight[i]) > 1e-8*(1+math.Abs(refRight[i])) {
					t.Errorf("%s right solve differs from dense at %d: %v vs %v", s.Name(), i, x[i], refRight[i])
					break
				}
			}
			for i := range y {
				if math.Abs(y[i]-refLeft[i]) > 1e-8*(1+math.Abs(refLeft[i])) {
					t.Errorf("%s left solve differs from dense at %d: %v vs %v", s.Name(), i, y[i], refLeft[i])
					break
				}
			}
		}
	}
}

func TestIterativeResidualControl(t *testing.T) {
	// A slowly mixing chain: symmetric random walk on a path, leak only at
	// the ends. The solution ‖x‖ is large, so the update norm alone would
	// accept early; the residual check must hold the iteration.
	const n = 60
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			_ = b.Add(i, i-1, 0.5)
		}
		if i < n-1 {
			_ = b.Add(i, i+1, 0.5)
		}
	}
	m := b.Build()
	ones := Ones(n)
	want, err := must(DenseSolver{}.Factor(m)).Solve(ones, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{BiCGSTABSolver{}, ILUSolver{}} {
		x, err := must(s.Factor(m)).Solve(ones, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// want[i] = E(absorption steps from i) peaks at (n/2)² ≈ 900.
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Errorf("%s: x[%d] = %v, want %v", s.Name(), i, x[i], want[i])
				break
			}
		}
	}
}

func must(f Factorization, err error) Factorization {
	if err != nil {
		panic(err)
	}
	return f
}

func TestIterativeNoConvergenceError(t *testing.T) {
	// One iteration cannot solve a 40-state slow chain to 1e-12.
	const n = 40
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			_ = b.Add(i, i-1, 0.5)
		}
		if i < n-1 {
			_ = b.Add(i, i+1, 0.5)
		}
	}
	m := b.Build()
	s := BiCGSTABSolver{MaxIter: 1}
	if _, err := must(s.Factor(m)).Solve(Ones(n), nil, false); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("%s with MaxIter=1: err = %v, want ErrNoConvergence", s.Name(), err)
	}
	// Auto must absorb the failure via the dense fallback.
	auto := AutoSolver{Sparse: BiCGSTABSolver{MaxIter: 1}}
	x, err := must(auto.Factor(m)).Solve(Ones(n), nil, false)
	if err != nil {
		t.Fatalf("auto fallback: %v", err)
	}
	want, _ := must(DenseSolver{}.Factor(m)).Solve(Ones(n), nil, false)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Errorf("auto fallback x[%d] = %v, want %v", i, x[i], want[i])
			break
		}
	}
}

// TestDenseRefusesHugeOrder: the dense backend refuses a block above
// MaxDenseOrder with ErrTooLarge before densifying it (the 200k-order
// block would need 320 GB), and the auto backend's fallback then
// reports both the sparse failure and the refusal instead of densifying.
// The order check runs before n² is formed, so it also holds where int
// is 32 bits.
func TestDenseRefusesHugeOrder(t *testing.T) {
	for _, n := range []int{MaxDenseOrder + 1, 200_000} {
		m := pathChain(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DenseSolver{}.Factor(m)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("order %d: dense err = %v, want ErrTooLarge", n, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("order %d: refused dense factor allocated %d bytes, want < 1 MB", n, alloc)
		}
		f := must(AutoSolver{Sparse: BiCGSTABSolver{MaxIter: 1}}.Factor(m))
		runtime.ReadMemStats(&before)
		_, err = f.Solve(Ones(n), nil, false)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooLarge) || !errors.Is(err, ErrNoConvergence) {
			t.Errorf("order %d: auto err = %v, want ErrNoConvergence and ErrTooLarge", n, err)
		}
		// One BiCGSTAB iteration needs about ten n-vectors.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*8*n) {
			t.Errorf("order %d: refused auto fallback allocated %d bytes, want < %d", n, alloc, 16*8*n)
		}
	}
}

func TestFactorRejectsNonSquare(t *testing.T) {
	m := NewSparseBuilder(2, 3).Build()
	for _, s := range solverBackends(t) {
		if _, err := s.Factor(m); err == nil {
			t.Errorf("%s: non-square accepted", s.Name())
		}
	}
}

func TestIterativeRejectsUnitDiagonal(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	_ = b.Add(0, 0, 1) // absorbing row makes I−M singular
	_ = b.Add(1, 0, 0.5)
	m := b.Build()
	for _, s := range []Solver{BiCGSTABSolver{}, ILUSolver{}} {
		if _, err := s.Factor(m); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: err = %v, want ErrSingular", s.Name(), err)
		}
	}
}

func TestSolverConfigBuild(t *testing.T) {
	for _, tt := range []struct {
		kind string
		name string
	}{
		{"", "dense"},
		{"dense", "dense"},
		{"sparse", "bicgstab"},
		{"bicgstab", "bicgstab"},
		{"ilu", "ilu"},
		{"auto", "auto"},
	} {
		s, err := SolverConfig{Kind: tt.kind}.Build()
		if err != nil {
			t.Fatalf("%q: %v", tt.kind, err)
		}
		if s.Name() != tt.name {
			t.Errorf("Kind %q built %q, want %q", tt.kind, s.Name(), tt.name)
		}
	}
	for _, kind := range []string{"qr", "gs", "gauss-seidel"} {
		if _, err := (SolverConfig{Kind: kind}).Build(); err == nil {
			t.Errorf("unknown kind %q accepted", kind)
		}
	}
}

func TestSolveEmptySystem(t *testing.T) {
	m := NewSparseBuilder(0, 0).Build()
	for _, s := range solverBackends(t) {
		f, err := s.Factor(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if x, err := f.Solve(nil, nil, false); err != nil || len(x) != 0 {
			t.Errorf("%s: empty solve = %v, %v", s.Name(), x, err)
		}
	}
}

func TestSolversRejectWrongRhsLength(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	_ = b.Add(0, 1, 0.5)
	_ = b.Add(1, 2, 0.5)
	m := b.Build()
	for _, s := range solverBackends(t) {
		f, err := s.Factor(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, rhs := range [][]float64{make([]float64, 2), make([]float64, 4)} {
			for _, left := range []bool{false, true} {
				if _, err := f.Solve(rhs, nil, left); err == nil {
					t.Errorf("%s: Solve (left=%v) accepted rhs of length %d", s.Name(), left, len(rhs))
				}
			}
		}
	}
}

// TestAutoFallbackIsSticky pins the auto backend's cost model: after one
// non-convergence on a block, later solves must skip the doomed sparse
// iteration and use the cached dense factors directly.
func TestAutoFallbackIsSticky(t *testing.T) {
	const n = 40
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			_ = b.Add(i, i-1, 0.5)
		}
		if i < n-1 {
			_ = b.Add(i, i+1, 0.5)
		}
	}
	auto := AutoSolver{Sparse: countingSolver{inner: BiCGSTABSolver{MaxIter: 1}}}
	f, err := auto.Factor(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	cf := f.(*autoFactorization).sparse.(*countingFactorization)
	if _, err := f.Solve(Ones(n), nil, false); err != nil {
		t.Fatal(err)
	}
	if cf.calls != 1 {
		t.Fatalf("first solve made %d sparse attempts, want 1", cf.calls)
	}
	if _, err := f.Solve(Ones(n), nil, true); err != nil {
		t.Fatal(err)
	}
	if cf.calls != 1 {
		t.Errorf("sparse attempted again after fallback (%d calls); fallback must be sticky", cf.calls)
	}
}

// countingSolver wraps a Solver and counts solve attempts.
type countingSolver struct{ inner Solver }

func (s countingSolver) Name() string { return s.inner.Name() }

func (s countingSolver) Factor(m *CSR) (Factorization, error) {
	f, err := s.inner.Factor(m)
	if err != nil {
		return nil, err
	}
	return &countingFactorization{inner: f}, nil
}

type countingFactorization struct {
	inner Factorization
	calls int
}

func (f *countingFactorization) Solve(b, x0 []float64, left bool) ([]float64, error) {
	f.calls++
	return f.inner.Solve(b, x0, left)
}

func (f *countingFactorization) Stats() SolveStats { return f.inner.Stats() }
