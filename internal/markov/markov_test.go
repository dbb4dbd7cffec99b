package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"targetedattacks/internal/matrix"
)

// twoStateChain is a hand-solvable chain: transient a (subset A) and b
// (subset B), absorbing classes one = {2}, two = {3}.
//
//	a → a 0.2, b 0.3, one 0.5
//	b → a 0.4, b 0.1, two 0.5
//
// With the fundamental matrix N = (I−T)⁻¹ = [[1.5, 0.5], [2/3, 4/3]]:
// starting at a, E(T_A) = 1.5, E(T_B) = 0.5, p(one) = 0.75, p(two) = 0.25,
// E(T_{A,1}) = 1.25, E(T_{A,n+1}) = E(T_{A,n})/6,
// E(T_{B,1}) = 0.375/0.9, same ratio 1/6.
func twoStateChain(t *testing.T) *Chain {
	t.Helper()
	b := matrix.NewSparseBuilder(4, 4)
	add := func(i, j int, v float64) {
		t.Helper()
		if err := b.Add(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 0, 0.2)
	add(0, 1, 0.3)
	add(0, 2, 0.5)
	add(1, 0, 0.4)
	add(1, 1, 0.1)
	add(1, 3, 0.5)
	add(2, 2, 1)
	add(3, 3, 1)
	c, err := NewChain(Spec{
		Full:             b.Build(),
		Alpha:            []float64{1, 0, 0, 0},
		SubsetA:          []int{0},
		SubsetB:          []int{1},
		AbsorbingClasses: map[string][]int{"one": {2}, "two": {3}},
		ClassOrder:       []string{"one", "two"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTwoStateExpectedTimes(t *testing.T) {
	c := twoStateChain(t)
	ea, err := c.ExpectedTotalTimeInA()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ea-1.5) > 1e-12 {
		t.Errorf("E(T_A) = %v, want 1.5", ea)
	}
	eb, err := c.ExpectedTotalTimeInB()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eb-0.5) > 1e-12 {
		t.Errorf("E(T_B) = %v, want 0.5", eb)
	}
	tot, err := c.ExpectedTotalTransientTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tot-2.0) > 1e-12 {
		t.Errorf("E(T) = %v, want 2", tot)
	}
}

func TestTwoStateAbsorption(t *testing.T) {
	c := twoStateChain(t)
	p, err := c.AbsorptionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p["one"]-0.75) > 1e-12 {
		t.Errorf("p(one) = %v, want 0.75", p["one"])
	}
	if math.Abs(p["two"]-0.25) > 1e-12 {
		t.Errorf("p(two) = %v, want 0.25", p["two"])
	}
}

func TestTwoStateSuccessiveSojourns(t *testing.T) {
	c := twoStateChain(t)
	sa, err := c.SuccessiveSojournsInA(4)
	if err != nil {
		t.Fatal(err)
	}
	wantA := []float64{1.25, 1.25 / 6, 1.25 / 36, 1.25 / 216}
	for i := range wantA {
		if math.Abs(sa[i]-wantA[i]) > 1e-12 {
			t.Errorf("E(T_A,%d) = %v, want %v", i+1, sa[i], wantA[i])
		}
	}
	sb, err := c.SuccessiveSojournsInB(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sb[0]-0.375/0.9) > 1e-12 {
		t.Errorf("E(T_B,1) = %v, want %v", sb[0], 0.375/0.9)
	}
	if math.Abs(sb[1]-sb[0]/6) > 1e-12 {
		t.Errorf("E(T_B,2) = %v, want %v", sb[1], sb[0]/6)
	}
	// Geometric sum of the sojourn series must recover the total time.
	sumA := sa[0] / (1 - 1.0/6)
	ea, err := c.ExpectedTotalTimeInA()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sumA-ea) > 1e-10 {
		t.Errorf("Σ E(T_A,n) = %v, want E(T_A) = %v", sumA, ea)
	}
}

func TestSojournEdgeCases(t *testing.T) {
	c := twoStateChain(t)
	if _, err := c.SuccessiveSojournsInA(-1); err == nil {
		t.Error("negative n: want error")
	}
	z, err := c.SuccessiveSojournsInA(0)
	if err != nil || len(z) != 0 {
		t.Errorf("n=0: got %v, %v", z, err)
	}
}

// gamblersRuin builds the symmetric random walk on {0..n} with absorbing
// barriers; all interior states are subset A, subset B is empty.
func gamblersRuin(t *testing.T, n, start int) *Chain {
	t.Helper()
	b := matrix.NewSparseBuilder(n+1, n+1)
	for i := 1; i < n; i++ {
		if err := b.Add(i, i-1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := b.Add(i, i+1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	_ = b.Add(0, 0, 1)
	_ = b.Add(n, n, 1)
	alpha := make([]float64, n+1)
	alpha[start] = 1
	interior := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		interior = append(interior, i)
	}
	c, err := NewChain(Spec{
		Full:             b.Build(),
		Alpha:            alpha,
		SubsetA:          interior,
		SubsetB:          nil,
		AbsorbingClasses: map[string][]int{"ruin": {0}, "win": {n}},
		ClassOrder:       []string{"ruin", "win"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGamblersRuinKnownResults(t *testing.T) {
	// From start i on {0..n}: E(steps) = i(n−i), p(ruin) = 1 − i/n.
	for _, tt := range []struct{ n, start int }{{7, 3}, {7, 1}, {10, 5}, {4, 2}} {
		c := gamblersRuin(t, tt.n, tt.start)
		ea, err := c.ExpectedTotalTimeInA()
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tt.start * (tt.n - tt.start))
		if math.Abs(ea-want) > 1e-9 {
			t.Errorf("n=%d start=%d: E(T) = %v, want %v", tt.n, tt.start, ea, want)
		}
		eb, err := c.ExpectedTotalTimeInB()
		if err != nil {
			t.Fatal(err)
		}
		if eb != 0 {
			t.Errorf("empty subset B: E(T_B) = %v, want 0", eb)
		}
		p, err := c.AbsorptionProbabilities()
		if err != nil {
			t.Fatal(err)
		}
		wantRuin := 1 - float64(tt.start)/float64(tt.n)
		if math.Abs(p["ruin"]-wantRuin) > 1e-9 {
			t.Errorf("n=%d start=%d: p(ruin) = %v, want %v", tt.n, tt.start, p["ruin"], wantRuin)
		}
		if math.Abs(p["ruin"]+p["win"]-1) > 1e-9 {
			t.Errorf("absorption probabilities sum to %v", p["ruin"]+p["win"])
		}
	}
}

func TestGamblersRuinSojournIsTotal(t *testing.T) {
	// With empty B there is a single sojourn in A: E(T_{A,1}) = E(T_A) and
	// all later sojourns are zero.
	c := gamblersRuin(t, 7, 3)
	s, err := c.SuccessiveSojournsInA(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-12) > 1e-9 {
		t.Errorf("E(T_A,1) = %v, want 12", s[0])
	}
	if s[1] != 0 || s[2] != 0 {
		t.Errorf("later sojourns = %v, want zeros", s[1:])
	}
}

func TestSpecValidation(t *testing.T) {
	b := matrix.NewSparseBuilder(2, 2)
	_ = b.Add(0, 1, 1)
	_ = b.Add(1, 1, 1)
	full := b.Build()
	base := Spec{
		Full:             full,
		Alpha:            []float64{1, 0},
		SubsetA:          []int{0},
		AbsorbingClasses: map[string][]int{"end": {1}},
		ClassOrder:       []string{"end"},
	}

	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"nil full", func(s *Spec) { s.Full = nil }},
		{"alpha length", func(s *Spec) { s.Alpha = []float64{1} }},
		{"bad index", func(s *Spec) { s.SubsetA = []int{5} }},
		{"negative index", func(s *Spec) { s.SubsetA = []int{-1} }},
		{"overlap", func(s *Spec) { s.SubsetB = []int{0} }},
		{"unknown class", func(s *Spec) { s.ClassOrder = []string{"nope"} }},
		{"class count", func(s *Spec) { s.ClassOrder = nil }},
		{
			"state in two classes",
			func(s *Spec) {
				s.AbsorbingClasses = map[string][]int{"end": {1}, "dup": {1}}
				s.ClassOrder = []string{"end", "dup"}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := base
			tt.mutate(&spec)
			if _, err := NewChain(spec); err == nil {
				t.Error("want error, got nil")
			}
		})
	}

	if _, err := NewChain(base); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestNonSquareRejected(t *testing.T) {
	b := matrix.NewSparseBuilder(2, 3)
	if _, err := NewChain(Spec{Full: b.Build(), Alpha: []float64{1, 0}}); err == nil {
		t.Error("non-square matrix: want error")
	}
}

// TestRandomChainInvariants builds random absorbing chains and checks the
// structural invariants: absorption probabilities form a distribution, all
// expected times are non-negative, and the sojourn series sums toward the
// total time.
func TestRandomChainInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nA := 1 + r.Intn(4)
		nB := r.Intn(4)
		nT := nA + nB
		n := nT + 2 // two absorbing states
		b := matrix.NewSparseBuilder(n, n)
		for i := 0; i < nT; i++ {
			// Random transition row with at least 0.05 leak to absorbing.
			weights := make([]float64, n)
			var sum float64
			for j := 0; j < n; j++ {
				weights[j] = r.Float64()
				sum += weights[j]
			}
			leak := 0.05 + 0.2*r.Float64()
			for j := 0; j < nT; j++ {
				if err := b.Add(i, j, (1-leak)*weights[j]/sum); err != nil {
					return false
				}
			}
			// Remaining mass (leak plus unassigned weight share) to absorbing.
			var assigned float64
			for j := 0; j < nT; j++ {
				assigned += (1 - leak) * weights[j] / sum
			}
			rest := 1 - assigned
			if err := b.Add(i, nT, rest/2); err != nil {
				return false
			}
			if err := b.Add(i, nT+1, rest/2); err != nil {
				return false
			}
		}
		_ = b.Add(nT, nT, 1)
		_ = b.Add(nT+1, nT+1, 1)
		alpha := make([]float64, n)
		alpha[r.Intn(nT)] = 1
		subsetA := make([]int, nA)
		for i := range subsetA {
			subsetA[i] = i
		}
		subsetB := make([]int, nB)
		for i := range subsetB {
			subsetB[i] = nA + i
		}
		c, err := NewChain(Spec{
			Full:             b.Build(),
			Alpha:            alpha,
			SubsetA:          subsetA,
			SubsetB:          subsetB,
			AbsorbingClasses: map[string][]int{"u": {nT}, "v": {nT + 1}},
			ClassOrder:       []string{"u", "v"},
		})
		if err != nil {
			return false
		}
		p, err := c.AbsorptionProbabilities()
		if err != nil {
			return false
		}
		if math.Abs(p["u"]+p["v"]-1) > 1e-8 {
			return false
		}
		ea, err := c.ExpectedTotalTimeInA()
		if err != nil || ea < -1e-12 {
			return false
		}
		eb, err := c.ExpectedTotalTimeInB()
		if err != nil || eb < -1e-12 {
			return false
		}
		// Sojourn series partial sums stay below the totals.
		sa, err := c.SuccessiveSojournsInA(64)
		if err != nil {
			return false
		}
		var sum float64
		for _, s := range sa {
			if s < -1e-12 {
				return false
			}
			sum += s
		}
		return sum <= ea+1e-6 && ea-sum < 1e-3*(1+ea)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHitProbabilities(t *testing.T) {
	c := twoStateChain(t)
	// Start in A: A is hit with probability 1.
	pa, err := c.HitProbabilityA()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pa-1) > 1e-12 {
		t.Errorf("P(hit A) = %v, want 1 (start in A)", pa)
	}
	// B is hit iff the chain moves a→b before absorbing; from a the
	// chance per step is 0.3 vs 0.5 absorption and 0.2 self-loop:
	// p = 0.3/(1−0.2) = 0.375.
	pb, err := c.HitProbabilityB()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pb-0.375) > 1e-12 {
		t.Errorf("P(hit B) = %v, want 0.375", pb)
	}
}

func TestHitProbabilityEmptySubset(t *testing.T) {
	c := gamblersRuin(t, 5, 2)
	pb, err := c.HitProbabilityB()
	if err != nil || pb != 0 {
		t.Errorf("P(hit ∅) = %v err %v, want 0", pb, err)
	}
	pa, err := c.HitProbabilityA()
	if err != nil || math.Abs(pa-1) > 1e-12 {
		t.Errorf("P(hit A) = %v err %v, want 1", pa, err)
	}
}

func TestClassesAndSizes(t *testing.T) {
	c := twoStateChain(t)
	cls := c.Classes()
	if len(cls) != 2 || cls[0] != "one" || cls[1] != "two" {
		t.Errorf("Classes = %v", cls)
	}
	a, b := c.TransientSizes()
	if a != 1 || b != 1 {
		t.Errorf("TransientSizes = %d,%d", a, b)
	}
}

// TestChainAcrossSolverBackends re-runs the hand-solvable chains through
// every solver backend: the sparse iterative paths must reproduce the
// dense LU results on all relations.
func TestChainAcrossSolverBackends(t *testing.T) {
	solvers := []matrix.Solver{
		matrix.DenseSolver{},
		matrix.BiCGSTABSolver{},
		matrix.ILUSolver{},
		matrix.AutoSolver{},
	}
	for _, s := range solvers {
		t.Run(s.Name(), func(t *testing.T) {
			b := matrix.NewSparseBuilder(4, 4)
			for _, e := range []struct {
				i, j int
				v    float64
			}{
				{0, 0, 0.2}, {0, 1, 0.3}, {0, 2, 0.5},
				{1, 0, 0.4}, {1, 1, 0.1}, {1, 3, 0.5},
				{2, 2, 1}, {3, 3, 1},
			} {
				if err := b.Add(e.i, e.j, e.v); err != nil {
					t.Fatal(err)
				}
			}
			c, err := NewChain(Spec{
				Full:             b.Build(),
				Alpha:            []float64{1, 0, 0, 0},
				SubsetA:          []int{0},
				SubsetB:          []int{1},
				AbsorbingClasses: map[string][]int{"one": {2}, "two": {3}},
				ClassOrder:       []string{"one", "two"},
				Solver:           s,
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.SolverName() != s.Name() {
				t.Errorf("SolverName = %q, want %q", c.SolverName(), s.Name())
			}
			checks := []struct {
				name string
				got  func() (float64, error)
				want float64
			}{
				{"E(T_A)", c.ExpectedTotalTimeInA, 1.5},
				{"E(T_B)", c.ExpectedTotalTimeInB, 0.5},
				{"P(hit A)", c.HitProbabilityA, 1},
				{"P(hit B)", c.HitProbabilityB, 0.375},
			}
			for _, chk := range checks {
				v, err := chk.got()
				if err != nil {
					t.Fatalf("%s: %v", chk.name, err)
				}
				if math.Abs(v-chk.want) > 1e-9 {
					t.Errorf("%s = %v, want %v", chk.name, v, chk.want)
				}
			}
			p, err := c.AbsorptionProbabilities()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p["one"]-0.75) > 1e-9 || math.Abs(p["two"]-0.25) > 1e-9 {
				t.Errorf("absorption = %v, want one=0.75 two=0.25", p)
			}
			sa, err := c.SuccessiveSojournsInA(3)
			if err != nil {
				t.Fatal(err)
			}
			wantA := []float64{1.25, 1.25 / 6, 1.25 / 36}
			for i := range wantA {
				if math.Abs(sa[i]-wantA[i]) > 1e-9 {
					t.Errorf("E(T_A,%d) = %v, want %v", i+1, sa[i], wantA[i])
				}
			}
		})
	}
}

// TestDefaultSolverIsDense pins the compatibility contract: a Spec without
// a Solver uses the exact dense LU backend.
func TestDefaultSolverIsDense(t *testing.T) {
	c := twoStateChain(t)
	if c.SolverName() != "dense" {
		t.Errorf("default solver = %q, want dense", c.SolverName())
	}
}

// TestSuccessiveSojournsBothMatchesSingle pins the lockstep batching of
// the A and B sojourn recursions: SuccessiveSojournsBoth runs the exact
// per-vector arithmetic of the two single-subset recursions through
// batched matrix.SolveBatch calls, so its outputs must be bit-identical to
// SuccessiveSojournsInA / SuccessiveSojournsInB — on the analytic
// two-state chain, on random chains, and across solver backends.
func TestSuccessiveSojournsBothMatchesSingle(t *testing.T) {
	solvers := []matrix.Solver{nil, matrix.BiCGSTABSolver{}, matrix.ILUSolver{}}
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		nA := 1 + r.Intn(4)
		nB := 1 + r.Intn(4)
		nT := nA + nB
		n := nT + 1
		b := matrix.NewSparseBuilder(n, n)
		for i := 0; i < nT; i++ {
			weights := make([]float64, nT)
			var sum float64
			for j := range weights {
				weights[j] = r.Float64()
				sum += weights[j]
			}
			leak := 0.05 + 0.2*r.Float64()
			for j := 0; j < nT; j++ {
				if err := b.Add(i, j, (1-leak)*weights[j]/sum); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Add(i, nT, leak); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Add(nT, nT, 1); err != nil {
			t.Fatal(err)
		}
		alpha := make([]float64, n)
		alpha[r.Intn(nT)] = 1
		subsetA := make([]int, nA)
		for i := range subsetA {
			subsetA[i] = i
		}
		subsetB := make([]int, nB)
		for i := range subsetB {
			subsetB[i] = nA + i
		}
		full := b.Build()
		for _, solver := range solvers {
			spec := Spec{
				Full:             full,
				Alpha:            alpha,
				SubsetA:          subsetA,
				SubsetB:          subsetB,
				AbsorbingClasses: map[string][]int{"end": {nT}},
				ClassOrder:       []string{"end"},
				Solver:           solver,
			}
			c, err := NewChain(spec)
			if err != nil {
				t.Fatal(err)
			}
			const terms = 7
			bothA, bothB, err := c.SuccessiveSojournsBoth(terms)
			if err != nil {
				t.Fatal(err)
			}
			sa, err := c.SuccessiveSojournsInA(terms)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := c.SuccessiveSojournsInB(terms)
			if err != nil {
				t.Fatal(err)
			}
			name := "dense"
			if solver != nil {
				name = solver.Name()
			}
			for i := 0; i < terms; i++ {
				if bothA[i] != sa[i] || bothB[i] != sb[i] {
					t.Errorf("trial %d %s term %d: Both = (%v, %v), single = (%v, %v)",
						trial, name, i, bothA[i], bothB[i], sa[i], sb[i])
				}
			}
		}
	}
	// Degenerate inputs mirror the single-subset semantics.
	c := twoStateChain(t)
	if _, _, err := c.SuccessiveSojournsBoth(-1); err == nil {
		t.Error("negative count: want error")
	}
	za, zb, err := c.SuccessiveSojournsBoth(0)
	if err != nil || len(za) != 0 || len(zb) != 0 {
		t.Errorf("zero count: got (%v, %v, %v)", za, zb, err)
	}
}
