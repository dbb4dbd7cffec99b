// Package markov implements the absorbing discrete-time Markov-chain
// analytics that the DSN 2011 targeted-attack paper builds on:
//
//   - expected total time spent in a subset of transient states before
//     absorption (Sericola, J. Appl. Prob. 1990 — the paper's relations
//     (5) and (6)),
//   - expected durations of the successive sojourns in each transient
//     subset (Sericola & Rubino, J. Appl. Prob. 1989 — relations (7), (8)),
//   - absorption probabilities per absorbing class (relation (9)),
//   - transient distribution evolution.
//
// The chain's transient states are partitioned into two subsets A and B
// (the paper's safe set S and polluted set P); the remaining states form
// named absorbing classes.
//
// The pipeline is sparse end-to-end. The chain stores one copy of its
// transient transitions, the block T carved directly out of the CSR; the
// quadrants M_A, M_AB, M_BA and M_B are views of T's rows, the left
// solves of T, M_A and M_B share one transpose Tᵀ, and when I−T and I−M_A
// both take ILU(0), the factors of I−M_A are T's A rows of the factors
// of I−T. An absorbing class is kept only as its row sums. Every relation
// is routed through the pluggable matrix.Solver interface, and nothing
// is densified unless the dense LU backend itself is selected.
// Factorizations and the shared visits vector α_T(I−T)⁻¹ are cached on
// the Chain and reused across relations, so e.g. E(T_S), E(T_P) and the
// absorption probabilities cost one linear solve between them.
package markov

import (
	"fmt"
	"slices"

	"targetedattacks/internal/matrix"
)

// Chain is an absorbing discrete-time Markov chain whose transient states
// are split into two subsets. The transient block and the absorbing
// row sums are extracted once at construction; the analytic methods are
// then pure (sparse) linear algebra. A Chain caches factorizations and
// shared solves, so it is not safe for concurrent use.
type Chain struct {
	// tt is the transient block T = [[M_A, M_AB], [M_BA, M_B]] in the
	// (A, B) order, the chain's one stored copy of its transient
	// transitions; ma, mab, mba and mb are views of its quadrants.
	tt, ma, mab, mba, mb *matrix.CSR
	// absorbing[class] holds R_U 1, the mass each transient state sends
	// into that absorbing class in one step, in the (A, B) order.
	absorbing map[string][]float64
	classes   []string // deterministic iteration order
	alphaA    []float64
	alphaB    []float64
	nA, nB    int

	solver matrix.Solver
	// Cached factorizations of I−M_A, I−M_B, I−T and the shared visits
	// vector y = α_T (I−T)⁻¹, filled on first use.
	fa, fb, ft matrix.Factorization
	visitsVec  []float64
	// ws seeds iterative solves from a neighboring chain's recorded
	// solutions; rec accumulates this chain's own converged vectors.
	ws  *WarmStart
	rec WarmStart
}

// WarmStart carries the converged solution vectors of one chain's
// analysis so a neighboring chain — the next cell of a parameter sweep,
// whose blocks differ only by smoothly varying branch weights — can seed
// its iterative solves with them. Vectors are keyed by the relation that
// produced them; any entry may be nil (that solve starts cold). Seeding
// is best-effort: a vector whose length does not match the consuming
// chain's blocks is ignored. The vectors are read-only — the producing
// and the consuming chain may hold references to the same slices.
type WarmStart struct {
	// Visits seeds the shared left solve α_T(I−T)⁻¹ of relations (5),
	// (6) and (9); length |A|+|B|.
	Visits []float64
	// EntryA seeds the αB(I−M_B)⁻¹ left solve inside the subset-A entry
	// vector of relation (5) (length |B|); EntryB seeds the mirrored
	// solve of the subset-B entry vector (length |A|).
	EntryA, EntryB []float64
	// UA and UB seed the column solves (I−M_A)⁻¹1 and (I−M_B)⁻¹1 of
	// relations (7)/(8).
	UA, UB []float64
	// SojournPrologue seeds the B recursion's first half-step of
	// SuccessiveSojournsBoth.
	SojournPrologue []float64
	// StepsA[i] and StepsB[i] seed the batched left solves of sojourn
	// recursion step i+1 against I−M_A and I−M_B respectively.
	StepsA, StepsB [][][]float64
	// Clean seeds the (I−M_A)⁻¹ solve of AbsorbedWithinA; length |A|.
	Clean []float64
}

// SeedWarmStart installs ws as the source of initial guesses for the
// chain's iterative solves; call it before any analysis method. A nil
// ws (or nil entries) leaves the corresponding solves cold. Warm-started
// solves satisfy the same residual tolerance as cold ones, so results
// agree with the cold path to solver tolerance — they are not
// bit-identical. The dense backend ignores seeds entirely.
func (c *Chain) SeedWarmStart(ws *WarmStart) { c.ws = ws }

// RecordedWarmStart returns the solution vectors recorded by the
// analysis methods run so far, for seeding a neighboring chain.
func (c *Chain) RecordedWarmStart() *WarmStart {
	rec := c.rec
	return &rec
}

// SolveStats aggregates the linear-solver work of every factorization
// the chain has built so far.
func (c *Chain) SolveStats() matrix.SolveStats {
	var st matrix.SolveStats
	for _, f := range []matrix.Factorization{c.ft, c.fa, c.fb} {
		if f != nil {
			st = st.Plus(f.Stats())
		}
	}
	if st.Backend == "" {
		st.Backend = c.solver.Name()
	}
	return st
}

// fit returns seed if it has length n, else nil: chain-level warm
// starting is best-effort and must never turn a solvable analysis into
// an error.
func fit(seed []float64, n int) []float64 {
	if len(seed) == n {
		return seed
	}
	return nil
}

// fitBatch returns the recorded step-i batch (1-based loop index) if its
// shape matches the pending batch of n-vectors, else nil.
func fitBatch(steps [][][]float64, i, want, n int) [][]float64 {
	if i-1 >= len(steps) || len(steps[i-1]) != want {
		return nil
	}
	for _, s := range steps[i-1] {
		if len(s) != n {
			return nil
		}
	}
	return steps[i-1]
}

// Spec describes how to carve a Chain out of a full transition matrix.
type Spec struct {
	// Full is the complete transition matrix over all states.
	Full *matrix.CSR
	// Alpha is the initial distribution over all states.
	Alpha []float64
	// SubsetA and SubsetB are the two transient subsets (paper: S and P).
	SubsetA, SubsetB []int
	// AbsorbingClasses maps a class name to its state indices.
	AbsorbingClasses map[string][]int
	// ClassOrder fixes the iteration order of the absorbing classes; it
	// must list every key of AbsorbingClasses exactly once.
	ClassOrder []string
	// Solver selects the linear-solver backend for every relation; nil
	// selects the exact dense LU backend.
	Solver matrix.Solver
}

// NewChain validates a Spec and extracts the transient block T, whose
// quadrants M_A, M_AB, M_BA and M_B are views of it (matrix.Partition),
// and each absorbing class's row sums. The full matrix is never
// densified.
func NewChain(spec Spec) (*Chain, error) {
	if spec.Full == nil {
		return nil, fmt.Errorf("markov: Spec.Full is nil")
	}
	n := spec.Full.Rows()
	if spec.Full.Cols() != n {
		return nil, fmt.Errorf("markov: transition matrix is %dx%d, want square", n, spec.Full.Cols())
	}
	if len(spec.Alpha) != n {
		return nil, fmt.Errorf("markov: alpha has length %d, want %d", len(spec.Alpha), n)
	}
	if len(spec.ClassOrder) != len(spec.AbsorbingClasses) {
		return nil, fmt.Errorf("markov: ClassOrder lists %d classes, AbsorbingClasses has %d",
			len(spec.ClassOrder), len(spec.AbsorbingClasses))
	}
	seen := make(map[int]string, n)
	mark := func(idx []int, label string) error {
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("markov: state index %d out of range [0,%d)", i, n)
			}
			if prev, dup := seen[i]; dup {
				return fmt.Errorf("markov: state %d assigned to both %s and %s", i, prev, label)
			}
			seen[i] = label
		}
		return nil
	}
	if err := mark(spec.SubsetA, "A"); err != nil {
		return nil, err
	}
	if err := mark(spec.SubsetB, "B"); err != nil {
		return nil, err
	}
	for _, name := range spec.ClassOrder {
		idx, ok := spec.AbsorbingClasses[name]
		if !ok {
			return nil, fmt.Errorf("markov: ClassOrder names unknown class %q", name)
		}
		if err := mark(idx, name); err != nil {
			return nil, err
		}
	}

	transient := make([]int, 0, len(spec.SubsetA)+len(spec.SubsetB))
	transient = append(transient, spec.SubsetA...)
	transient = append(transient, spec.SubsetB...)
	tt, err := spec.Full.SubCSR(transient, transient)
	if err != nil {
		return nil, err
	}
	blocks, err := matrix.NewPartition(tt, len(spec.SubsetA))
	if err != nil {
		return nil, err
	}
	abs := make(map[string][]float64, len(spec.AbsorbingClasses))
	for name, idx := range spec.AbsorbingClasses {
		sums, err := spec.Full.SubRowSums(transient, idx)
		if err != nil {
			return nil, err
		}
		abs[name] = sums
	}
	solver := spec.Solver
	if solver == nil {
		solver = matrix.DenseSolver{}
	}
	c := &Chain{
		tt: blocks.T, ma: blocks.A, mab: blocks.AB, mba: blocks.BA, mb: blocks.B,
		absorbing: abs,
		classes:   append([]string(nil), spec.ClassOrder...),
		alphaA:    pick(spec.Alpha, spec.SubsetA),
		alphaB:    pick(spec.Alpha, spec.SubsetB),
		nA:        len(spec.SubsetA),
		nB:        len(spec.SubsetB),
		solver:    solver,
	}
	return c, nil
}

func pick(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for p, i := range idx {
		out[p] = v[i]
	}
	return out
}

// SolverName reports which linear-solver backend the chain routes its
// relations through.
func (c *Chain) SolverName() string { return c.solver.Name() }

// factA returns the cached factorization of I − M_A.
func (c *Chain) factA() (matrix.Factorization, error) {
	if c.fa == nil {
		f, err := c.solver.Factor(c.ma)
		if err != nil {
			return nil, fmt.Errorf("markov: factoring I−M_A: %w", err)
		}
		c.fa = f
	}
	return c.fa, nil
}

// factB returns the cached factorization of I − M_B.
func (c *Chain) factB() (matrix.Factorization, error) {
	if c.fb == nil {
		f, err := c.solver.Factor(c.mb)
		if err != nil {
			return nil, fmt.Errorf("markov: factoring I−M_B: %w", err)
		}
		c.fb = f
	}
	return c.fb, nil
}

// factT returns the cached factorization of I − T over all transient
// states.
func (c *Chain) factT() (matrix.Factorization, error) {
	if c.ft == nil {
		f, err := c.solver.Factor(c.tt)
		if err != nil {
			return nil, fmt.Errorf("markov: factoring I−T: %w", err)
		}
		c.ft = f
	}
	return c.ft, nil
}

// visits returns the cached visits vector y = α_T (I − T)⁻¹: y_j is the
// expected number of visits to transient state j before absorption. One
// left solve serves relations (5), (6) and (9).
func (c *Chain) visits() ([]float64, error) {
	if c.visitsVec != nil {
		return c.visitsVec, nil
	}
	ft, err := c.factT()
	if err != nil {
		return nil, err
	}
	alphaT := make([]float64, 0, c.nA+c.nB)
	alphaT = append(alphaT, c.alphaA...)
	alphaT = append(alphaT, c.alphaB...)
	var seed []float64
	if c.ws != nil {
		seed = fit(c.ws.Visits, c.nA+c.nB)
	}
	y, err := ft.Solve(alphaT, seed, true)
	if err != nil {
		return nil, fmt.Errorf("markov: solving α_T(I−T)⁻¹: %w", err)
	}
	c.visitsVec = y
	c.rec.Visits = y
	return y, nil
}

// entryVector computes the paper's v (relation (5)) for subset A:
// v = αA + αB (I − M_B)⁻¹ M_{BA}, the distribution of the state in A at
// the instant the chain first visits A (counting a start in A). fb must
// factor I − M_B. x0 optionally warm-starts the inner left solve, whose
// solution is returned alongside v for recording.
func entryVector(alphaA, alphaB []float64, fb matrix.Factorization, mba *matrix.CSR, x0 []float64) (v, u []float64, err error) {
	if len(alphaB) == 0 {
		return append([]float64(nil), alphaA...), nil, nil
	}
	u, err = fb.Solve(alphaB, fit(x0, len(alphaB)), true)
	if err != nil {
		return nil, nil, fmt.Errorf("markov: solving αB(I−M_B)⁻¹: %w", err)
	}
	um, err := mba.VecMul(u)
	if err != nil {
		return nil, nil, err
	}
	v, err = matrix.VecAdd(alphaA, um)
	return v, u, err
}

// ExpectedTotalTimeInA returns E(T_A), the expected number of transitions
// spent in subset A before absorption (paper relation (5)). The censored
// kernel identity v(I − R)⁻¹1 of the paper is evaluated through the
// equivalent fundamental-matrix form Σ_{j∈A} [α_T(I−T)⁻¹]_j, which shares
// its single sparse solve with relation (6) and the absorption
// probabilities (9).
func (c *Chain) ExpectedTotalTimeInA() (float64, error) {
	return c.expectedTotalTime(0, c.nA)
}

// ExpectedTotalTimeInB returns E(T_B), the expected number of transitions
// spent in subset B before absorption (paper relation (6)).
func (c *Chain) ExpectedTotalTimeInB() (float64, error) {
	return c.expectedTotalTime(c.nA, c.nA+c.nB)
}

func (c *Chain) expectedTotalTime(lo, hi int) (float64, error) {
	if lo == hi {
		return 0, nil
	}
	y, err := c.visits()
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range y[lo:hi] {
		s += v
	}
	return s, nil
}

// SuccessiveSojournsInA returns E(T_{A,1}), …, E(T_{A,n}): the expected
// durations of the first n sojourns of the chain in subset A (paper
// relation (7), after Sericola & Rubino 1989).
func (c *Chain) SuccessiveSojournsInA(n int) ([]float64, error) {
	return c.successiveSojourns(n, false)
}

// SuccessiveSojournsInB is the subset-B counterpart (paper relation (8)).
func (c *Chain) SuccessiveSojournsInB(n int) ([]float64, error) {
	return c.successiveSojourns(n, true)
}

// successiveSojourns evaluates relation (7) with every matrix power
// applied as sparse solves and products: out[i] = v Gⁱ u with
// G = (I−M_A)⁻¹ M_AB (I−M_B)⁻¹ M_BA and u = (I−M_A)⁻¹ 1. swapped selects
// the subset-B orientation (A and B exchange roles).
func (c *Chain) successiveSojourns(n int, swapped bool) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("markov: negative sojourn count %d", n)
	}
	alphaA, alphaB := c.alphaA, c.alphaB
	mab, mba := c.mab, c.mba
	factA, factB := c.factA, c.factB
	if swapped {
		alphaA, alphaB = alphaB, alphaA
		mab, mba = mba, mab
		factA, factB = factB, factA
	}
	out := make([]float64, n)
	if n == 0 || len(alphaA) == 0 {
		return out, nil
	}
	fa, err := factA()
	if err != nil {
		return nil, err
	}
	var fb matrix.Factorization
	if len(alphaB) > 0 {
		if fb, err = factB(); err != nil {
			return nil, err
		}
	}
	v, _, err := entryVector(alphaA, alphaB, fb, mba, nil)
	if err != nil {
		return nil, err
	}
	u, err := fa.Solve(matrix.Ones(len(alphaA)), nil, false)
	if err != nil {
		return nil, err
	}
	r := v
	for i := 0; i < n; i++ {
		e, err := matrix.Dot(r, u)
		if err != nil {
			return nil, err
		}
		out[i] = e
		if i+1 == n {
			break
		}
		// Empty B makes G = 0: only the first sojourn exists.
		if len(alphaB) == 0 {
			break
		}
		// r ← r G, one factor at a time: two sparse left-solves and two
		// CSR row-vector products instead of a dense G.
		t1, err := fa.Solve(r, nil, true)
		if err != nil {
			return nil, err
		}
		t2, err := mab.VecMul(t1)
		if err != nil {
			return nil, err
		}
		t3, err := fb.Solve(t2, nil, true)
		if err != nil {
			return nil, err
		}
		if r, err = mba.VecMul(t3); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SuccessiveSojournsBoth returns the first n expected sojourn durations
// in A and in B together (relations (7) and (8)). The two recursions are
// advanced in lockstep: at every step the pending left systems against
// I−M_A are batched into one matrix.SolveBatch call, and likewise for I−M_B —
// one batched solve per block per iteration instead of four vector
// solves, with each block's setup (LU factors, sparse transpose) paid
// once per batch. The per-vector arithmetic is unchanged, so the result
// is bit-identical to the two single-subset recursions.
func (c *Chain) SuccessiveSojournsBoth(n int) ([]float64, []float64, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("markov: negative sojourn count %d", n)
	}
	if n == 0 || c.nA == 0 || c.nB == 0 {
		// One subset is empty (its sojourns are all zero and the other
		// recursion terminates after one term): the single-subset paths
		// already special-case this without any cross-block work.
		a, err := c.successiveSojourns(n, false)
		if err != nil {
			return nil, nil, err
		}
		b, err := c.successiveSojourns(n, true)
		if err != nil {
			return nil, nil, err
		}
		return a, b, nil
	}
	fa, err := c.factA()
	if err != nil {
		return nil, nil, err
	}
	fb, err := c.factB()
	if err != nil {
		return nil, nil, err
	}
	// Seed every solve from the neighboring chain's recorded solutions
	// (ws == nil or a nil entry means a cold start), and record this
	// chain's own solutions for the next neighbor.
	ws := c.ws
	if ws == nil {
		ws = &WarmStart{}
	}
	vA, entryA, err := entryVector(c.alphaA, c.alphaB, fb, c.mba, ws.EntryA)
	if err != nil {
		return nil, nil, err
	}
	c.rec.EntryA = entryA
	vB, entryB, err := entryVector(c.alphaB, c.alphaA, fa, c.mab, ws.EntryB)
	if err != nil {
		return nil, nil, err
	}
	c.rec.EntryB = entryB
	uA, err := fa.Solve(matrix.Ones(c.nA), fit(ws.UA, c.nA), false)
	if err != nil {
		return nil, nil, err
	}
	c.rec.UA = uA
	uB, err := fb.Solve(matrix.Ones(c.nB), fit(ws.UB, c.nB), false)
	if err != nil {
		return nil, nil, err
	}
	c.rec.UB = uB
	outA := make([]float64, n)
	outB := make([]float64, n)
	rA, rB := vA, vB
	if outA[0], err = matrix.Dot(rA, uA); err != nil {
		return nil, nil, err
	}
	if outB[0], err = matrix.Dot(rB, uB); err != nil {
		return nil, nil, err
	}
	if n == 1 {
		return outA, outB, nil
	}
	// Pipeline prologue: the B recursion's first half-step (its fb solve)
	// runs once on its own; from then on every fb solve of the B
	// recursion rides in the same batch as the A recursion's.
	sB, err := fb.Solve(rB, fit(ws.SojournPrologue, c.nB), true)
	if err != nil {
		return nil, nil, err
	}
	c.rec.SojournPrologue = sB
	pB, err := c.mba.VecMul(sB)
	if err != nil {
		return nil, nil, err
	}
	c.rec.StepsA = make([][][]float64, 0, n-1)
	c.rec.StepsB = make([][][]float64, 0, n-1)
	for i := 1; i < n; i++ {
		// One batched solve against I−M_A: rA's step and the B
		// recursion's second half-step.
		xs, err := matrix.SolveBatch(fa, [][]float64{rA, pB}, fitBatch(ws.StepsA, i, 2, c.nA), true)
		if err != nil {
			return nil, nil, err
		}
		c.rec.StepsA = append(c.rec.StepsA, xs)
		qA, err := c.mab.VecMul(xs[0])
		if err != nil {
			return nil, nil, err
		}
		if rB, err = c.mab.VecMul(xs[1]); err != nil {
			return nil, nil, err
		}
		if outB[i], err = matrix.Dot(rB, uB); err != nil {
			return nil, nil, err
		}
		// One batched solve against I−M_B: the A step's second half,
		// prefetching the B recursion's next first half alongside.
		rhs := [][]float64{qA}
		if i+1 < n {
			rhs = append(rhs, rB)
		}
		ys, err := matrix.SolveBatch(fb, rhs, fitBatch(ws.StepsB, i, len(rhs), c.nB), true)
		if err != nil {
			return nil, nil, err
		}
		c.rec.StepsB = append(c.rec.StepsB, ys)
		if rA, err = c.mba.VecMul(ys[0]); err != nil {
			return nil, nil, err
		}
		if outA[i], err = matrix.Dot(rA, uA); err != nil {
			return nil, nil, err
		}
		if i+1 < n {
			if pB, err = c.mba.VecMul(ys[1]); err != nil {
				return nil, nil, err
			}
		}
	}
	return outA, outB, nil
}

// AbsorptionProbabilities returns, for every absorbing class, the
// probability that the chain is eventually absorbed there (relation (9)):
// p(U) = α_T (I − T)⁻¹ R_U 1, reusing the shared visits vector.
func (c *Chain) AbsorptionProbabilities() (map[string]float64, error) {
	if c.nA+c.nB == 0 {
		return nil, fmt.Errorf("markov: no transient states")
	}
	y, err := c.visits()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(c.absorbing))
	for _, name := range c.classes {
		// R_U 1 is the per-transient-row mass flowing into class U.
		p, err := matrix.Dot(y, c.absorbing[name])
		if err != nil {
			return nil, err
		}
		out[name] = p
	}
	return out, nil
}

// HitProbabilityA returns the probability that the chain ever visits
// subset A before absorption (counting a start inside A): the total mass
// of the entry vector v of relation (5).
func (c *Chain) HitProbabilityA() (float64, error) {
	if c.nA == 0 {
		return 0, nil
	}
	var fb matrix.Factorization
	if c.nB > 0 {
		var err error
		if fb, err = c.factB(); err != nil {
			return 0, err
		}
	}
	v, _, err := entryVector(c.alphaA, c.alphaB, fb, c.mba, nil)
	if err != nil {
		return 0, err
	}
	return matrix.VecSum(v), nil
}

// HitProbabilityB is the subset-B counterpart of HitProbabilityA.
func (c *Chain) HitProbabilityB() (float64, error) {
	if c.nB == 0 {
		return 0, nil
	}
	var fa matrix.Factorization
	if c.nA > 0 {
		var err error
		if fa, err = c.factA(); err != nil {
			return 0, err
		}
	}
	w, _, err := entryVector(c.alphaB, c.alphaA, fa, c.mab, nil)
	if err != nil {
		return 0, err
	}
	return matrix.VecSum(w), nil
}

// AbsorbedWithinA returns the probability that the chain reaches one of
// the named absorbing classes along a path that never leaves subset A:
// α_A (I − M_A)⁻¹ R^A 1, with R^A the rows of the class blocks
// corresponding to subset A. Initial mass on subset B contributes
// nothing. Together with HitProbabilityB this separates "dies clean"
// from "was ever dirty": P(ever in B ∪ other classes) = 1 − AbsorbedWithinA(safe classes).
// Each class counts once: an unknown or repeated name is an error.
func (c *Chain) AbsorbedWithinA(classes ...string) (float64, error) {
	for i, name := range classes {
		if _, ok := c.absorbing[name]; !ok {
			return 0, fmt.Errorf("markov: unknown absorbing class %q", name)
		}
		if slices.Contains(classes[:i], name) {
			return 0, fmt.Errorf("markov: absorbing class %q named twice", name)
		}
	}
	if c.nA == 0 {
		return 0, nil
	}
	rhs := make([]float64, c.nA)
	for _, name := range classes {
		for i, s := range c.absorbing[name][:c.nA] {
			rhs[i] += s
		}
	}
	fa, err := c.factA()
	if err != nil {
		return 0, err
	}
	var seed []float64
	if c.ws != nil {
		seed = fit(c.ws.Clean, c.nA)
	}
	z, err := fa.Solve(rhs, seed, false)
	if err != nil {
		return 0, fmt.Errorf("markov: solving (I−M_A)⁻¹: %w", err)
	}
	c.rec.Clean = z
	return matrix.Dot(c.alphaA, z)
}

// ExpectedTotalTransientTime returns E(T_A) + E(T_B): the expected number
// of transitions before absorption.
func (c *Chain) ExpectedTotalTransientTime() (float64, error) {
	a, err := c.ExpectedTotalTimeInA()
	if err != nil {
		return 0, err
	}
	b, err := c.ExpectedTotalTimeInB()
	if err != nil {
		return 0, err
	}
	return a + b, nil
}

// Classes returns the absorbing class names in their fixed order.
func (c *Chain) Classes() []string {
	return append([]string(nil), c.classes...)
}

// TransientSizes returns (|A|, |B|).
func (c *Chain) TransientSizes() (int, int) { return c.nA, c.nB }
