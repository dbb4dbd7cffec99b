package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// This file is the pluggable linear-solver layer of the analytic pipeline.
// Every closed-form relation of the absorbing-chain analytics reduces to
// systems with the matrix A = I − M, where M is a substochastic CSR block
// of the transition matrix (spectral radius < 1). A Solver prepares a
// Factorization of I − M once; its one Solve method then answers right
// systems (I−M)x = b and left (row-vector) systems x(I−M) = b, so a
// single prepared block serves several relations.
//
// Three families are provided:
//
//   - DenseSolver: the exact LU path. It densifies I − M and factors it
//     with partial pivoting — O(n³) but backward stable; the fallback and
//     cross-check reference, refused above MaxDenseOrder.
//   - Iterative solvers (BiCGSTABSolver, ILUSolver): one preconditioned
//     BiCGSTAB iteration that never materializes a dense matrix, making
//     state spaces with hundreds of thousands of transient states
//     affordable. BiCGSTABSolver preconditions with fixed Gauss–Seidel
//     sweeps; ILUSolver preconditions with an ILU(0) factorization,
//     which keeps the iteration count flat as the chain's mixing slows
//     (d → 1).
//   - AutoSolver composes them: probe the block's mixing speed, iterate
//     sparsely with the matching preconditioner, densify only if the
//     iteration fails to converge.
//
// Iterative factorizations accept a warm start: an initial guess x0 from
// a nearby system — the previous cell of a parameter sweep, the previous
// step of a sojourn recursion — cuts the iteration count without
// changing the convergence criterion.

// ErrNoConvergence is returned when an iterative solve fails to reach its
// residual tolerance within its iteration budget.
var ErrNoConvergence = errors.New("matrix: iterative solve did not converge")

// ErrTooLarge is returned when the dense backend is asked to factor a
// block of order above MaxDenseOrder.
var ErrTooLarge = errors.New("matrix: system too large for the dense backend")

// Default solver controls.
const (
	// DefaultTol is the default residual tolerance of the iterative
	// solvers: a solve x is accepted when
	// ‖b − Ax‖∞ ≤ tol · (‖b‖∞ + ‖x‖∞).
	DefaultTol = 1e-12
	// DefaultBiCGSTABMaxIter bounds BiCGSTAB iterations.
	DefaultBiCGSTABMaxIter = 100_000
	// MaxDenseOrder bounds the order the dense backend densifies: I − M
	// and its LU factors take 2·n²·8 bytes, 256 MB at this order.
	MaxDenseOrder = 4096
)

// ConvergenceError is the detailed failure of an iterative solve. It
// wraps ErrNoConvergence (errors.Is works) and carries the diagnostics
// the auto backend's fallback accounting reports: how much budget was
// burned and whether the iteration suffered numerical breakdowns (the
// two point at different remedies — a bigger budget / better
// preconditioner versus a fundamentally ill-suited Krylov method).
type ConvergenceError struct {
	// Method names the iteration: "bicgstab" (Gauss–Seidel
	// preconditioned) or "ilu-bicgstab".
	Method string
	// Iterations is the number of iterations performed before giving up.
	Iterations int
	// Breakdowns counts near-breakdown restarts (vanishing ρ or ω) the
	// iteration hit; 0 means the budget simply ran out.
	Breakdowns int
	// N and Tol describe the attempted system.
	N   int
	Tol float64
}

func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("%v: %s after %d iterations (n=%d, tol=%g)",
		ErrNoConvergence, e.Method, e.Iterations, e.N, e.Tol)
	if e.Breakdowns > 0 {
		msg += fmt.Sprintf(", %d breakdown restarts", e.Breakdowns)
	}
	return msg
}

func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// FallbackReason classifies why the auto backend abandoned the sparse
// path for a block.
type FallbackReason string

const (
	// FallbackNone: the sparse path never failed.
	FallbackNone FallbackReason = ""
	// FallbackIterationCap: the iteration ran out of budget.
	FallbackIterationCap FallbackReason = "iteration_cap"
	// FallbackBreakdown: the iteration hit numerical breakdowns before
	// running out of budget.
	FallbackBreakdown FallbackReason = "breakdown"
)

// classifyFallback maps an iterative-solve error to its FallbackReason.
func classifyFallback(err error) FallbackReason {
	var ce *ConvergenceError
	if errors.As(err, &ce) && ce.Breakdowns > 0 {
		return FallbackBreakdown
	}
	return FallbackIterationCap
}

// SolveStats summarizes the work a Factorization has performed so far.
// Counters are cumulative across all solves on the factorization; like
// the Factorization itself they are not safe for concurrent use.
type SolveStats struct {
	// Backend names the backend that served the solves ("dense",
	// "bicgstab", "ilu"). For the auto backend it names the chosen
	// sparse backend even after a fallback (Fallbacks tells the rest).
	Backend string
	// Iterations is the cumulative Krylov iteration count, 0 for dense.
	Iterations int64
	// Fallbacks counts solves answered by the auto backend's dense
	// fallback instead of the sparse path.
	Fallbacks int64
	// FallbackReason records why the block first fell back.
	FallbackReason FallbackReason
}

// Plus merges two stats (summing counters, keeping the first non-empty
// backend and reason), for aggregation across a chain's factorizations.
func (s SolveStats) Plus(o SolveStats) SolveStats {
	out := s
	out.Iterations += o.Iterations
	out.Fallbacks += o.Fallbacks
	if out.Backend == "" {
		out.Backend = o.Backend
	}
	if out.FallbackReason == FallbackNone {
		out.FallbackReason = o.FallbackReason
	}
	return out
}

// Factorization is a prepared solving context for A = I − M.
// Implementations are not safe for concurrent use.
type Factorization interface {
	// Solve solves (I − M) x = b, or with left set the row-vector system
	// x (I − M) = b, i.e. (I − M)ᵀ xᵀ = bᵀ. x0 warm-starts the
	// iteration (same convergence criterion, fewer iterations when x0 is
	// close); nil is the cold start, and a non-nil x0 must match the
	// system order. The dense backend checks the guess, then ignores it.
	// x0 is read, never written.
	Solve(b, x0 []float64, left bool) ([]float64, error)
	// Stats reports the cumulative work of all solves so far.
	Stats() SolveStats
}

// Solver prepares factorizations of I − M for square substochastic CSR
// blocks M.
type Solver interface {
	// Name identifies the backend ("dense", "bicgstab", ...).
	Name() string
	// Factor prepares I − m for repeated solves.
	Factor(m *CSR) (Factorization, error)
}

// checkSquare rejects non-square blocks before any backend prepares them.
func checkSquare(m *CSR) error {
	if m.Rows() != m.Cols() {
		return fmt.Errorf("matrix: Factor requires a square matrix, got %dx%d", m.Rows(), m.Cols())
	}
	return nil
}

// checkGuess validates a warm-start guess against the system order.
func checkGuess(x0 []float64, n int) error {
	if x0 != nil && len(x0) != n {
		return fmt.Errorf("matrix: warm-start guess length %d does not match order %d", len(x0), n)
	}
	return nil
}

// SolveBatch solves one system against f per right-hand side bs[i],
// warm-started from x0s[i]; x0s may be nil (all cold), else it must have
// one entry per right-hand side, and entries may be nil. Column i gets
// exactly the arithmetic of f.Solve(bs[i], x0s[i], left), so batched and
// looped solves agree bit-for-bit, while per-block setup (LU factors, a
// lazily built sparse transpose) is paid once, by the first column.
func SolveBatch(f Factorization, bs, x0s [][]float64, left bool) ([][]float64, error) {
	if x0s != nil && len(x0s) != len(bs) {
		return nil, fmt.Errorf("matrix: batched warm start has %d guesses for %d right-hand sides", len(x0s), len(bs))
	}
	out := make([][]float64, len(bs))
	for i, b := range bs {
		var x0 []float64
		if x0s != nil {
			x0 = x0s[i]
		}
		x, err := f.Solve(b, x0, left)
		if err != nil {
			return nil, fmt.Errorf("matrix: batched solve, rhs %d of %d: %w", i, len(bs), err)
		}
		out[i] = x
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Dense LU backend.

// DenseSolver densifies I − M and solves with LU partial pivoting: the
// exact reference backend. It refuses blocks of order above
// MaxDenseOrder with ErrTooLarge.
type DenseSolver struct{}

// Name implements Solver.
func (DenseSolver) Name() string { return "dense" }

// Factor implements Solver.
func (DenseSolver) Factor(m *CSR) (Factorization, error) {
	if err := checkSquare(m); err != nil {
		return nil, err
	}
	// The order is compared before n² is formed, so the check cannot
	// wrap where int is 32 bits.
	if m.Rows() > MaxDenseOrder {
		return nil, fmt.Errorf("%w: order %d exceeds %d", ErrTooLarge, m.Rows(), MaxDenseOrder)
	}
	a := Identity(m.Rows())
	for i := 0; i < m.Rows(); i++ {
		m.RowNonZeros(i, func(j int, v float64) {
			a.Add(i, j, -v)
		})
	}
	return &denseFactorization{a: a}, nil
}

type denseFactorization struct {
	a *Dense
	// One lazy LU serves both orientations: left systems solve through
	// SolveVecTransposed on the same P A = L U factors, so no block is
	// ever factored twice and a relation that never solves an
	// orientation never pays for it.
	lu *LU
}

// Solve validates and then discards the guess: direct solves have no
// iteration to shorten.
func (f *denseFactorization) Solve(b, x0 []float64, left bool) ([]float64, error) {
	if err := checkGuess(x0, f.a.Rows()); err != nil {
		return nil, err
	}
	if f.lu == nil {
		lu, err := FactorLU(f.a)
		if err != nil {
			return nil, err
		}
		f.lu = lu
	}
	if left {
		return f.lu.SolveVecTransposed(b)
	}
	return f.lu.SolveVec(b)
}

func (f *denseFactorization) Stats() SolveStats { return SolveStats{Backend: "dense"} }

// ---------------------------------------------------------------------------
// Preconditioned BiCGSTAB backends.

// BiCGSTABSolver solves (I−M)x = b with the biconjugate gradient
// stabilized method of van der Vorst: a Krylov iteration for
// non-symmetric systems that typically converges in far fewer matrix
// passes than stationary sweeps. The iteration is preconditioned with a
// fixed number of forward Gauss–Seidel sweeps (a linear operator, since
// every sweep starts from zero) applied to the Krylov directions — the
// standard right-preconditioned formulation, whose residual is the true
// residual of the unpreconditioned system. GS sweeps are a natural
// preconditioner for these M-matrix systems and flatten the heavy
// self-loops that slow convergence as d → 1; for severely slow-mixing
// blocks, ILUSolver swaps in a stronger ILU(0) preconditioner around the
// same iteration. Left systems run on the (sparse, lazily built)
// transpose; nothing is ever densified.
type BiCGSTABSolver struct {
	// Tol is the residual tolerance; 0 selects DefaultTol.
	Tol float64
	// MaxIter bounds iterations; 0 selects DefaultBiCGSTABMaxIter.
	MaxIter int
}

// Name implements Solver.
func (BiCGSTABSolver) Name() string { return "bicgstab" }

// Factor implements Solver.
func (s BiCGSTABSolver) Factor(m *CSR) (Factorization, error) {
	if err := checkSquare(m); err != nil {
		return nil, err
	}
	diag := m.Diagonal()
	invDiag := make([]float64, len(diag))
	for i, d := range diag {
		if 1-d <= 0 {
			return nil, fmt.Errorf("%w: diagonal of I−M is %v at row %d", ErrSingular, 1-d, i)
		}
		invDiag[i] = 1 / (1 - d)
	}
	return newKrylov(m, invDiag, nil, s.Tol, s.MaxIter), nil
}

// bicgstabPrecondSweeps is the fixed number of forward Gauss–Seidel
// sweeps per preconditioner application. Two sweeps roughly halve the
// Krylov iteration count again relative to one at ~1 extra matvec of
// cost each.
const bicgstabPrecondSweeps = 2

// gsSplit locates, in every row i of an iteration matrix, the strictly
// lower entries [rowStart[i], lowEnd[i]) and the strictly upper entries
// [upStart[i], rowEnd[i]); a stored diagonal lies between them. Rows
// are column-sorted, so the sweeps below range over these runs instead
// of testing every entry's column against i.
type gsSplit struct {
	lowEnd, upStart []int
}

func newGSSplit(m *CSR) *gsSplit {
	sp := &gsSplit{lowEnd: make([]int, m.rows), upStart: make([]int, m.rows)}
	diag := m.colBase // stored column of row i's diagonal, i + colBase
	for i, k := range m.rowStart {
		end := m.rowEnd[i]
		for k < end && m.colIdx[k] < diag {
			k++
		}
		sp.lowEnd[i] = k
		if k < end && m.colIdx[k] == diag {
			k++
		}
		sp.upStart[i] = k
		diag++
	}
	return sp
}

// gsSweepsInto writes into z the result of bicgstabPrecondSweeps forward
// Gauss–Seidel sweeps for (I−M)z = r starting from z = 0: the
// preconditioner application z = P⁻¹r. The first sweep reads only the
// strictly lower entries, since z is still zero above the diagonal; each
// row sums its entries in ascending column order.
func gsSweepsInto(m *CSR, sp *gsSplit, invDiag, r, z []float64) {
	rowStart, rowEnd, colIdx, vals, base := m.rowStart, m.rowEnd, m.colIdx, m.vals, m.colBase
	for i, lowEnd := range sp.lowEnd {
		cols, lower := entries(colIdx, vals, rowStart[i], lowEnd)
		s := r[i]
		for k, a := range lower {
			s += a * z[cols[k]-base]
		}
		z[i] = s * invDiag[i]
	}
	for sweep := 1; sweep < bicgstabPrecondSweeps; sweep++ {
		for i, lowEnd := range sp.lowEnd {
			s := r[i]
			cols, lower := entries(colIdx, vals, rowStart[i], lowEnd)
			for k, a := range lower {
				s += a * z[cols[k]-base]
			}
			cols, upper := entries(colIdx, vals, sp.upStart[i], rowEnd[i])
			for k, a := range upper {
				s += a * z[cols[k]-base]
			}
			z[i] = s * invDiag[i]
		}
	}
}

// krylovFactorization is the factorization of both iterative backends:
// preconditioned BiCGSTAB on I − M for right systems and on I − Mᵀ for
// left ones. The backends differ only in the preconditioner they put
// here: Gauss–Seidel sweeps on M or Mᵀ (invDiag, split), or the ILU(0)
// factors applied directly or transposed (lu).
type krylovFactorization struct {
	m       *CSR
	mT      *CSR        // transpose for left systems, fetched on first use
	invDiag []float64   // 1/(1−M_ii), shared by M and Mᵀ; nil with lu
	split   [2]*gsSplit // GS row splits of M and Mᵀ, built on first use
	lu      *iluFactors // ILU(0) factors of I − M; nil for GS sweeps
	tol     float64
	maxIter int
	iters   int64
}

// newKrylov applies the default tolerance and iteration budget.
func newKrylov(m *CSR, invDiag []float64, lu *iluFactors, tol float64, maxIter int) *krylovFactorization {
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = DefaultBiCGSTABMaxIter
	}
	return &krylovFactorization{m: m, invDiag: invDiag, lu: lu, tol: tol, maxIter: maxIter}
}

func (f *krylovFactorization) Solve(b, x0 []float64, left bool) ([]float64, error) {
	a, side := f.m, 0
	if left {
		if f.mT == nil {
			f.mT = f.m.transposed()
		}
		a, side = f.mT, 1
	}
	n := a.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("matrix: solve rhs length %d does not match order %d", len(b), n)
	}
	if err := checkGuess(x0, n); err != nil {
		return nil, err
	}
	method := "ilu-bicgstab"
	var precond func(r, z []float64)
	switch {
	case f.lu == nil:
		method = "bicgstab"
		if f.split[side] == nil {
			f.split[side] = newGSSplit(a)
		}
		sp := f.split[side]
		precond = func(r, z []float64) { gsSweepsInto(a, sp, f.invDiag, r, z) }
	case left:
		precond = f.lu.applyTransposed
	default:
		precond = f.lu.apply
	}
	x, iters, err := bicgstab(method, a.iMinusInto, precond, b, x0, f.tol, f.maxIter)
	f.iters += int64(iters)
	return x, err
}

func (f *krylovFactorization) Stats() SolveStats {
	if f.lu != nil {
		return SolveStats{Backend: "ilu", Iterations: f.iters}
	}
	return SolveStats{Backend: "bicgstab", Iterations: f.iters}
}

// operator applies the iteration's system matrix, dst = x − A·x, and
// returns the dot products Σ dst_i² and Σ dst_i·w_i of its output (see
// CSR.iMinusInto).
type operator func(x, dst, w []float64) (dd, dw float64)

// bicgstabVectors is the number of work vectors one BiCGSTAB solve uses.
const bicgstabVectors = 8

// workPool recycles BiCGSTAB work buffers (*[]float64 of
// bicgstabVectors·n floats) across solves, so a solve allocates only
// its solution vector and an idle factorization pins no scratch.
var workPool sync.Pool

// bicgstab runs the preconditioned BiCGSTAB iteration of van der Vorst
// for op(x) = b with preconditioner applications z ≈ A⁻¹r supplied by
// precond, warm-started from x0 (nil starts from b). The stopping rule
// is the true residual ‖b − Ax‖∞ ≤ tol·(‖b‖∞ + ‖x‖∞). Near-breakdowns
// (vanishing ρ or ω) restart the iteration from the current iterate.
// The iteration count is returned for work accounting; a failure is a
// ConvergenceError naming method, with the breakdown count for fallback
// diagnostics.
func bicgstab(method string, op operator, precond func(r, z []float64), b, x0 []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := len(b)
	var x []float64
	if x0 != nil {
		x = append([]float64(nil), x0...)
	} else {
		x = append([]float64(nil), b...)
	}
	work, _ := workPool.Get().(*[]float64)
	if work == nil || cap(*work) < bicgstabVectors*n {
		buf := make([]float64, bicgstabVectors*n)
		work = &buf
	}
	defer workPool.Put(work)
	vec := func(i int) []float64 { return (*work)[i*n : (i+1)*n : (i+1)*n] }
	r, rhat, v, p, phat, s, shat, t := vec(0), vec(1), vec(2), vec(3), vec(4), vec(5), vec(6), vec(7)

	breakdowns := 0
	restart := func() float64 {
		op(x, r, r)
		var norm float64
		for i := range r {
			r[i] = b[i] - r[i]
			norm += r[i] * r[i]
		}
		copy(rhat, r)
		copy(p, r)
		clear(v)
		return norm
	}
	rho := restart()
	if converged(op, x, b, t, tol) {
		return x, 0, nil
	}
	var maxB float64
	for i := range b {
		if a := math.Abs(b[i]); a > maxB {
			maxB = a
		}
	}
	const breakdown = 1e-280
	iters := 0
	for ; iters < maxIter; iters++ {
		precond(p, phat)
		_, rhatV := op(phat, v, rhat)
		if math.Abs(rhatV) < breakdown {
			breakdowns++
			rho = restart()
			continue
		}
		alpha := rho / rhatV
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		precond(s, shat)
		tt, ts := op(shat, t, s)
		var omega float64
		if tt > breakdown {
			omega = ts / tt
		}
		var maxX float64
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
			if a := math.Abs(x[i]); a > maxX {
				maxX = a
			}
		}
		if omega == 0 || math.Abs(omega) < breakdown {
			if converged(op, x, b, t, tol) {
				return x, iters + 1, nil
			}
			breakdowns++
			rho = restart()
			continue
		}
		var rhoNext, rNorm float64
		for i := range r {
			r[i] = s[i] - omega*t[i]
			rhoNext += rhat[i] * r[i]
			rNorm += r[i] * r[i]
		}
		// Cheap scale-aware 2-norm gate (‖r‖∞ ≤ ‖r‖₂) before paying one
		// extra matvec for the true-residual ∞-norm check; the %16
		// backstop catches recursive-residual drift.
		if target := tol * (maxB + maxX); rNorm <= target*target || iters%16 == 15 {
			if converged(op, x, b, t, tol) {
				return x, iters + 1, nil
			}
		}
		if math.Abs(rhoNext) < breakdown {
			breakdowns++
			rho = restart()
			continue
		}
		beta := (rhoNext / rho) * (alpha / omega)
		rho = rhoNext
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
	}
	if converged(op, x, b, t, tol) {
		return x, iters, nil
	}
	return nil, iters, &ConvergenceError{Method: method, Iterations: iters, Breakdowns: breakdowns, N: n, Tol: tol}
}

// converged checks the true residual ‖b − op(x)‖∞ ≤ tol·(‖b‖∞ + ‖x‖∞),
// using scratch as workspace.
func converged(op operator, x, b, scratch []float64, tol float64) bool {
	op(x, scratch, scratch)
	var res, maxB, maxX float64
	for i := range scratch {
		if r := math.Abs(b[i] - scratch[i]); r > res {
			res = r
		}
		if a := math.Abs(b[i]); a > maxB {
			maxB = a
		}
		if a := math.Abs(x[i]); a > maxX {
			maxX = a
		}
	}
	return res <= tol*(maxB+maxX+1e-300)
}

// ---------------------------------------------------------------------------
// Auto backend: sparse first, dense fallback.

// Mixing-heuristic controls for AutoSolver's preconditioner choice.
const (
	// MixingProbeSteps is the number of power-iteration matvecs the
	// heuristic spends estimating a block's spectral radius.
	MixingProbeSteps = 16
	// DefaultSlowMixThreshold is the estimated spectral radius above
	// which a block counts as slow-mixing and gets the ILU(0)
	// preconditioner instead of Gauss–Seidel sweeps.
	DefaultSlowMixThreshold = 0.995
)

// MixingEstimate estimates the spectral radius of the substochastic
// block M with `steps` power-iteration matvecs on the all-ones vector:
// (Mᵏ1)_i is the probability of surviving k steps from state i, so the
// k-th root of its maximum estimates the slowest decay rate — the
// quantity that governs how hard (I−M)x = b is for weakly
// preconditioned Krylov iterations. Cost: steps sparse matvecs.
func MixingEstimate(m *CSR, steps int) float64 {
	n := m.Rows()
	if n == 0 || n != m.Cols() || steps <= 0 {
		return 0
	}
	v := Ones(n)
	w := make([]float64, n)
	for s := 0; s < steps; s++ {
		_ = m.MulVecInto(v, w)
		v, w = w, v
	}
	var max float64
	for _, a := range v {
		if a > max {
			max = a
		}
	}
	return math.Pow(max, 1/float64(steps))
}

// AutoSolver iterates sparsely and falls back to the dense LU path only
// when the iteration fails to converge — robustness of the dense path at
// sparse cost on the common path. With no explicit Sparse backend it
// probes each block's mixing speed (MixingEstimate) and picks the
// preconditioner accordingly: Gauss–Seidel-preconditioned BiCGSTAB for
// fast-mixing blocks, ILU(0)-preconditioned for slow-mixing ones. A
// block above MaxDenseOrder gets no fallback: the solve fails with both
// the iteration's ConvergenceError and ErrTooLarge.
type AutoSolver struct {
	// Sparse is the iterative backend; nil selects the mixing heuristic
	// between BiCGSTABSolver and ILUSolver per block.
	Sparse Solver
	// Tol and MaxIter parameterize the heuristically chosen backend;
	// ignored when Sparse is set explicitly.
	Tol     float64
	MaxIter int
}

// Name implements Solver.
func (AutoSolver) Name() string { return "auto" }

// Factor implements Solver.
func (s AutoSolver) Factor(m *CSR) (Factorization, error) {
	if err := checkSquare(m); err != nil {
		return nil, err
	}
	sparse := s.Sparse
	if sparse == nil {
		if MixingEstimate(m, MixingProbeSteps) >= DefaultSlowMixThreshold {
			sparse = ILUSolver{Tol: s.Tol, MaxIter: s.MaxIter}
		} else {
			sparse = BiCGSTABSolver{Tol: s.Tol, MaxIter: s.MaxIter}
		}
	}
	f, err := sparse.Factor(m)
	if err != nil {
		return nil, err
	}
	return &autoFactorization{m: m, sparse: f}, nil
}

type autoFactorization struct {
	m      *CSR
	sparse Factorization
	// dense is built on the first non-convergence and then answers every
	// later solve: they skip the doomed full-budget iteration and go
	// straight to the dense factors. reason records why the block fell
	// back; fallbacks counts the solves the dense path answered.
	dense     Factorization
	reason    FallbackReason
	fallbacks int64
}

func (f *autoFactorization) Solve(b, x0 []float64, left bool) ([]float64, error) {
	if f.dense == nil {
		x, err := f.sparse.Solve(b, x0, left)
		if !errors.Is(err, ErrNoConvergence) {
			return x, err
		}
		f.reason = classifyFallback(err)
		d, derr := DenseSolver{}.Factor(f.m)
		if derr != nil {
			return nil, fmt.Errorf("matrix: auto fallback refused: %w; %w", err, derr)
		}
		f.dense = d
	}
	f.fallbacks++
	return f.dense.Solve(b, nil, left)
}

func (f *autoFactorization) Stats() SolveStats {
	st := f.sparse.Stats()
	st.Fallbacks = f.fallbacks
	st.FallbackReason = f.reason
	return st
}

// ---------------------------------------------------------------------------
// Configuration.

// SolverConfig selects and parameterizes a Solver from flag-friendly
// values. The zero value selects the exact dense LU backend.
type SolverConfig struct {
	// Kind names the backend: "dense" (or ""), "sparse"/"bicgstab",
	// "ilu", or "auto".
	Kind string
	// Tol is the iterative residual tolerance; 0 selects DefaultTol.
	// Ignored by the dense backend.
	Tol float64
	// MaxIter bounds iterative work; 0 selects the backend default.
	// Ignored by the dense backend.
	MaxIter int
}

// SolverKinds lists the accepted SolverConfig.Kind values.
func SolverKinds() []string {
	return []string{"dense", "sparse", "bicgstab", "ilu", "auto"}
}

// Build resolves the configuration into a Solver.
func (c SolverConfig) Build() (Solver, error) {
	switch c.Kind {
	case "", "dense":
		return DenseSolver{}, nil
	case "sparse", "bicgstab":
		return BiCGSTABSolver{Tol: c.Tol, MaxIter: c.MaxIter}, nil
	case "ilu":
		return ILUSolver{Tol: c.Tol, MaxIter: c.MaxIter}, nil
	case "auto":
		return AutoSolver{Tol: c.Tol, MaxIter: c.MaxIter}, nil
	default:
		return nil, fmt.Errorf("matrix: unknown solver kind %q (want one of %s)",
			c.Kind, strings.Join(SolverKinds(), ", "))
	}
}
