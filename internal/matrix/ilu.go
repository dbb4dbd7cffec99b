package matrix

import (
	"fmt"
	"math"
)

// ILU(0)-preconditioned BiCGSTAB backend.
//
// The Gauss–Seidel-preconditioned BiCGSTAB iteration degrades as the
// chain's mixing slows: for merge probability d → 1 the block M develops
// heavy self-loops and near-unit spectral radius, and the Krylov
// iteration count blows up — the bound that capped cluster sizes at
// C=∆≈50. An incomplete LU factorization with zero fill-in (ILU(0)) of
// A = I − M is a far stronger preconditioner for these M-matrix systems:
// it is computed once per block on A's own sparsity pattern (no fill, so
// memory stays O(nnz)), and each application is two sparse triangular
// solves — about the cost of one matvec.
//
// One factorization serves both orientations: right systems precondition
// with z = U⁻¹L⁻¹r, left (row-vector) systems run BiCGSTAB on Mᵀ and
// precondition with z = (LU)⁻ᵀr = L⁻ᵀU⁻ᵀr via transposed triangular
// solves on the same factors — no second factorization, no transposed
// copy of the factors.

// ILUSolver solves (I−M)x = b with BiCGSTAB preconditioned by an ILU(0)
// factorization of I − M. It is the backend of choice for slow-mixing
// blocks (d → 1, very large state spaces); for fast-mixing blocks the
// plain BiCGSTABSolver converges in a handful of iterations anyway and
// skips the factorization cost.
type ILUSolver struct {
	// Tol is the residual tolerance; 0 selects DefaultTol.
	Tol float64
	// MaxIter bounds BiCGSTAB iterations; 0 selects
	// DefaultBiCGSTABMaxIter.
	MaxIter int
}

// Name implements Solver.
func (ILUSolver) Name() string { return "ilu" }

// Factor implements Solver: it assembles A = I − M in CSR form and
// computes its ILU(0) factors eagerly (unlike the lazy dense LU, the
// factorization is cheap — O(Σ_rows nnz(row)²) — and every solve needs
// it). The leading block A of a Partition reuses the leading rows of
// T's factors when T has been factored already (see iluOf).
func (s ILUSolver) Factor(m *CSR) (Factorization, error) {
	if err := checkSquare(m); err != nil {
		return nil, err
	}
	lu, err := iluOf(m)
	if err != nil {
		return nil, err
	}
	return newKrylov(m, nil, lu, s.Tol, s.MaxIter), nil
}

// iluPivotFloor rejects pivots that would turn the triangular solves
// into overflow machines. For the substochastic blocks of an absorbing
// chain the pivots stay near 1−M_ii > 0, so hitting the floor means the
// input was not such a block.
const iluPivotFloor = 1e-300

// iluFactors stores the combined L\U factors of ILU(0) in one CSR
// layout: within each (column-sorted) row [rowStart[i], rowEnd[i]),
// entries left of the diagonal are L (unit diagonal implied), the
// diagonal and entries right of it are U. Factors computed by
// factorILU0 keep one row-pointer array; the factors of a Partition's
// leading block are a view of T's leading rows that ends each row
// before its first trailing column.
type iluFactors struct {
	n                int
	rowStart, rowEnd []int
	colIdx           []int32
	vals             []float64
	diag             []int // index into vals/colIdx of each row's diagonal entry
}

// iluOf returns the ILU(0) factors of I − m. Elimination in row order
// reads only earlier rows, and a leading row's updates to its leading
// columns come only from leading columns, so the factors of I − A are
// the leading rows of T's factors cut at column n, bit for bit: a
// Partition keeps T's factors and lends that view to A.
func iluOf(m *CSR) (*iluFactors, error) {
	p := m.part
	switch {
	case p != nil && p.lu != nil && m.role == roleT:
		return p.lu, nil
	case p != nil && p.lu != nil && m.role == roleA:
		return p.leadingLU(), nil
	}
	lu, err := factorILU0(m)
	if err == nil && p != nil && m.role == roleT {
		p.lu = lu
	}
	return lu, err
}

// factorILU0 assembles A = I − M on M's sparsity pattern (plus a
// guaranteed diagonal) and eliminates in place with the IKJ ordering,
// dropping every update outside the pattern — the defining ILU(0)
// approximation A ≈ LU.
func factorILU0(m *CSR) (*iluFactors, error) {
	n := m.Rows()
	rowPtr := make([]int, n+1)
	lu := &iluFactors{
		n:        n,
		rowStart: rowPtr[:n],
		rowEnd:   rowPtr[1:],
		colIdx:   make([]int32, 0, m.NNZ()+n),
		vals:     make([]float64, 0, m.NNZ()+n),
		diag:     make([]int, n),
	}
	// Assembly: rows of M are column-sorted, so the diagonal of A can be
	// merged in at its sorted position in one pass.
	for i := 0; i < n; i++ {
		placed := false
		m.RowNonZeros(i, func(j int, v float64) {
			if !placed && j >= i {
				placed = true
				lu.diag[i] = len(lu.vals)
				if j == i {
					lu.colIdx = append(lu.colIdx, int32(i))
					lu.vals = append(lu.vals, 1-v)
					return
				}
				lu.colIdx = append(lu.colIdx, int32(i))
				lu.vals = append(lu.vals, 1)
			}
			lu.colIdx = append(lu.colIdx, int32(j))
			lu.vals = append(lu.vals, -v)
		})
		if !placed {
			lu.diag[i] = len(lu.vals)
			lu.colIdx = append(lu.colIdx, int32(i))
			lu.vals = append(lu.vals, 1)
		}
		rowPtr[i+1] = len(lu.vals)
	}
	// IKJ elimination. pos scatters the current row's pattern for O(1)
	// membership tests (entry index + 1; 0 = outside the pattern).
	pos := make([]int, n)
	for i := 0; i < n; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		for k := start; k < end; k++ {
			pos[lu.colIdx[k]] = k + 1
		}
		for k := start; k < end; k++ {
			kcol := int(lu.colIdx[k])
			if kcol >= i {
				break // rows are column-sorted: L entries come first
			}
			lik := lu.vals[k] / lu.vals[lu.diag[kcol]]
			lu.vals[k] = lik
			for kk := lu.diag[kcol] + 1; kk < rowPtr[kcol+1]; kk++ {
				if p := pos[lu.colIdx[kk]]; p != 0 {
					lu.vals[p-1] -= lik * lu.vals[kk]
				}
			}
		}
		if piv := lu.vals[lu.diag[i]]; math.Abs(piv) < iluPivotFloor {
			return nil, fmt.Errorf("%w: ILU(0) pivot %v at row %d", ErrSingular, piv, i)
		}
		for k := start; k < end; k++ {
			pos[lu.colIdx[k]] = 0
		}
	}
	return lu, nil
}

// apply writes z = U⁻¹ L⁻¹ r: forward substitution through the unit
// lower factor, then backward substitution through the upper factor.
func (lu *iluFactors) apply(r, z []float64) {
	rowStart, rowEnd, colIdx, vals, diag := lu.rowStart, lu.rowEnd, lu.colIdx, lu.vals, lu.diag
	for i, d := range diag {
		cols, ls := entries(colIdx, vals, rowStart[i], d)
		s := r[i]
		for k, a := range ls {
			s -= a * z[cols[k]]
		}
		z[i] = s
	}
	for i := lu.n - 1; i >= 0; i-- {
		d := diag[i]
		cols, us := entries(colIdx, vals, d+1, rowEnd[i])
		s := z[i]
		for k, a := range us {
			s -= a * z[cols[k]]
		}
		z[i] = s / vals[d]
	}
}

// applyTransposed writes z = (LU)⁻ᵀ r = L⁻ᵀ U⁻ᵀ r. The factors are
// stored by rows of LU, so both transposed triangular solves run in
// scatter form: Uᵀw = r ascending (each finished w_i updates the
// pending entries below it), then Lᵀz = w descending with the implied
// unit diagonal.
func (lu *iluFactors) applyTransposed(r, z []float64) {
	rowStart, rowEnd, colIdx, vals, diag := lu.rowStart, lu.rowEnd, lu.colIdx, lu.vals, lu.diag
	copy(z, r)
	for i, d := range diag {
		z[i] /= vals[d]
		wi := z[i]
		cols, us := entries(colIdx, vals, d+1, rowEnd[i])
		for k, a := range us {
			z[cols[k]] -= a * wi
		}
	}
	for i := lu.n - 1; i >= 0; i-- {
		zi := z[i]
		cols, ls := entries(colIdx, vals, rowStart[i], diag[i])
		for k, a := range ls {
			z[cols[k]] -= a * zi
		}
	}
}
