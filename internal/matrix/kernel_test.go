package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file pins the iterative-solver kernels bit for bit against a
// reference: the straightforward loops they replaced (per-entry column
// tests in the Gauss–Seidel sweeps, a matvec into a temporary followed
// by a subtraction pass, separate dot-product passes, freshly allocated
// BiCGSTAB vectors), kept here unchanged apart from reading int column
// indices. Every comparison is on math.Float64bits, so any change to a
// floating-point operation or its order fails.

// refCSR is the reference CSR layout with int column indices.
type refCSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// toRef converts a matrix with its own row-pointer layout, reading the
// storage directly rather than through the kernels under test.
func toRef(m *CSR) *refCSR {
	r := &refCSR{rows: m.rows, cols: m.cols, rowPtr: append([]int{0}, m.rowEnd...), colIdx: make([]int, len(m.colIdx)), vals: m.vals}
	for k, j := range m.colIdx {
		r.colIdx[k] = int(j)
	}
	return r
}

func (m *refCSR) MulVecInto(v, dst []float64) error {
	if len(v) != m.cols {
		return fmt.Errorf("matrix: CSR MulVecInto length %d does not match %d cols", len(v), m.cols)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("matrix: CSR MulVecInto dst length %d does not match %d rows", len(dst), m.rows)
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * v[m.colIdx[k]]
		}
		dst[i] = s
	}
	return nil
}

func (m *refCSR) VecMul(v []float64) ([]float64, error) {
	if len(v) != m.rows {
		return nil, fmt.Errorf("matrix: CSR VecMul length %d does not match %d rows", len(v), m.rows)
	}
	out := make([]float64, m.cols)
	for i, vv := range v {
		if vv == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out[m.colIdx[k]] += vv * m.vals[k]
		}
	}
	return out, nil
}

func refGSSweepsInto(m *refCSR, invDiag, r, z []float64) {
	rowPtr, colIdx, vals := m.rowPtr, m.colIdx, m.vals
	for i := 0; i < m.rows; i++ {
		s := r[i]
		end := rowPtr[i+1]
		for k := rowPtr[i]; k < end; k++ {
			if j := colIdx[k]; j < i {
				s += vals[k] * z[j]
			}
		}
		z[i] = s * invDiag[i]
	}
	for sweep := 1; sweep < bicgstabPrecondSweeps; sweep++ {
		for i := 0; i < m.rows; i++ {
			s := r[i]
			end := rowPtr[i+1]
			for k := rowPtr[i]; k < end; k++ {
				if j := colIdx[k]; j != i {
					s += vals[k] * z[j]
				}
			}
			z[i] = s * invDiag[i]
		}
	}
}

// refILU is the reference ILU(0) layout with int column indices.
type refILU struct {
	n      int
	rowPtr []int
	colIdx []int
	vals   []float64
	diag   []int
}

func refFactorILU0(m *CSR) (*refILU, error) {
	n := m.Rows()
	lu := &refILU{
		n:      n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, 0, m.NNZ()+n),
		vals:   make([]float64, 0, m.NNZ()+n),
		diag:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		placed := false
		m.RowNonZeros(i, func(j int, v float64) {
			if !placed && j >= i {
				placed = true
				lu.diag[i] = len(lu.vals)
				if j == i {
					lu.colIdx = append(lu.colIdx, i)
					lu.vals = append(lu.vals, 1-v)
					return
				}
				lu.colIdx = append(lu.colIdx, i)
				lu.vals = append(lu.vals, 1)
			}
			lu.colIdx = append(lu.colIdx, j)
			lu.vals = append(lu.vals, -v)
		})
		if !placed {
			lu.diag[i] = len(lu.vals)
			lu.colIdx = append(lu.colIdx, i)
			lu.vals = append(lu.vals, 1)
		}
		lu.rowPtr[i+1] = len(lu.vals)
	}
	pos := make([]int, n)
	for i := 0; i < n; i++ {
		start, end := lu.rowPtr[i], lu.rowPtr[i+1]
		for k := start; k < end; k++ {
			pos[lu.colIdx[k]] = k + 1
		}
		for k := start; k < end; k++ {
			kcol := lu.colIdx[k]
			if kcol >= i {
				break
			}
			lik := lu.vals[k] / lu.vals[lu.diag[kcol]]
			lu.vals[k] = lik
			for kk := lu.diag[kcol] + 1; kk < lu.rowPtr[kcol+1]; kk++ {
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

func (lu *refILU) apply(r, z []float64) {
	rowPtr, colIdx, vals, diag := lu.rowPtr, lu.colIdx, lu.vals, lu.diag
	for i := 0; i < lu.n; i++ {
		s := r[i]
		for k := rowPtr[i]; k < diag[i]; k++ {
			s -= vals[k] * z[colIdx[k]]
		}
		z[i] = s
	}
	for i := lu.n - 1; i >= 0; i-- {
		s := z[i]
		for k := diag[i] + 1; k < rowPtr[i+1]; k++ {
			s -= vals[k] * z[colIdx[k]]
		}
		z[i] = s / vals[diag[i]]
	}
}

func (lu *refILU) applyTransposed(r, z []float64) {
	rowPtr, colIdx, vals, diag := lu.rowPtr, lu.colIdx, lu.vals, lu.diag
	copy(z, r)
	for i := 0; i < lu.n; i++ {
		z[i] /= vals[diag[i]]
		wi := z[i]
		for k := diag[i] + 1; k < rowPtr[i+1]; k++ {
			z[colIdx[k]] -= vals[k] * wi
		}
	}
	for i := lu.n - 1; i >= 0; i-- {
		zi := z[i]
		for k := rowPtr[i]; k < diag[i]; k++ {
			z[colIdx[k]] -= vals[k] * zi
		}
	}
}

// refSolve is the reference krylovFactorization.Solve: the operator is a
// matvec into a temporary followed by a subtraction pass.
func refSolve(m *CSR, invDiag []float64, lu *refILU, b, x0 []float64, left bool) ([]float64, int, error) {
	a := m
	if left {
		a = m.Transpose()
	}
	ra := toRef(a)
	n := a.Rows()
	tmp := make([]float64, n)
	matvec := func(x, dst []float64) {
		_ = ra.MulVecInto(x, tmp)
		for i := range dst {
			dst[i] = x[i] - tmp[i]
		}
	}
	method := "bicgstab"
	if lu != nil {
		method = "ilu-bicgstab"
	}
	precond := func(r, z []float64) {
		switch {
		case lu == nil:
			refGSSweepsInto(ra, invDiag, r, z)
		case left:
			lu.applyTransposed(r, z)
		default:
			lu.apply(r, z)
		}
	}
	return refBicgstab(method, matvec, precond, b, x0, DefaultTol, DefaultBiCGSTABMaxIter)
}

func refBicgstab(method string, matvec func(x, dst []float64), precond func(r, z []float64), b, x0 []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := len(b)
	var x []float64
	if x0 != nil {
		x = append([]float64(nil), x0...)
	} else {
		x = append([]float64(nil), b...)
	}
	r := make([]float64, n)
	rhat := make([]float64, n)
	v := make([]float64, n)
	p := make([]float64, n)
	phat := make([]float64, n)
	s := make([]float64, n)
	shat := make([]float64, n)
	t := make([]float64, n)

	breakdowns := 0
	restart := func() float64 {
		matvec(x, r)
		var norm float64
		for i := range r {
			r[i] = b[i] - r[i]
			norm += r[i] * r[i]
		}
		copy(rhat, r)
		copy(p, r)
		for i := range v {
			v[i] = 0
		}
		return norm
	}
	rho := restart()
	if refConverged(matvec, x, b, t, tol) {
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
		matvec(phat, v)
		var rhatV float64
		for i := range v {
			rhatV += rhat[i] * v[i]
		}
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
		matvec(shat, t)
		var tt, ts float64
		for i := range t {
			tt += t[i] * t[i]
			ts += t[i] * s[i]
		}
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
			if refConverged(matvec, x, b, t, tol) {
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
		if target := tol * (maxB + maxX); rNorm <= target*target || iters%16 == 15 {
			if refConverged(matvec, x, b, t, tol) {
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
	if refConverged(matvec, x, b, t, tol) {
		return x, iters, nil
	}
	return nil, iters, &ConvergenceError{Method: method, Iterations: iters, Breakdowns: breakdowns, N: n, Tol: tol}
}

func refConverged(op func(x, dst []float64), x, b, scratch []float64, tol float64) bool {
	op(x, scratch)
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

// oracleBlock builds an n×n substochastic block whose rows cycle through
// the shapes the kernels must handle: empty, diagonal only, off-diagonal
// only (no stored diagonal), and a diagonal among off-diagonal entries.
// Row sums are at most 1−leak.
func oracleBlock(t testing.TB, r *rand.Rand, n int, leak float64) *CSR {
	t.Helper()
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		var cols []int
		var ws []float64
		add := func(j int, w float64) {
			for p, c := range cols {
				if c == j {
					ws[p] = w
					return
				}
			}
			cols, ws = append(cols, j), append(ws, w)
		}
		switch i % 4 {
		case 0: // empty row
		case 1: // diagonal only
			add(i, 1)
		case 2, 3: // off-diagonal entries, plus a diagonal on case 3
			for e := 0; e < 1+r.Intn(6) && n > 1; e++ {
				if j := r.Intn(n); j != i {
					add(j, r.Float64()+0.01)
				}
			}
			if i%4 == 3 {
				add(i, r.Float64()+0.01)
			}
		}
		var sum float64
		for _, w := range ws {
			sum += w
		}
		scale := (1 - leak) * (0.5 + 0.5*r.Float64()) / sum
		for p, j := range cols {
			if err := b.Add(i, j, ws[p]*scale); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

// randomVec returns n values in [−1, 1).
func randomVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// requireBits fails unless got and want are bit-identical.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want bit-identical %v", what, i, got[i], want[i])
		}
	}
}

func requireBit(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, want bit-identical %v", what, got, want)
	}
}

// oracleOrders are the block orders of the oracle tests, 1×1 included.
var oracleOrders = []int{1, 2, 3, 7, 40, 300}

func TestKernelsMatchReference(t *testing.T) {
	for _, n := range oracleOrders {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed*1000 + int64(n)))
			m := oracleBlock(t, r, n, 0.01)
			for _, left := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/seed=%d/left=%v", n, seed, left), func(t *testing.T) {
					a := m
					if left {
						a = m.Transpose()
					}
					ra := toRef(a)
					x, w := randomVec(r, n), randomVec(r, n)

					// Operator and the dot products fused into it.
					tmp := make([]float64, n)
					_ = ra.MulVecInto(x, tmp)
					want := make([]float64, n)
					for i := range want {
						want[i] = x[i] - tmp[i]
					}
					var tt, tw, wt float64
					for i := range want {
						tt += want[i] * want[i]
						tw += want[i] * w[i]
						wt += w[i] * want[i]
					}
					got := make([]float64, n)
					dd, dw := a.iMinusInto(x, got, w)
					requireBits(t, "x − Mx", got, want)
					requireBit(t, "t·t", dd, tt)
					requireBit(t, "t·s", dw, tw)
					requireBit(t, "rhat·v", dw, wt)

					// Plain products.
					gotMv := make([]float64, n)
					if err := a.MulVecInto(x, gotMv); err != nil {
						t.Fatal(err)
					}
					requireBits(t, "MulVecInto", gotMv, tmp)
					gotMv, _ = a.MulVec(x)
					requireBits(t, "MulVec", gotMv, tmp)
					wantVm, _ := ra.VecMul(x)
					gotVm, _ := a.VecMul(x)
					requireBits(t, "VecMul", gotVm, wantVm)

					// Gauss–Seidel preconditioner.
					invDiag := make([]float64, n)
					for i, d := range a.Diagonal() {
						invDiag[i] = 1 / (1 - d)
					}
					wantZ := make([]float64, n)
					refGSSweepsInto(ra, invDiag, x, wantZ)
					gotZ := randomVec(r, n) // stale contents must not matter
					gsSweepsInto(a, newGSSplit(a), invDiag, x, gotZ)
					requireBits(t, "GS sweeps", gotZ, wantZ)

					// ILU(0) factors of M and their two applications.
					lu, err := factorILU0(m)
					if err != nil {
						t.Fatal(err)
					}
					rlu, err := refFactorILU0(m)
					if err != nil {
						t.Fatal(err)
					}
					requireBits(t, "ILU(0) values", lu.vals, rlu.vals)
					for k, j := range lu.colIdx {
						if int(j) != rlu.colIdx[k] {
							t.Fatalf("ILU(0) column %d = %d, want %d", k, j, rlu.colIdx[k])
						}
					}
					gotZ = randomVec(r, n)
					if left {
						rlu.applyTransposed(x, wantZ)
						lu.applyTransposed(x, gotZ)
					} else {
						rlu.apply(x, wantZ)
						lu.apply(x, gotZ)
					}
					requireBits(t, "ILU(0) preconditioner", gotZ, wantZ)
				})
			}
		}
	}
}

func TestSolveMatchesReference(t *testing.T) {
	for _, n := range oracleOrders {
		for _, leak := range []float64{0.2, 1e-3} {
			r := rand.New(rand.NewSource(int64(n)*7 + int64(leak*1e4)))
			m := oracleBlock(t, r, n, leak)
			invDiag := make([]float64, n)
			for i, d := range m.Diagonal() {
				invDiag[i] = 1 / (1 - d)
			}
			rlu, err := refFactorILU0(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []Solver{BiCGSTABSolver{}, ILUSolver{}} {
				f, err := s.Factor(m)
				if err != nil {
					t.Fatal(err)
				}
				var refLU *refILU
				if s.Name() == "ilu" {
					refLU = rlu
				}
				for _, left := range []bool{false, true} {
					for _, warm := range []bool{false, true} {
						t.Run(fmt.Sprintf("n=%d/leak=%g/%s/left=%v/warm=%v", n, leak, s.Name(), left, warm), func(t *testing.T) {
							b := randomVec(r, n)
							var x0 []float64
							if warm {
								x0 = randomVec(r, n)
							}
							want, wantIters, wantErr := refSolve(m, invDiag, refLU, b, x0, left)
							before := f.Stats().Iterations
							got, err := f.Solve(b, x0, left)
							if (err != nil) != (wantErr != nil) {
								t.Fatalf("error %v, reference error %v", err, wantErr)
							}
							requireBits(t, "x", got, want)
							if iters := f.Stats().Iterations - before; iters != int64(wantIters) {
								t.Fatalf("%d iterations, reference %d", iters, wantIters)
							}
						})
					}
				}
			}
		}
	}
}
