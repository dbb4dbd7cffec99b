package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file pins the views of a Partition bit for bit against the copies
// they replaced: every block is compared with the SubCSR extraction of
// the same rows and columns of the full matrix, as a chain used to store
// it, run through the reference kernels of kernel_test.go.

// refSubCSR is the extraction the views replaced, kept as it was:
// append-grown output, a stable in-row sort after a reordered column
// selection.
func refSubCSR(m *CSR, rowIdx, colIdx []int) (*CSR, error) {
	colPos := make([]int32, m.cols)
	for i := range colPos {
		colPos[i] = -1
	}
	ascending := true
	for p, c := range colIdx {
		if c < 0 || c >= m.cols {
			return nil, fmt.Errorf("matrix: SubCSR col index %d out of bounds for %d cols", c, m.cols)
		}
		if p > 0 && colIdx[p-1] >= c {
			ascending = false
		}
		colPos[c] = int32(p)
	}
	rowPtr := make([]int, len(rowIdx)+1)
	var outCols []int32
	var outVals []float64
	for p, r := range rowIdx {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("matrix: SubCSR row index %d out of bounds for %d rows", r, m.rows)
		}
		rowStart := len(outVals)
		m.RowNonZeros(r, func(j int, v float64) {
			if q := colPos[j]; q >= 0 {
				outCols = append(outCols, q)
				outVals = append(outVals, v)
			}
		})
		if !ascending {
			sortRowStable(outCols[rowStart:], outVals[rowStart:])
		}
		rowPtr[p+1] = len(outVals)
	}
	return newCSR(len(rowIdx), len(colIdx), rowPtr, outCols, outVals), nil
}

// requireSameStorage fails unless a and b store the same columns and
// bit-identical values in every row.
func requireSameStorage(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: %dx%d with %d entries, want %dx%d with %d", what,
			got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for i := 0; i < got.Rows(); i++ {
		var gc, wc []int
		var gv, wv []float64
		got.RowNonZeros(i, func(j int, v float64) { gc, gv = append(gc, j), append(gv, v) })
		want.RowNonZeros(i, func(j int, v float64) { wc, wv = append(wc, j), append(wv, v) })
		if fmt.Sprint(gc) != fmt.Sprint(wc) {
			t.Fatalf("%s row %d: columns %v, want %v", what, i, gc, wc)
		}
		requireBits(t, fmt.Sprintf("%s row %d", what, i), gv, wv)
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: Equal reports a difference", what)
	}
}

// splitCase is a state set Ω (the rows and columns of an oracle matrix)
// partitioned into subsets A and B; states in neither are absorbing.
type splitCase struct {
	name string
	a, b []int
}

// splitCases returns partitions of n states: A and B interleaved in Ω
// and listed out of order, each of them empty, and contiguous halves.
func splitCases(r *rand.Rand, n int) []splitCase {
	var a, b []int
	for _, i := range r.Perm(n) {
		switch i % 5 {
		case 0, 2:
			a = append(a, i)
		case 1, 3:
			b = append(b, i)
		} // i%5 == 4: absorbing
	}
	var lo, hi []int
	for i := 0; i < n; i++ {
		if i < n/2 {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	return []splitCase{
		{"interleaved", a, b},
		{"emptyA", nil, append(a, b...)},
		{"emptyB", append(b, a...), nil},
		{"halves", lo, hi},
	}
}

// viewCase is one block of a Partition and the copy it replaced.
type viewCase struct {
	name       string
	view, copy *CSR
}

// partitionCases builds T over A ∪ B of full, partitions it, and pairs
// each block with its SubCSR copy from full.
func partitionCases(t *testing.T, full *CSR, sc splitCase) (*Partition, []viewCase) {
	t.Helper()
	transient := append(append([]int(nil), sc.a...), sc.b...)
	tt, err := full.SubCSR(transient, transient)
	if err != nil {
		t.Fatal(err)
	}
	refT, err := refSubCSR(full, transient, transient)
	if err != nil {
		t.Fatal(err)
	}
	requireSameStorage(t, "SubCSR T", tt, refT)
	p, err := NewPartition(tt, len(sc.a))
	if err != nil {
		t.Fatal(err)
	}
	sub := func(rows, cols []int) *CSR {
		c, err := refSubCSR(full, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return p, []viewCase{
		{"T", p.T, refT},
		{"A", p.A, sub(sc.a, sc.a)},
		{"AB", p.AB, sub(sc.a, sc.b)},
		{"BA", p.BA, sub(sc.b, sc.a)},
		{"B", p.B, sub(sc.b, sc.b)},
	}
}

func TestPartitionViewsMatchCopies(t *testing.T) {
	for _, n := range []int{1, 2, 7, 40, 300} {
		for seed := int64(1); seed <= 2; seed++ {
			r := rand.New(rand.NewSource(seed*100 + int64(n)))
			full := oracleBlock(t, r, n, 0.01)
			for _, sc := range splitCases(r, n) {
				p, cases := partitionCases(t, full, sc)
				for _, vc := range cases {
					t.Run(fmt.Sprintf("n=%d/seed=%d/%s/%s", n, seed, sc.name, vc.name), func(t *testing.T) {
						checkViewKernels(t, r, vc.view, vc.copy)
						if vc.view.Rows() != vc.view.Cols() {
							return
						}
						checkSquareViewKernels(t, r, vc.view, vc.copy, false)
						// The shared transpose of T, A and B.
						if vc.view.part != nil {
							checkSquareViewKernels(t, r, vc.view.transposed(), vc.copy.Transpose(), true)
						}
					})
				}
				if p.T.part == nil || p.A.part == nil || p.B.part == nil {
					t.Fatal("diagonal blocks are not linked to their partition")
				}
			}
		}
	}
}

// checkViewKernels compares the rectangular kernels of a view and its copy.
func checkViewKernels(t *testing.T, r *rand.Rand, view, cp *CSR) {
	t.Helper()
	requireSameStorage(t, "view", view, cp)
	rc := toRef(cp)
	x, y := randomVec(r, view.Cols()), randomVec(r, view.Rows())
	want := make([]float64, view.Rows())
	if err := rc.MulVecInto(x, want); err != nil {
		t.Fatal(err)
	}
	got := randomVec(r, view.Rows())
	if err := view.MulVecInto(x, got); err != nil {
		t.Fatal(err)
	}
	requireBits(t, "MulVecInto", got, want)
	wantVm, err := rc.VecMul(y)
	if err != nil {
		t.Fatal(err)
	}
	gotVm := randomVec(r, view.Cols())
	if err := view.VecMulInto(y, gotVm); err != nil {
		t.Fatal(err)
	}
	requireBits(t, "VecMulInto", gotVm, wantVm)
	requireBits(t, "RowSums", view.RowSums(), cp.RowSums())
	requireSameStorage(t, "Transpose", view.Transpose(), cp.Transpose())
	s := randomVec(r, view.Rows())
	gotS, err := view.ScaleRows(s)
	if err != nil {
		t.Fatal(err)
	}
	wantS, _ := cp.ScaleRows(s)
	requireSameStorage(t, "ScaleRows", gotS, wantS)
	for i := 0; i < view.Rows(); i++ {
		for j := 0; j < view.Cols(); j++ {
			requireBit(t, fmt.Sprintf("At(%d,%d)", i, j), view.At(i, j), cp.At(i, j))
		}
	}
}

// checkSquareViewKernels compares the solver kernels of a square view
// and its copy: the fused operator, the Gauss–Seidel sweeps, ILU(0)
// and its applications, and whole solves with their iteration counts.
// transposed marks a transpose, whose solves are covered as the left
// solves of the block it transposes.
func checkSquareViewKernels(t *testing.T, r *rand.Rand, view, cp *CSR, transposed bool) {
	t.Helper()
	requireSameStorage(t, "square view", view, cp)
	n := view.Rows()
	rc := toRef(cp)
	x, w := randomVec(r, n), randomVec(r, n)
	tmp := make([]float64, n)
	_ = rc.MulVecInto(x, tmp)
	want := make([]float64, n)
	var dd, dw float64
	for i := range want {
		want[i] = x[i] - tmp[i]
	}
	for i := range want {
		dd += want[i] * want[i]
		dw += want[i] * w[i]
	}
	got := make([]float64, n)
	gotDD, gotDW := view.iMinusInto(x, got, w)
	requireBits(t, "x − Mx", got, want)
	requireBit(t, "Σd²", gotDD, dd)
	requireBit(t, "Σd·w", gotDW, dw)

	diag := view.Diagonal()
	requireBits(t, "Diagonal", diag, cp.Diagonal())
	invDiag := make([]float64, n)
	for i, d := range diag {
		invDiag[i] = 1 / (1 - d)
	}
	wantZ := make([]float64, n)
	refGSSweepsInto(rc, invDiag, x, wantZ)
	gotZ := randomVec(r, n)
	gsSweepsInto(view, newGSSplit(view), invDiag, x, gotZ)
	requireBits(t, "GS sweeps", gotZ, wantZ)

	lu, err := factorILU0(view)
	if err != nil {
		t.Fatal(err)
	}
	rlu, err := refFactorILU0(cp)
	if err != nil {
		t.Fatal(err)
	}
	requireILU(t, lu, rlu, r)

	if transposed {
		return // solves on a transpose are the left solves below
	}
	for _, s := range []Solver{BiCGSTABSolver{}, ILUSolver{}} {
		f, err := s.Factor(view)
		if err != nil {
			t.Fatal(err)
		}
		var refLU *refILU
		if s.Name() == "ilu" {
			refLU = rlu
		}
		for _, left := range []bool{false, true} {
			b := randomVec(r, n)
			want, wantIters, wantErr := refSolve(cp, invDiag, refLU, b, nil, left)
			before := f.Stats().Iterations
			got, err := f.Solve(b, nil, left)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s left=%v: error %v, reference error %v", s.Name(), left, err, wantErr)
			}
			requireBits(t, fmt.Sprintf("%s left=%v x", s.Name(), left), got, want)
			if iters := f.Stats().Iterations - before; iters != int64(wantIters) {
				t.Fatalf("%s left=%v: %d iterations, reference %d", s.Name(), left, iters, wantIters)
			}
		}
	}
}

// requireILU compares ILU(0) factors with the reference row by row, then
// both triangular-solve applications.
func requireILU(t *testing.T, lu *iluFactors, rlu *refILU, r *rand.Rand) {
	t.Helper()
	if lu.n != rlu.n {
		t.Fatalf("ILU(0) order %d, want %d", lu.n, rlu.n)
	}
	for i := 0; i < lu.n; i++ {
		lo, hi := lu.rowStart[i], lu.rowEnd[i]
		rlo, rhi := rlu.rowPtr[i], rlu.rowPtr[i+1]
		if hi-lo != rhi-rlo || lu.diag[i]-lo != rlu.diag[i]-rlo {
			t.Fatalf("ILU(0) row %d: %d entries with diagonal at %d, want %d at %d",
				i, hi-lo, lu.diag[i]-lo, rhi-rlo, rlu.diag[i]-rlo)
		}
		for k := lo; k < hi; k++ {
			if int(lu.colIdx[k]) != rlu.colIdx[rlo+k-lo] {
				t.Fatalf("ILU(0) row %d column %d, want %d", i, lu.colIdx[k], rlu.colIdx[rlo+k-lo])
			}
		}
		requireBits(t, fmt.Sprintf("ILU(0) row %d", i), lu.vals[lo:hi], rlu.vals[rlo:rhi])
	}
	x := randomVec(r, lu.n)
	want, got := make([]float64, lu.n), randomVec(r, lu.n)
	rlu.apply(x, want)
	lu.apply(x, got)
	requireBits(t, "ILU(0) apply", got, want)
	got = randomVec(r, lu.n)
	rlu.applyTransposed(x, want)
	lu.applyTransposed(x, got)
	requireBits(t, "ILU(0) applyTransposed", got, want)
}

// TestSharedILUMatchesLeadingBlock checks that once I − T is factored,
// the factors the leading block gets — T's A rows cut at column n_A —
// equal factorILU0 of a copy of M_A bit for bit, and that solves through
// them match the reference in both orientations.
func TestSharedILUMatchesLeadingBlock(t *testing.T) {
	for _, n := range []int{1, 7, 40, 300} {
		r := rand.New(rand.NewSource(int64(n) * 31))
		full := oracleBlock(t, r, n, 1e-3)
		for _, sc := range splitCases(r, n) {
			t.Run(fmt.Sprintf("n=%d/%s", n, sc.name), func(t *testing.T) {
				p, cases := partitionCases(t, full, sc)
				ft, err := ILUSolver{}.Factor(p.T)
				if err != nil {
					t.Fatal(err)
				}
				fa, err := ILUSolver{}.Factor(p.A)
				if err != nil {
					t.Fatal(err)
				}
				shared := fa.(*krylovFactorization).lu
				if shared != p.T.part.luA || ft.(*krylovFactorization).lu != p.T.part.lu {
					t.Fatal("I − M_A was factored again instead of sharing T's factors")
				}
				copyA := cases[1].copy
				own, err := factorILU0(copyA)
				if err != nil {
					t.Fatal(err)
				}
				rlu, err := refFactorILU0(copyA)
				if err != nil {
					t.Fatal(err)
				}
				requireILU(t, shared, rlu, r)
				requireILU(t, own, rlu, r)
				invDiag := make([]float64, copyA.Rows())
				for _, left := range []bool{false, true} {
					b := randomVec(r, copyA.Rows())
					want, wantIters, _ := refSolve(copyA, invDiag, rlu, b, nil, left)
					before := fa.Stats().Iterations
					got, err := fa.Solve(b, nil, left)
					if err != nil {
						t.Fatal(err)
					}
					requireBits(t, fmt.Sprintf("left=%v x", left), got, want)
					if iters := fa.Stats().Iterations - before; iters != int64(wantIters) {
						t.Fatalf("left=%v: %d iterations, reference %d", left, iters, wantIters)
					}
				}
			})
		}
	}
}

// TestPartitionBlocksShareOneTranspose checks that the left solves of T,
// A and B read views of one transpose instead of building three.
func TestPartitionBlocksShareOneTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	full := oracleBlock(t, r, 60, 0.01)
	p, _ := partitionCases(t, full, splitCases(r, 60)[0])
	tT := p.T.transposed()
	aT, bT := p.A.transposed(), p.B.transposed()
	if &aT.vals[0] != &tT.vals[0] || &bT.vals[0] != &tT.vals[0] {
		t.Fatal("Aᵀ and Bᵀ do not share Tᵀ's storage")
	}
	if p.T.transposed() != tT || p.A.transposed() != aT {
		t.Fatal("the shared transpose was rebuilt")
	}
}

func TestNewPartitionRejects(t *testing.T) {
	if _, err := NewPartition(NewSparseBuilder(2, 3).Build(), 1); err == nil {
		t.Error("non-square matrix: want error")
	}
	sq := NewSparseBuilder(3, 3).Build()
	for _, n := range []int{-1, 4} {
		if _, err := NewPartition(sq, n); err == nil {
			t.Errorf("split %d of a 3×3 matrix: want error", n)
		}
	}
}

func TestSubRowSumsMatchesSubCSR(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	full := oracleBlock(t, r, 200, 0.01)
	rows := r.Perm(200)[:150]
	for _, cols := range [][]int{
		{3, 9, 27, 81, 150, 199}, // ascending
		{199, 3, 81, 9, 150, 27}, // reordered: the sum follows the selection
		r.Perm(200)[:120],        // a large reordered selection
		{},                       // nothing selected
	} {
		blk, err := refSubCSR(full, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := full.SubRowSums(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		requireBits(t, "SubRowSums", got, blk.RowSums())
	}
	if _, err := full.SubRowSums([]int{200}, []int{0}); err == nil {
		t.Error("row out of range: want error")
	}
	if _, err := full.SubRowSums([]int{0}, []int{-1}); err == nil {
		t.Error("column out of range: want error")
	}
}

// bandedCSR is an n×n matrix with up to five entries per row.
func bandedCSR(t testing.TB, n int) *CSR {
	t.Helper()
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		for _, d := range []int{-7, -1, 0, 2, 11} {
			if j := i + d; j >= 0 && j < n {
				if err := b.Add(i, j, 0.1+float64(d+7)/100); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

// TestSubCSRPresized checks that SubCSR allocates a constant number of
// times whatever the size of its output, and still equals the reference
// extraction for ascending and reordered selections.
func TestSubCSRPresized(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{200, 20000} {
		m := bandedCSR(t, n)
		var rows, cols []int
		for i := 0; i < n; i += 2 {
			rows = append(rows, i)
		}
		for j := 0; j < n; j++ {
			if j%3 != 0 {
				cols = append(cols, j)
			}
		}
		want, err := refSubCSR(m, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.SubCSR(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		requireSameStorage(t, "ascending", got, want)
		rev := append([]int(nil), cols...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		want, _ = refSubCSR(m, rows, rev)
		got, _ = m.SubCSR(rows, rev)
		requireSameStorage(t, "reordered", got, want)
		allocs[n] = testing.AllocsPerRun(5, func() {
			if _, err := m.SubCSR(rows, cols); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[200] != allocs[20000] {
		t.Fatalf("SubCSR allocations grow with the output: %v at n=200, %v at n=20000", allocs[200], allocs[20000])
	}
}
