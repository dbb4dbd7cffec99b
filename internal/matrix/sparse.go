package matrix

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Column indices are stored as int32: 12 bytes per stored entry (value
// plus index) instead of 16, which is most of the memory traffic of the
// iterative kernels. Row pointers stay int. The builders and SubCSR
// refuse a column or width above maxCol with an error rather than
// truncating it.
const maxCol = math.MaxInt32

// checkColumn reports a column index that does not fit the int32 storage.
func checkColumn(what string, j int) error {
	if j > maxCol {
		return fmt.Errorf("matrix: %s %d exceeds the int32 column range", what, j)
	}
	return nil
}

// entries returns the column indices and values stored at [lo, hi) of
// a CSR layout, resliced to one length the compiler can see, so that
// kernel loops ranging over them carry no bounds checks of their own.
func entries(colIdx []int32, vals []float64, lo, hi int) ([]int32, []float64) {
	vs := vals[lo:hi]
	return colIdx[lo:hi][:len(vs)], vs
}

// coord is a single (row, col) entry used while assembling a sparse matrix.
type coord struct {
	row int
	col int32
	val float64
}

// SparseBuilder accumulates entries for a compressed sparse row matrix.
// Duplicate (row, col) entries are summed, which is convenient when a
// transition tree reaches the same target state along several branches.
type SparseBuilder struct {
	rows, cols int
	entries    []coord
}

// NewSparseBuilder returns a builder for a rows x cols sparse matrix.
func NewSparseBuilder(rows, cols int) *SparseBuilder {
	return &SparseBuilder{rows: rows, cols: cols}
}

// Add accumulates v at (i, j).
func (b *SparseBuilder) Add(i, j int, v float64) error {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		return fmt.Errorf("matrix: sparse entry (%d,%d) out of bounds for %dx%d", i, j, b.rows, b.cols)
	}
	if err := checkColumn("sparse entry column", j); err != nil {
		return err
	}
	if v == 0 {
		return nil
	}
	b.entries = append(b.entries, coord{row: i, col: int32(j), val: v})
	return nil
}

// Build finalizes the builder into a CSR matrix.
//
// Contract: duplicate (i, j) entries are summed, in the order they were
// Added (the sort is stable, so equal coordinates keep insertion order and
// the floating-point sum is deterministic). Build may be called again —
// also after further Adds — and behaves as if every entry so far had been
// Added to a fresh builder: the merge compacts the entry log in place and
// b.entries is re-sliced to the compacted prefix, so no stale tail can
// leak into a later Build.
func (b *SparseBuilder) Build() *CSR {
	sort.SliceStable(b.entries, func(p, q int) bool {
		if b.entries[p].row != b.entries[q].row {
			return b.entries[p].row < b.entries[q].row
		}
		return b.entries[p].col < b.entries[q].col
	})
	// Merge duplicates in place.
	merged := b.entries[:0]
	for _, e := range b.entries {
		if n := len(merged); n > 0 && merged[n-1].row == e.row && merged[n-1].col == e.col {
			merged[n-1].val += e.val
			continue
		}
		merged = append(merged, e)
	}
	b.entries = merged
	rowPtr := make([]int, b.rows+1)
	colIdx := make([]int32, len(merged))
	vals := make([]float64, len(merged))
	for i, e := range merged {
		rowPtr[e.row+1]++
		colIdx[i] = e.col
		vals[i] = e.val
	}
	for r := 0; r < b.rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return newCSR(b.rows, b.cols, rowPtr, colIdx, vals)
}

// CSR is a compressed sparse row matrix. Row i's entries are stored at
// [rowStart[i], rowEnd[i]) of colIdx and vals; within each row the column
// indices are strictly ascending (the Gauss–Seidel split and ILU(0) rely
// on it), and stored column c is column c − colBase. A matrix assembled
// on its own keeps one row-pointer array, of which rowStart and rowEnd
// are two overlapping windows, and colBase 0. The blocks of a Partition
// are views: they read the partitioned matrix's arrays through their
// own row ranges and column base, and store no entries of their own.
type CSR struct {
	rows, cols       int
	rowStart, rowEnd []int
	colBase          int32
	nnz              int
	colIdx           []int32
	vals             []float64
	// part links a Partition's T and diagonal blocks to the transpose
	// and ILU(0) factors they share; nil for any other matrix.
	part *partition
	role blockRole
}

// newCSR wraps a row-pointer layout: row i is [rowPtr[i], rowPtr[i+1]).
func newCSR(rows, cols int, rowPtr []int, colIdx []int32, vals []float64) *CSR {
	return &CSR{
		rows: rows, cols: cols,
		rowStart: rowPtr[:rows], rowEnd: rowPtr[1:],
		nnz: len(vals), colIdx: colIdx, vals: vals,
	}
}

// row returns the stored column indices and values of row i.
func (m *CSR) row(i int) ([]int32, []float64) {
	return entries(m.colIdx, m.vals, m.rowStart[i], m.rowEnd[i])
}

// ends returns rowEnd resliced to the length of rowStart, so loops that
// range over rowStart index it without bounds checks.
func (m *CSR) ends() []int { return m.rowEnd[:len(m.rowStart)] }

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return m.nnz }

// At returns the element at (i, j); O(log nnz(row i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: CSR index (%d,%d) out of bounds for %dx%d", i, j, m.rows, m.cols))
	}
	if j > maxCol {
		return 0 // no stored column reaches past the int32 range
	}
	cols, vals := m.row(i)
	if k, ok := slices.BinarySearch(cols, m.colBase+int32(j)); ok {
		return vals[k]
	}
	return 0
}

// Equal reports whether m and o are identical as stored CSR matrices:
// same shape, the same columns stored in every row and bit-identical
// values (compared with ==, so a NaN entry never compares equal). It is
// stricter than numerical equality — two matrices representing the same
// operator with different structural zeros compare unequal — which is
// exactly what the serial/parallel construction equivalence guarantees
// need.
func (m *CSR) Equal(o *CSR) bool {
	if m.rows != o.rows || m.cols != o.cols || m.nnz != o.nnz {
		return false
	}
	for i := 0; i < m.rows; i++ {
		mc, mv := m.row(i)
		oc, ov := o.row(i)
		if len(mc) != len(oc) {
			return false
		}
		for k, c := range mc {
			if c-m.colBase != oc[k]-o.colBase || mv[k] != ov[k] {
				return false
			}
		}
	}
	return true
}

// VecMul returns the row vector v * M.
func (m *CSR) VecMul(v []float64) ([]float64, error) {
	out := make([]float64, m.cols)
	return out, m.VecMulInto(v, out)
}

// VecMulInto computes v * M into dst, which must have length Cols.
// It avoids allocation in hot iteration loops.
func (m *CSR) VecMulInto(v, dst []float64) error {
	if len(v) != m.rows {
		return fmt.Errorf("matrix: CSR VecMul length %d does not match %d rows", len(v), m.rows)
	}
	if len(dst) != m.cols {
		return fmt.Errorf("matrix: CSR VecMul dst length %d does not match %d cols", len(dst), m.cols)
	}
	clear(dst)
	base, ends := m.colBase, m.ends()
	for i, lo := range m.rowStart {
		if vv := v[i]; vv != 0 {
			cols, vals := entries(m.colIdx, m.vals, lo, ends[i])
			for k, a := range vals {
				dst[cols[k]-base] += vv * a
			}
		}
	}
	return nil
}

// MulVec returns the column vector M * v.
func (m *CSR) MulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	return out, m.MulVecInto(v, out)
}

// RowSums returns the per-row sums, e.g. for stochasticity checks.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := range out {
		_, vals := m.row(i)
		var s float64
		for _, a := range vals {
			s += a
		}
		out[i] = s
	}
	return out
}

// MulVecInto computes M * v into dst, which must have length Rows.
// It avoids allocation in hot iteration loops.
func (m *CSR) MulVecInto(v, dst []float64) error {
	if len(v) != m.cols {
		return fmt.Errorf("matrix: CSR MulVec length %d does not match %d cols", len(v), m.cols)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("matrix: CSR MulVec dst length %d does not match %d rows", len(dst), m.rows)
	}
	base, ends := m.colBase, m.ends()
	for i, lo := range m.rowStart {
		cols, vals := entries(m.colIdx, m.vals, lo, ends[i])
		var s float64
		for k, a := range vals {
			s += a * v[cols[k]-base]
		}
		dst[i] = s
	}
	return nil
}

// iMinusInto is the operator of the iterative solvers, (I − M)x, fused
// with the dot products that read its output: it writes dst = x − M·x and
// returns Σ dst_i² and Σ dst_i·w_i, accumulated in ascending i. Each
// dst_i is the row sum Σ_k M_ik x_k taken in the order of MulVecInto,
// subtracted from x_i. M is square; x, dst and w have its order; w may
// alias x or dst when the caller needs no dot product.
func (m *CSR) iMinusInto(x, dst, w []float64) (dd, dw float64) {
	base, ends := m.colBase, m.ends()
	for i, lo := range m.rowStart {
		cols, vals := entries(m.colIdx, m.vals, lo, ends[i])
		var s float64
		for k, a := range vals {
			s += a * x[cols[k]-base]
		}
		d := x[i] - s
		dst[i] = d
		dd += d * d
		dw += d * w[i]
	}
	return dd, dw
}

// Transpose returns Mᵀ as a new CSR, preserving sparsity.
func (m *CSR) Transpose() *CSR {
	rowPtr := make([]int, m.cols+1)
	for i := 0; i < m.rows; i++ {
		cols, _ := m.row(i)
		for _, j := range cols {
			rowPtr[j-m.colBase+1]++
		}
	}
	for r := 0; r < m.cols; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int32, m.nnz)
	vals := make([]float64, m.nnz)
	next := append([]int(nil), rowPtr[:m.cols]...)
	for i := 0; i < m.rows; i++ {
		cols, vs := m.row(i)
		for k, j := range cols {
			j -= m.colBase
			p := next[j]
			next[j]++
			colIdx[p] = int32(i)
			vals[p] = vs[k]
		}
	}
	return newCSR(m.cols, m.rows, rowPtr, colIdx, vals)
}

// ScaleRows returns diag(s) * M: row i multiplied by s[i]. The sparsity
// pattern is preserved (zero scales keep structurally-present entries).
func (m *CSR) ScaleRows(s []float64) (*CSR, error) {
	if len(s) != m.rows {
		return nil, fmt.Errorf("matrix: ScaleRows scale length %d does not match %d rows", len(s), m.rows)
	}
	rowPtr := make([]int, m.rows+1)
	colIdx := make([]int32, 0, m.nnz)
	vals := make([]float64, 0, m.nnz)
	for i := 0; i < m.rows; i++ {
		cols, vs := m.row(i)
		for k, j := range cols {
			colIdx = append(colIdx, j-m.colBase)
			vals = append(vals, vs[k]*s[i])
		}
		rowPtr[i+1] = len(vals)
	}
	return newCSR(m.rows, m.cols, rowPtr, colIdx, vals), nil
}

// Diagonal returns the main diagonal as a vector of length min(rows, cols).
func (m *CSR) Diagonal() []float64 {
	out := make([]float64, min(m.rows, m.cols))
	for i := range out {
		cols, vals := m.row(i)
		for k, j := range cols {
			if int(j-m.colBase) == i {
				out[i] = vals[k]
				break
			}
		}
	}
	return out
}

// Dense expands the matrix to dense form.
func (m *CSR) Dense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		m.RowNonZeros(i, func(j int, v float64) { d.Set(i, j, v) })
	}
	return d
}

// RowNonZeros calls fn for every stored entry of row i.
func (m *CSR) RowNonZeros(i int, fn func(j int, v float64)) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: CSR row %d out of bounds for %d rows", i, m.rows))
	}
	cols, vals := m.row(i)
	for k, j := range cols {
		fn(int(j-m.colBase), vals[k])
	}
}

// columnPositions validates a column selection of SubCSR or SubRowSums
// and returns its position table: colPos[j] is the position of column j
// in colIdx, or −1 when j is not selected. ascending reports whether the
// selection keeps the columns' order, so kept entries stay sorted.
func (m *CSR) columnPositions(colIdx []int) (colPos []int32, ascending bool, err error) {
	if err := checkColumn("SubCSR source width", m.cols); err != nil {
		return nil, false, err
	}
	if err := checkColumn("SubCSR width", len(colIdx)); err != nil {
		return nil, false, err
	}
	colPos = make([]int32, m.cols)
	for i := range colPos {
		colPos[i] = -1
	}
	ascending = true
	for p, c := range colIdx {
		if c < 0 || c >= m.cols {
			return nil, false, fmt.Errorf("matrix: SubCSR col index %d out of bounds for %d cols", c, m.cols)
		}
		if p > 0 && colIdx[p-1] >= c {
			ascending = false
		}
		colPos[c] = int32(p)
	}
	return colPos, ascending, nil
}

// checkRow validates a row index of SubCSR or SubRowSums.
func (m *CSR) checkRow(r int) error {
	if r < 0 || r >= m.rows {
		return fmt.Errorf("matrix: SubCSR row index %d out of bounds for %d rows", r, m.rows)
	}
	return nil
}

// SubCSR extracts the sub-matrix with the given row and column index sets,
// preserving sparsity, without ever densifying: a direct CSR-to-CSR copy
// using a slice-based column position table (no maps, no re-sorting when
// the column selection is ascending — the common case for state-class
// index sets). A first pass counts each row's kept entries, so the
// result is allocated at its exact size.
func (m *CSR) SubCSR(rowIdx, colIdx []int) (*CSR, error) {
	colPos, ascending, err := m.columnPositions(colIdx)
	if err != nil {
		return nil, err
	}
	rowPtr := make([]int, len(rowIdx)+1)
	for p, r := range rowIdx {
		if err := m.checkRow(r); err != nil {
			return nil, err
		}
		cols, _ := m.row(r)
		kept := 0
		for _, j := range cols {
			if colPos[j-m.colBase] >= 0 {
				kept++
			}
		}
		rowPtr[p+1] = rowPtr[p] + kept
	}
	nnz := rowPtr[len(rowIdx)]
	outCols := make([]int32, nnz)
	outVals := make([]float64, nnz)
	for p, r := range rowIdx {
		q := rowPtr[p]
		cols, vals := m.row(r)
		for k, j := range cols {
			if c := colPos[j-m.colBase]; c >= 0 {
				outCols[q], outVals[q] = c, vals[k]
				q++
			}
		}
		if !ascending {
			// A reordered column selection scrambles the in-row column
			// order; restore the CSR invariant for this row.
			sortRowStable(outCols[rowPtr[p]:q], outVals[rowPtr[p]:q])
		}
	}
	return newCSR(len(rowIdx), len(colIdx), rowPtr, outCols, outVals), nil
}

// SubRowSums returns the row sums of m.SubCSR(rowIdx, colIdx), bit for
// bit — each row summed in the sub-matrix's column order — without
// building the sub-matrix: the mass that each selected row sends into
// the selected columns.
func (m *CSR) SubRowSums(rowIdx, colIdx []int) ([]float64, error) {
	colPos, ascending, err := m.columnPositions(colIdx)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rowIdx))
	var keptCols []int32
	var keptVals []float64
	for p, r := range rowIdx {
		if err := m.checkRow(r); err != nil {
			return nil, err
		}
		keptCols, keptVals = keptCols[:0], keptVals[:0]
		cols, vals := m.row(r)
		for k, j := range cols {
			if c := colPos[j-m.colBase]; c >= 0 {
				keptCols = append(keptCols, c)
				keptVals = append(keptVals, vals[k])
			}
		}
		if !ascending {
			sortRowStable(keptCols, keptVals)
		}
		var s float64
		for _, a := range keptVals {
			s += a
		}
		out[p] = s
	}
	return out, nil
}
