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
	m := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int, b.rows+1),
		colIdx: make([]int32, len(merged)),
		vals:   make([]float64, len(merged)),
	}
	for i, e := range merged {
		m.rowPtr[e.row+1]++
		m.colIdx[i] = e.col
		m.vals[i] = e.val
	}
	for r := 0; r < b.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// CSR is a compressed sparse row matrix. Within each row the column
// indices are strictly ascending; the Gauss–Seidel split and ILU(0)
// rely on it.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int32
	vals       []float64
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the element at (i, j); O(log nnz(row i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: CSR index (%d,%d) out of bounds for %dx%d", i, j, m.rows, m.cols))
	}
	if j > maxCol {
		return 0 // no stored column reaches past the int32 range
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	if k, ok := slices.BinarySearch(m.colIdx[lo:hi], int32(j)); ok {
		return m.vals[lo+k]
	}
	return 0
}

// Equal reports whether m and o are identical as stored CSR matrices:
// same shape, same row pointers, same column indices and bit-identical
// values (compared with ==, so a NaN entry never compares equal). It is
// stricter than numerical equality — two matrices representing the same
// operator with different structural zeros compare unequal — which is
// exactly what the serial/parallel construction equivalence guarantees
// need.
func (m *CSR) Equal(o *CSR) bool {
	if m.rows != o.rows || m.cols != o.cols || len(m.vals) != len(o.vals) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for i := range m.colIdx {
		if m.colIdx[i] != o.colIdx[i] {
			return false
		}
	}
	for i := range m.vals {
		if m.vals[i] != o.vals[i] {
			return false
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
	lo := m.rowPtr[0]
	for i, hi := range m.rowPtr[1:] {
		if vv := v[i]; vv != 0 {
			cols, vals := entries(m.colIdx, m.vals, lo, hi)
			for k, a := range vals {
				dst[cols[k]] += vv * a
			}
		}
		lo = hi
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
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k]
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
	lo := m.rowPtr[0]
	for i, hi := range m.rowPtr[1:] {
		cols, vals := entries(m.colIdx, m.vals, lo, hi)
		var s float64
		for k, a := range vals {
			s += a * v[cols[k]]
		}
		dst[i] = s
		lo = hi
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
	lo := m.rowPtr[0]
	for i, hi := range m.rowPtr[1:] {
		cols, vals := entries(m.colIdx, m.vals, lo, hi)
		var s float64
		for k, a := range vals {
			s += a * x[cols[k]]
		}
		d := x[i] - s
		dst[i] = d
		dd += d * d
		dw += d * w[i]
		lo = hi
	}
	return dd, dw
}

// Transpose returns Mᵀ as a new CSR, preserving sparsity.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int32, len(m.vals)),
		vals:   make([]float64, len(m.vals)),
	}
	for _, j := range m.colIdx {
		t.rowPtr[j+1]++
	}
	for r := 0; r < t.rows; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	next := append([]int(nil), t.rowPtr[:t.rows]...)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			p := next[j]
			next[j]++
			t.colIdx[p] = int32(i)
			t.vals[p] = m.vals[k]
		}
	}
	return t
}

// ScaleRows returns diag(s) * M: row i multiplied by s[i]. The sparsity
// pattern is preserved (zero scales keep structurally-present entries).
func (m *CSR) ScaleRows(s []float64) (*CSR, error) {
	if len(s) != m.rows {
		return nil, fmt.Errorf("matrix: ScaleRows scale length %d does not match %d rows", len(s), m.rows)
	}
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int32(nil), m.colIdx...),
		vals:   make([]float64, len(m.vals)),
	}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out.vals[k] = m.vals[k] * s[i]
		}
	}
	return out, nil
}

// Diagonal returns the main diagonal as a vector of length min(rows, cols).
func (m *CSR) Diagonal() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if int(m.colIdx[k]) == i {
				out[i] = m.vals[k]
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
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, int(m.colIdx[k]), m.vals[k])
		}
	}
	return d
}

// RowNonZeros calls fn for every stored entry of row i.
func (m *CSR) RowNonZeros(i int, fn func(j int, v float64)) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: CSR row %d out of bounds for %d rows", i, m.rows))
	}
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(int(m.colIdx[k]), m.vals[k])
	}
}

// SubCSR extracts the sub-matrix with the given row and column index sets,
// preserving sparsity, without ever densifying: a direct CSR-to-CSR copy
// using a slice-based column position table (no maps, no re-sorting when
// the column selection is ascending — the common case for state-class
// index sets).
func (m *CSR) SubCSR(rowIdx, colIdx []int) (*CSR, error) {
	if err := checkColumn("SubCSR source width", m.cols); err != nil {
		return nil, err
	}
	if err := checkColumn("SubCSR width", len(colIdx)); err != nil {
		return nil, err
	}
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
	out := &CSR{
		rows:   len(rowIdx),
		cols:   len(colIdx),
		rowPtr: make([]int, len(rowIdx)+1),
	}
	for p, r := range rowIdx {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("matrix: SubCSR row index %d out of bounds for %d rows", r, m.rows)
		}
		rowStart := len(out.vals)
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if q := colPos[m.colIdx[k]]; q >= 0 {
				out.colIdx = append(out.colIdx, q)
				out.vals = append(out.vals, m.vals[k])
			}
		}
		if !ascending {
			// A reordered column selection scrambles the in-row column
			// order; restore the CSR invariant for this row.
			sortRowStable(out.colIdx[rowStart:], out.vals[rowStart:])
		}
		out.rowPtr[p+1] = len(out.vals)
	}
	return out, nil
}
