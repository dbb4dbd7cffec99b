package matrix

import "fmt"

// RowBuilder emits a contiguous run of CSR rows without any shared state:
// the row-local counterpart of SparseBuilder for parallel matrix
// construction. A worker owns one RowBuilder, calls Add for the entries of
// the current row and EndRow to seal it, and the per-worker runs are glued
// back together in row order by ConcatRows. Entries land directly in
// CSR-shaped buffers (one growing colIdx/vals pair per builder), so
// building n rows costs O(nnz) amortized appends instead of a global
// coordinate sort.
//
// Duplicate column entries within a row are summed in emission order after
// a stable in-row sort — exactly the arithmetic of SparseBuilder.Build —
// which is what makes the parallel construction bit-identical to the
// serial one for any worker count or chunking.
type RowBuilder struct {
	cols   int
	rowPtr []int // rowPtr[r+1] = entries after sealing r rows; rowPtr[0] = 0
	colIdx []int32
	vals   []float64
	// Scratch for the in-progress row, in emission order.
	curCols []int32
	curVals []float64
}

// NewRowBuilder returns a builder for rows of the given width.
func NewRowBuilder(cols int) *RowBuilder {
	return &RowBuilder{cols: cols, rowPtr: []int{0}}
}

// Add accumulates v at column j of the current row. Zero values are
// dropped, like SparseBuilder.Add.
func (b *RowBuilder) Add(j int, v float64) error {
	if j < 0 || j >= b.cols {
		return fmt.Errorf("matrix: row entry column %d out of bounds for width %d", j, b.cols)
	}
	if err := checkColumn("row entry column", j); err != nil {
		return err
	}
	if v == 0 {
		return nil
	}
	b.curCols = append(b.curCols, int32(j))
	b.curVals = append(b.curVals, v)
	return nil
}

// EndRow seals the current row: its entries are stably sorted by column,
// duplicates summed in emission order, and the result appended to the
// builder's CSR buffers. An empty row is legal.
func (b *RowBuilder) EndRow() {
	sortRowStable(b.curCols, b.curVals)
	start := len(b.colIdx)
	for i := 0; i < len(b.curCols); i++ {
		if n := len(b.colIdx); n > start && b.colIdx[n-1] == b.curCols[i] {
			b.vals[n-1] += b.curVals[i]
			continue
		}
		b.colIdx = append(b.colIdx, b.curCols[i])
		b.vals = append(b.vals, b.curVals[i])
	}
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
	b.curCols = b.curCols[:0]
	b.curVals = b.curVals[:0]
}

// Rows returns the number of sealed rows.
func (b *RowBuilder) Rows() int { return len(b.rowPtr) - 1 }

// Cols returns the row width.
func (b *RowBuilder) Cols() int { return b.cols }

// sortRowStable stably co-sorts one row's column indices and values by
// column (insertion sort: rows are short, and moving only strictly-greater
// elements keeps equal columns in emission order).
func sortRowStable(cols []int32, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// ConcatRows assembles a CSR matrix from consecutive row runs: part i
// holds the rows immediately following those of part i−1. The assembly is
// a deterministic concatenation — entries are copied in row order whatever
// the number of parts — so splitting a build across workers cannot change
// the result. Every part must have the width cols.
func ConcatRows(cols int, parts ...*RowBuilder) (*CSR, error) {
	rows, nnz := 0, 0
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("matrix: ConcatRows part %d is nil", i)
		}
		if p.cols != cols {
			return nil, fmt.Errorf("matrix: ConcatRows part %d has width %d, want %d", i, p.cols, cols)
		}
		rows += p.Rows()
		nnz += len(p.colIdx)
	}
	rowPtr := make([]int, 1, rows+1)
	colIdx := make([]int32, 0, nnz)
	vals := make([]float64, 0, nnz)
	for _, p := range parts {
		base := len(colIdx)
		for r := 1; r < len(p.rowPtr); r++ {
			rowPtr = append(rowPtr, base+p.rowPtr[r])
		}
		colIdx = append(colIdx, p.colIdx...)
		vals = append(vals, p.vals...)
	}
	return newCSR(rows, cols, rowPtr, colIdx, vals), nil
}
