package matrix

import (
	"fmt"
	"slices"
)

// Partition is a square matrix T split after its first n rows and
// columns into T = [[A, AB], [BA, B]], the block structure of an
// absorbing chain's transient states. T is the only stored copy: the
// four blocks are views of its rows, cut at the first column ≥ n by one
// index per row, and keep T's in-row column order, so every kernel sums
// a block's entries in the order a SubCSR copy of it would.
//
// The views share more than entries. The left solves of T, A and B all
// read one transpose Tᵀ, built on first use, whose leading and trailing
// row ranges are Aᵀ and Bᵀ. When I − T has been factored by ILU(0), the
// ILU(0) factors of I − A are T's leading rows of them (see iluOf). The
// blocks of one Partition therefore share lazily built state: factor and
// solve them from one goroutine at a time.
type Partition struct {
	T, A, AB, BA, B *CSR
}

// blockRole tells a Partition's blocks apart.
type blockRole uint8

const (
	roleNone blockRole = iota
	roleT
	roleA
	roleB
)

// partition is the state a Partition's T, A and B share.
type partition struct {
	n int  // order of the leading block A
	t *CSR // T itself
	// tT is Tᵀ, and aT and bT its leading and trailing diagonal blocks
	// (Aᵀ and Bᵀ), built together on first use.
	tT, aT, bT *CSR
	// lu holds the ILU(0) factors of I − T once T has been factored;
	// luA is the view of them that factors I − A, built on first use.
	lu, luA *iluFactors
}

// NewPartition splits the square matrix t after its first n rows and
// columns. The blocks read t's storage, which must not be modified
// while they are in use.
func NewPartition(t *CSR, n int) (*Partition, error) {
	if t.rows != t.cols {
		return nil, fmt.Errorf("matrix: Partition requires a square matrix, got %dx%d", t.rows, t.cols)
	}
	if n < 0 || n > t.rows {
		return nil, fmt.Errorf("matrix: Partition split %d out of range [0,%d]", n, t.rows)
	}
	p := &partition{n: n}
	whole := *t
	whole.part, whole.role = p, roleT
	p.t = &whole
	ta, tab, tba, tb := quadrants(p.t, n)
	ta.part, ta.role = p, roleA
	tb.part, tb.role = p, roleB
	return &Partition{T: p.t, A: ta, AB: tab, BA: tba, B: tb}, nil
}

// quadrants returns the four blocks of the square matrix m split at n as
// views of its storage.
func quadrants(m *CSR, n int) (a, ab, ba, b *CSR) {
	// mid[i] is the first entry of row i in a trailing column.
	mid := make([]int, m.rows)
	cut := m.colBase + int32(n)
	for i, lo := range m.rowStart {
		k, _ := slices.BinarySearch(m.colIdx[lo:m.rowEnd[i]], cut)
		mid[i] = lo + k
	}
	view := func(rows, cols int, start, end []int, base int32) *CSR {
		v := &CSR{rows: rows, cols: cols, rowStart: start, rowEnd: end, colBase: base, colIdx: m.colIdx, vals: m.vals}
		for i, lo := range start {
			v.nnz += end[i] - lo
		}
		return v
	}
	nb := m.rows - n
	a = view(n, n, m.rowStart[:n], mid[:n], m.colBase)
	ab = view(n, nb, mid[:n], m.rowEnd[:n], cut)
	ba = view(nb, n, m.rowStart[n:], mid[n:], m.colBase)
	b = view(nb, nb, mid[n:], m.rowEnd[n:], cut)
	return a, ab, ba, b
}

// transposed returns Mᵀ for the left solves of a factorization of M. A
// Partition's T, A and B read views of one shared Tᵀ, which is built
// by the first of them to need it. Tᵀ's rows list T's leading rows
// before its trailing ones, so Aᵀ and Bᵀ equal the Transpose of A and
// of B entry for entry.
func (m *CSR) transposed() *CSR {
	p := m.part
	if p == nil {
		return m.Transpose()
	}
	if p.tT == nil {
		p.tT = p.t.Transpose()
		p.aT, _, _, p.bT = quadrants(p.tT, p.n)
	}
	switch m.role {
	case roleA:
		return p.aT
	case roleB:
		return p.bT
	default:
		return p.tT
	}
}

// leadingLU returns the ILU(0) factors of I − A as a view of the
// leading rows of T's factors, each ending before its first column ≥ n.
func (p *partition) leadingLU() *iluFactors {
	if p.luA == nil {
		lu := p.lu
		end := make([]int, p.n)
		for i := range end {
			d := lu.diag[i]
			k, _ := slices.BinarySearch(lu.colIdx[d:lu.rowEnd[i]], int32(p.n))
			end[i] = d + k
		}
		p.luA = &iluFactors{
			n:        p.n,
			rowStart: lu.rowStart[:p.n],
			rowEnd:   end,
			colIdx:   lu.colIdx,
			vals:     lu.vals,
			diag:     lu.diag[:p.n],
		}
	}
	return p.luA
}
