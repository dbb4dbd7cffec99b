package matrix

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestSparseBuilderBasic(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	mustAdd := func(i, j int, v float64) {
		t.Helper()
		if err := b.Add(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 0, 1)
	mustAdd(2, 1, 3)
	mustAdd(0, 2, 2)
	m := b.Build()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(2, 1) != 3 {
		t.Error("stored values wrong")
	}
	if m.At(1, 1) != 0 {
		t.Error("missing entry must read 0")
	}
}

func TestSparseBuilderDuplicatesSummed(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	_ = b.Add(1, 1, 0.25)
	_ = b.Add(1, 1, 0.5)
	_ = b.Add(1, 1, 0.25)
	m := b.Build()
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (duplicates merged)", m.NNZ())
	}
	if m.At(1, 1) != 1 {
		t.Errorf("At(1,1) = %v, want 1", m.At(1, 1))
	}
}

func TestSparseBuilderDuplicateOrderAndReuse(t *testing.T) {
	// The Build contract: duplicates are summed in insertion order, and
	// Build may be called repeatedly — also after further Adds — without
	// the in-place merge of a previous call corrupting the entry log.
	b := NewSparseBuilder(2, 3)
	var want float64 // left-to-right insertion-order sum, at runtime
	for _, v := range []float64{0.1, 0.2, 0.3} {
		if err := b.Add(0, 1, v); err != nil {
			t.Fatal(err)
		}
		want += v
	}
	if err := b.Add(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	first := b.Build()
	if first.At(0, 1) != want || first.NNZ() != 2 {
		t.Fatalf("first Build: At(0,1)=%v nnz=%d, want %v and 2", first.At(0, 1), first.NNZ(), want)
	}
	second := b.Build()
	if !first.Equal(second) {
		t.Error("second Build differs from the first on an untouched builder")
	}
	if err := b.Add(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	third := b.Build()
	if third.NNZ() != 2 || third.At(0, 1) != want+1 {
		t.Errorf("Build after merge+Add: At(0,1)=%v nnz=%d, want %v and 2",
			third.At(0, 1), third.NNZ(), want+1)
	}
	if third.At(1, 2) != 5 {
		t.Errorf("untouched entry lost: At(1,2)=%v, want 5", third.At(1, 2))
	}
}

func TestSparseBuilderZeroIgnored(t *testing.T) {
	b := NewSparseBuilder(1, 1)
	_ = b.Add(0, 0, 0)
	if m := b.Build(); m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0", m.NNZ())
	}
}

func TestSparseBuilderOutOfBounds(t *testing.T) {
	b := NewSparseBuilder(1, 1)
	if err := b.Add(1, 0, 1); err == nil {
		t.Error("row out of bounds: want error")
	}
	if err := b.Add(0, -1, 1); err == nil {
		t.Error("col out of bounds: want error")
	}
}

func TestSparseEmptyRows(t *testing.T) {
	b := NewSparseBuilder(4, 4)
	_ = b.Add(2, 3, 7)
	m := b.Build()
	sums := m.RowSums()
	want := []float64{0, 0, 7, 0}
	for i := range want {
		if sums[i] != want[i] {
			t.Errorf("RowSums[%d] = %v, want %v", i, sums[i], want[i])
		}
	}
}

func TestCSRVecMulMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		b := NewSparseBuilder(rows, cols)
		d := NewDense(rows, cols)
		for e := 0; e < rows*cols/2; e++ {
			i, j, v := r.Intn(rows), r.Intn(cols), 2*r.Float64()-1
			if err := b.Add(i, j, v); err != nil {
				return false
			}
			d.Add(i, j, v)
		}
		m := b.Build()
		v := make([]float64, rows)
		for i := range v {
			v[i] = 2*r.Float64() - 1
		}
		got, err := m.VecMul(v)
		if err != nil {
			return false
		}
		want, err := d.VecMul(v)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				return false
			}
		}
		// Column product too.
		u := make([]float64, cols)
		for i := range u {
			u[i] = 2*r.Float64() - 1
		}
		gotC, err := m.MulVec(u)
		if err != nil {
			return false
		}
		wantC, err := d.MulVec(u)
		if err != nil {
			return false
		}
		for i := range wantC {
			if math.Abs(gotC[i]-wantC[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCSRVecMulInto(t *testing.T) {
	b := NewSparseBuilder(2, 3)
	_ = b.Add(0, 1, 2)
	_ = b.Add(1, 2, 3)
	m := b.Build()
	dst := make([]float64, 3)
	if err := m.VecMulInto([]float64{1, 1}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 || dst[1] != 2 || dst[2] != 3 {
		t.Errorf("dst = %v, want [0 2 3]", dst)
	}
	if err := m.VecMulInto([]float64{1}, dst); err == nil {
		t.Error("bad v length: want error")
	}
	if err := m.VecMulInto([]float64{1, 1}, make([]float64, 1)); err == nil {
		t.Error("bad dst length: want error")
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	b := NewSparseBuilder(3, 2)
	_ = b.Add(0, 1, 5)
	_ = b.Add(2, 0, -1)
	d := b.Build().Dense()
	if d.At(0, 1) != 5 || d.At(2, 0) != -1 || d.At(1, 1) != 0 {
		t.Errorf("Dense round trip wrong: %v", d)
	}
}

func TestCSRRowNonZeros(t *testing.T) {
	b := NewSparseBuilder(2, 4)
	_ = b.Add(1, 0, 1)
	_ = b.Add(1, 3, 2)
	m := b.Build()
	var cols []int
	var vals []float64
	m.RowNonZeros(1, func(j int, v float64) {
		cols = append(cols, j)
		vals = append(vals, v)
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 3 || vals[1] != 2 {
		t.Errorf("RowNonZeros cols=%v vals=%v", cols, vals)
	}
	m.RowNonZeros(0, func(j int, v float64) {
		t.Error("row 0 must be empty")
	})
}

func TestSubCSR(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			_ = b.Add(i, j, float64(10*i+j))
		}
	}
	m := b.Build()
	sub, err := m.SubCSR([]int{2, 0}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.At(0, 0) != 21 || sub.At(0, 1) != 22 || sub.At(1, 0) != 1 || sub.At(1, 1) != 2 {
		t.Errorf("SubCSR wrong: %v", sub.Dense())
	}
	if _, err := m.SubCSR([]int{9}, []int{0}); err == nil {
		t.Error("row out of range: want error")
	}
	if _, err := m.SubCSR([]int{0}, []int{9}); err == nil {
		t.Error("col out of range: want error")
	}
}

func TestCSRVecMulLengthMismatch(t *testing.T) {
	m := NewSparseBuilder(2, 2).Build()
	if _, err := m.VecMul([]float64{1}); err == nil {
		t.Error("want error")
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("want error")
	}
}

func TestSubCSRReorderedColumns(t *testing.T) {
	// A descending column selection exercises the per-row re-sort path;
	// the CSR column invariant must hold (At relies on binary search).
	b := NewSparseBuilder(2, 4)
	for j := 0; j < 4; j++ {
		_ = b.Add(0, j, float64(j+1))
		_ = b.Add(1, j, float64(10*(j+1)))
	}
	sub, err := b.Build().SubCSR([]int{0, 1}, []int{3, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{4, 2, 1}, {40, 20, 10}}
	for i := range want {
		for j, w := range want[i] {
			if got := sub.At(i, j); got != w {
				t.Errorf("sub(%d,%d) = %v, want %v", i, j, got, w)
			}
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		b := NewSparseBuilder(rows, cols)
		for e := 0; e < rows*cols/2; e++ {
			_ = b.Add(r.Intn(rows), r.Intn(cols), 2*r.Float64()-1)
		}
		m := b.Build()
		mt := m.Transpose()
		if mt.Rows() != cols || mt.Cols() != rows || mt.NNZ() != m.NNZ() {
			t.Fatalf("transpose shape %dx%d nnz %d, want %dx%d nnz %d",
				mt.Rows(), mt.Cols(), mt.NNZ(), cols, rows, m.NNZ())
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.At(i, j) != mt.At(j, i) {
					t.Fatalf("transpose(%d,%d) = %v, want %v", j, i, mt.At(j, i), m.At(i, j))
				}
			}
		}
	}
}

func TestCSRScaleRows(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	_ = b.Add(0, 0, 2)
	_ = b.Add(0, 1, 3)
	_ = b.Add(1, 1, 5)
	m, err := b.Build().ScaleRows([]float64{10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 20 || m.At(0, 1) != 30 || m.At(1, 1) != 0 {
		t.Errorf("ScaleRows wrong: %v", m.Dense())
	}
	if _, err := m.ScaleRows([]float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestCSRDiagonal(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	_ = b.Add(0, 0, 1.5)
	_ = b.Add(1, 0, 2)
	_ = b.Add(2, 2, -4)
	d := b.Build().Diagonal()
	want := []float64{1.5, 0, -4}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("diag[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestCSRMulVecInto(t *testing.T) {
	b := NewSparseBuilder(2, 3)
	_ = b.Add(0, 0, 1)
	_ = b.Add(0, 2, 2)
	_ = b.Add(1, 1, 3)
	m := b.Build()
	dst := make([]float64, 2)
	if err := m.MulVecInto([]float64{1, 2, 3}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 || dst[1] != 6 {
		t.Errorf("MulVecInto = %v, want [7 6]", dst)
	}
	if err := m.MulVecInto([]float64{1}, dst); err == nil {
		t.Error("bad v length: want error")
	}
	if err := m.MulVecInto([]float64{1, 2, 3}, dst[:1]); err == nil {
		t.Error("bad dst length: want error")
	}
}

// TestRejectColumnsBeyondInt32 checks that column indices, stored as
// int32, are refused past math.MaxInt32 instead of truncated: by both
// builders, and by SubCSR, whose position table spans the source width.
// The widths are formed at run time so the test compiles where int has
// 32 bits; no int exceeds the range there, so it skips.
func TestRejectColumnsBeyondInt32(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed math.MaxInt32")
	}
	var limit int64 = math.MaxInt32
	last := int(limit) // the largest storable column
	wide := int(limit + 2)

	b := NewSparseBuilder(1, wide)
	if err := b.Add(0, last, 1); err != nil {
		t.Fatalf("SparseBuilder.Add column %d: %v", last, err)
	}
	if err := b.Add(0, last+1, 1); err == nil {
		t.Errorf("SparseBuilder.Add column %d: want error", last+1)
	}
	m := b.Build()
	if m.NNZ() != 1 || m.At(0, last) != 1 || m.At(0, last+1) != 0 {
		t.Errorf("NNZ=%d At(0,%d)=%v At(0,%d)=%v, want 1, 1, 0", m.NNZ(), last, m.At(0, last), last+1, m.At(0, last+1))
	}
	m.RowNonZeros(0, func(j int, v float64) {
		if j != last {
			t.Errorf("RowNonZeros column %d, want %d", j, last)
		}
	})
	if _, err := m.SubCSR([]int{0}, []int{last}); err == nil {
		t.Errorf("SubCSR of a %d-column matrix: want error", wide)
	}

	rb := NewRowBuilder(wide)
	if err := rb.Add(last, 1); err != nil {
		t.Fatalf("RowBuilder.Add column %d: %v", last, err)
	}
	if err := rb.Add(last+1, 1); err == nil {
		t.Errorf("RowBuilder.Add column %d: want error", last+1)
	}
	rb.EndRow()
	rm, err := ConcatRows(wide, rb)
	if err != nil {
		t.Fatal(err)
	}
	if rm.NNZ() != 1 || rm.At(0, last) != 1 {
		t.Errorf("RowBuilder row: NNZ=%d At(0,%d)=%v, want 1 and 1", rm.NNZ(), last, rm.At(0, last))
	}
}
