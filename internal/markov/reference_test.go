package markov

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"targetedattacks/internal/matrix"
)

// This file pins the chain's single stored copy of T against the layout
// it replaced, and measures the matrix storage a chain reaches.

// referenceChain builds the chain the way NewChain did when every block
// was its own SubCSR copy: the four quadrants and T extracted separately
// from the full matrix, one absorbing block per class reduced by
// RowSums. The copies are plain matrices, so each factorization builds
// its own transpose and its own ILU(0) factors, as they all used to.
func referenceChain(spec Spec) (*Chain, error) {
	c, err := NewChain(spec)
	if err != nil {
		return nil, err
	}
	sub := spec.Full.SubCSR
	ma, err := sub(spec.SubsetA, spec.SubsetA)
	if err != nil {
		return nil, err
	}
	mab, err := sub(spec.SubsetA, spec.SubsetB)
	if err != nil {
		return nil, err
	}
	mba, err := sub(spec.SubsetB, spec.SubsetA)
	if err != nil {
		return nil, err
	}
	mb, err := sub(spec.SubsetB, spec.SubsetB)
	if err != nil {
		return nil, err
	}
	transient := make([]int, 0, len(spec.SubsetA)+len(spec.SubsetB))
	transient = append(transient, spec.SubsetA...)
	transient = append(transient, spec.SubsetB...)
	tt, err := sub(transient, transient)
	if err != nil {
		return nil, err
	}
	abs := make(map[string][]float64, len(spec.AbsorbingClasses))
	for name, idx := range spec.AbsorbingClasses {
		blk, err := sub(transient, idx)
		if err != nil {
			return nil, err
		}
		abs[name] = blk.RowSums()
	}
	c.ma, c.mab, c.mba, c.mb, c.tt = ma, mab, mba, mb, tt
	c.absorbing = abs
	return c, nil
}

// analysis is every output of a chain's relations, in a fixed order,
// and the iterations each factorization spent.
type analysis struct {
	vals  []float64
	iters [3]int64 // I−T, I−M_A, I−M_B
}

// analyzeAll runs every relation the way a full analysis does (visits,
// lockstep sojourns, absorption, clean absorption), then the relations
// it does not use (single-subset sojourns, hit probabilities).
func analyzeAll(t testing.TB, c *Chain, clean []string, sojourns int) analysis {
	t.Helper()
	var a analysis
	add := func(what string, vs ...float64) {
		for _, v := range vs {
			if math.IsNaN(v) {
				t.Fatalf("%s is NaN", what)
			}
		}
		a.vals = append(a.vals, vs...)
	}
	one := func(what string, f func() (float64, error)) {
		v, err := f()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		add(what, v)
	}
	one("E(T_A)", c.ExpectedTotalTimeInA)
	one("E(T_B)", c.ExpectedTotalTimeInB)
	sa, sb, err := c.SuccessiveSojournsBoth(sojourns)
	if err != nil {
		t.Fatal(err)
	}
	add("sojourns", append(sa, sb...)...)
	abs, err := c.AbsorptionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c.classes {
		add(name, abs[name])
	}
	one("clean", func() (float64, error) { return c.AbsorbedWithinA(clean...) })
	for _, swapped := range []bool{false, true} {
		s, err := c.successiveSojourns(sojourns, swapped)
		if err != nil {
			t.Fatal(err)
		}
		add("single sojourns", s...)
	}
	one("hit A", c.HitProbabilityA)
	one("hit B", c.HitProbabilityB)
	for k, f := range []matrix.Factorization{c.ft, c.fa, c.fb} {
		if f != nil {
			a.iters[k] = f.Stats().Iterations
		}
	}
	return a
}

// requireSameAnalysis fails unless two analyses agree bit for bit and
// spent the same iterations in every factorization.
func requireSameAnalysis(t testing.TB, got, want analysis) {
	t.Helper()
	if len(got.vals) != len(want.vals) {
		t.Fatalf("%d outputs, reference %d", len(got.vals), len(want.vals))
	}
	for i := range got.vals {
		if math.Float64bits(got.vals[i]) != math.Float64bits(want.vals[i]) {
			t.Fatalf("output %d = %v, reference %v (not bit-identical)", i, got.vals[i], want.vals[i])
		}
	}
	if got.iters != want.iters {
		t.Fatalf("iterations (T, A, B) = %v, reference %v", got.iters, want.iters)
	}
}

// randomSpec draws a chain over n states whose subsets A and B are
// interleaved in Ω and listed out of order, with three absorbing
// classes (one listed out of order). Transient rows cycle through
// shapes: no entry in one quadrant, no stored diagonal, a self-loop
// among several targets.
func randomSpec(r *rand.Rand, n int, emptyA, emptyB bool) Spec {
	var a, b, u, v, w []int
	for _, i := range r.Perm(n) {
		switch i % 7 {
		case 0, 3, 5:
			a = append(a, i)
		case 1, 4:
			b = append(b, i)
		case 2:
			u = append(u, i)
		case 6:
			if len(v) < len(w) {
				v = append(v, i)
			} else {
				w = append(w, i)
			}
		}
	}
	slices.Sort(u)
	slices.Sort(v)
	if emptyA {
		a, b = nil, append(b, a...)
	}
	if emptyB {
		a, b = append(a, b...), nil
	}
	isA := make(map[int]bool)
	for _, i := range a {
		isA[i] = true
	}
	absorbing := append(append(append([]int(nil), u...), v...), w...)
	full := matrix.NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		if !slices.Contains(a, i) && !slices.Contains(b, i) {
			_ = full.Add(i, i, 1)
			continue
		}
		targets := map[int]float64{}
		pick := func(from []int) {
			if len(from) > 0 {
				targets[from[r.Intn(len(from))]] += 0.05 + r.Float64()
			}
		}
		switch i % 4 {
		case 0: // nothing in the own subset's quadrant
			if isA[i] {
				pick(b)
			} else {
				pick(a)
			}
		case 1: // own quadrant only, no diagonal
			for k := 0; k < 3; k++ {
				if isA[i] {
					pick(a)
				} else {
					pick(b)
				}
			}
			delete(targets, i)
		case 2, 3: // everywhere, with a self-loop on case 3
			for k := 0; k < 4; k++ {
				pick(a)
				pick(b)
			}
			if i%4 == 3 {
				targets[i] += 0.3 + r.Float64()
			}
		}
		for k := 0; k < 1+r.Intn(2); k++ {
			pick(absorbing)
		}
		cols := slices.Sorted(maps.Keys(targets))
		var sum float64
		for _, j := range cols {
			sum += targets[j]
		}
		leak := 0.02 + 0.1*r.Float64()
		for _, j := range cols {
			_ = full.Add(i, j, (1-leak)*targets[j]/sum)
		}
		_ = full.Add(i, absorbing[r.Intn(len(absorbing))], leak)
	}
	alpha := make([]float64, n)
	for _, i := range append(append([]int(nil), a...), b...) {
		alpha[i] = r.Float64()
	}
	var s float64
	for _, x := range alpha {
		s += x
	}
	for i := range alpha {
		alpha[i] /= s
	}
	return Spec{
		Full: full.Build(), Alpha: alpha, SubsetA: a, SubsetB: b,
		AbsorbingClasses: map[string][]int{"u": u, "v": v, "w": w},
		ClassOrder:       []string{"w", "u", "v"},
	}
}

var referenceSolvers = []matrix.Solver{
	matrix.DenseSolver{}, matrix.BiCGSTABSolver{}, matrix.ILUSolver{}, matrix.AutoSolver{},
}

// TestViewsMatchReferenceChain compares every relation of a chain on
// views with the chain on copies, cold and warm-started, bit for bit.
func TestViewsMatchReferenceChain(t *testing.T) {
	for _, n := range []int{7, 40, 400} {
		for _, shape := range []struct {
			name           string
			emptyA, emptyB bool
		}{{"interleaved", false, false}, {"emptyA", true, false}, {"emptyB", false, true}} {
			for _, s := range referenceSolvers {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, shape.name, s.Name()), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(n)*13 + int64(len(shape.name))))
					spec := randomSpec(r, n, shape.emptyA, shape.emptyB)
					spec.Solver = s
					CompareWithReference(t, spec, []string{"u", "w"}, 4)
				})
			}
		}
	}
}

// CompareWithReference analyzes the chain of spec on views and on
// copies, cold and then seeded with the cold run's warm start, and
// fails unless every output and iteration count agrees.
func CompareWithReference(t testing.TB, spec Spec, clean []string, sojourns int) {
	t.Helper()
	var ws *WarmStart
	for _, warm := range []bool{false, true} {
		c, err := NewChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			c.SeedWarmStart(ws)
			ref.SeedWarmStart(ws)
		}
		got := analyzeAll(t, c, clean, sojourns)
		requireSameAnalysis(t, got, analyzeAll(t, ref, clean, sojourns))
		ws = c.RecordedWarmStart()
	}
}

func TestAbsorbedWithinARejectsRepeatedAndUnknownClasses(t *testing.T) {
	c := twoStateChain(t)
	want, err := c.AbsorbedWithinA("one")
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"one", "one"}, {"one", "two", "one"}, {"three"}, {"one", "three"}} {
		if got, err := c.AbsorbedWithinA(names...); err == nil {
			t.Errorf("AbsorbedWithinA(%q) = %v, want an error", names, got)
		}
	}
	if got, err := c.AbsorbedWithinA("two", "one"); err != nil || got < want {
		t.Errorf("AbsorbedWithinA(two, one) = %v, %v; want ≥ %v", got, err, want)
	}
	// The names are checked before anything else, also when A is empty.
	id := matrix.NewSparseBuilder(2, 2)
	_ = id.Add(0, 0, 1)
	_ = id.Add(1, 1, 1)
	empty, err := NewChain(Spec{
		Full:             id.Build(),
		Alpha:            []float64{1, 0},
		AbsorbingClasses: map[string][]int{"x": {0}, "y": {1}},
		ClassOrder:       []string{"x", "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.AbsorbedWithinA("x", "x"); err == nil {
		t.Error("repeated class on a chain without A: want an error")
	}
	if p, err := empty.AbsorbedWithinA("x"); err != nil || p != 0 {
		t.Errorf("chain without A: AbsorbedWithinA(x) = %v, %v; want 0", p, err)
	}
}

// MatrixBytes is the matrix storage a chain reaches — T and its views,
// the absorbing row sums, and every factorization's factors, transposes,
// splits and diagonals — summed from the lengths of the backing arrays,
// each address range counted once however many views share it.
func MatrixBytes(c *Chain) int {
	return storageBytes(c.tt, c.ma, c.mab, c.mba, c.mb, c.absorbing, c.ft, c.fa, c.fb)
}

// storageBytes sums the capacity in bytes of the slices reachable from
// roots, merging overlapping address ranges.
func storageBytes(roots ...any) int {
	type span struct{ lo, hi uintptr }
	var spans []span
	seen := make(map[uintptr]bool)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value())
			}
		case reflect.Slice:
			if v.Cap() == 0 {
				return
			}
			lo := v.Pointer()
			spans = append(spans, span{lo, lo + uintptr(v.Cap())*v.Type().Elem().Size()})
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Map, reflect.Array:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		}
	}
	for _, r := range roots {
		walk(reflect.ValueOf(r))
	}
	slices.SortFunc(spans, func(a, b span) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var total uintptr
	var cur span
	for _, s := range spans {
		if s.lo >= cur.hi {
			total += cur.hi - cur.lo
			cur = s
		} else if s.hi > cur.hi {
			cur.hi = s.hi
		}
	}
	return int(total + cur.hi - cur.lo)
}

// MatrixBound is what MatrixBytes may reach after a full analysis:
// bytes(T) + bytes(Tᵀ), the preconditioner of each factored block, and
// O(n) vectors — the row splits of T and Tᵀ and one row-sum vector per
// absorbing class. An ILU(0) block is granted its factors, except A,
// which reads T's and holds only where its rows end. A Gauss–Seidel
// block is granted 1/(1−M_ii) and the lower/upper splits of both
// orientations.
func MatrixBound(c *Chain) int {
	n := c.nA + c.nB
	csr := func(m *matrix.CSR) int { return 12*m.NNZ() + 8*(m.Rows()+1) }
	precond := func(f matrix.Factorization, m *matrix.CSR, shared bool) int {
		if f == nil {
			return 0
		}
		k := m.Rows()
		switch f.Stats().Backend {
		case "ilu":
			if shared {
				return 8 * k
			}
			return 12*(m.NNZ()+k) + 8*(k+1) + 8*k
		case "bicgstab":
			return 8*k + 2*16*k
		}
		panic("MatrixBound: unexpected backend " + f.Stats().Backend)
	}
	sharedA := c.ft != nil && c.ft.Stats().Backend == "ilu"
	return 2*csr(c.tt) +
		precond(c.ft, c.tt, false) + precond(c.fa, c.ma, sharedA) + precond(c.fb, c.mb, false) +
		8*n*(2+len(c.classes))
}

// ReferenceChain exposes referenceChain to the family tests.
var ReferenceChain = referenceChain

// TestMatrixBytesRandomChain checks the storage bound on random chains
// after a full analysis, and that the copy layout breaks it.
func TestMatrixBytesRandomChain(t *testing.T) {
	for _, s := range []matrix.Solver{matrix.BiCGSTABSolver{}, matrix.ILUSolver{}} {
		r := rand.New(rand.NewSource(3))
		spec := randomSpec(r, 3000, false, false)
		spec.Solver = s
		c, err := NewChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		analyzeAll(t, c, []string{"u"}, 3)
		if got, bound := MatrixBytes(c), MatrixBound(c); got > bound {
			t.Errorf("%s: chain reaches %d B of matrix storage, bound %d", s.Name(), got, bound)
		}
		ref, err := referenceChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		analyzeAll(t, ref, []string{"u"}, 3)
		if got, bound := MatrixBytes(ref), MatrixBound(ref); got <= bound {
			t.Errorf("%s: the copy layout reaches %d B, within the bound %d: the bound pins nothing", s.Name(), got, bound)
		}
	}
}
