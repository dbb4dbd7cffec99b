package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"targetedattacks/internal/matrix"
)

func TestSpaceSizePaperFigure1(t *testing.T) {
	// Paper, Figure 1 caption: "For C = 7 and ∆ = 7, we have 288 states."
	sp, err := NewSpace(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Size() != 288 {
		t.Errorf("|Ω| = %d, want 288", sp.Size())
	}
}

func TestSpaceCensus(t *testing.T) {
	sp, err := NewSpace(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	census := sp.Census()
	// Transient states have 0 < s < 7 (8 x-values, s+1 y-values each):
	// Σ_{s=1..6} 8(s+1) = 216; safe are x ≤ 2 (3 of 8) → 81, polluted 135.
	want := map[Class]int{
		ClassSafe:          81,
		ClassPolluted:      135,
		ClassSafeMerge:     3,
		ClassPollutedMerge: 5,
		ClassSafeSplit:     24,
		ClassPollutedSplit: 40,
	}
	for cl, n := range want {
		if census[cl] != n {
			t.Errorf("census[%v] = %d, want %d", cl, census[cl], n)
		}
	}
	var total int
	for _, n := range census {
		total += n
	}
	if total != 288 {
		t.Errorf("census total = %d, want 288", total)
	}
}

func TestSpaceSizeFormula(t *testing.T) {
	// |Ω| = (C+1) · Σ_{s=0..∆} (s+1) = (C+1)(∆+1)(∆+2)/2.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 1 + r.Intn(10)
		delta := 1 + r.Intn(10)
		sp, err := NewSpace(c, delta)
		if err != nil {
			return false
		}
		return sp.Size() == (c+1)*(delta+1)*(delta+2)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSpaceIndexRoundTrip(t *testing.T) {
	sp, err := NewSpace(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sp.States() {
		j, ok := sp.Index(st)
		if !ok || j != i {
			t.Fatalf("Index(%v) = %d,%v, want %d,true", st, j, ok, i)
		}
		if sp.At(i) != st {
			t.Fatalf("At(%d) = %v, want %v", i, sp.At(i), st)
		}
	}
	if _, ok := sp.Index(State{S: 99, X: 0, Y: 0}); ok {
		t.Error("out-of-space state must not index")
	}
}

func TestSpaceIndexClosedForm(t *testing.T) {
	// The closed-form index must reproduce the enumeration order exactly
	// for every geometry, and reject every state outside Ω — including
	// the in-bounds-looking y > s corner that a pure range check on the
	// three coordinates separately would accept.
	for _, geo := range []struct{ c, delta int }{
		{1, 1}, {1, 7}, {7, 1}, {7, 7}, {3, 9}, {9, 3}, {12, 10},
	} {
		sp, err := NewSpace(geo.c, geo.delta)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range sp.States() {
			if j := sp.MustIndex(st); j != i {
				t.Fatalf("C=%d ∆=%d: MustIndex(%v) = %d, want %d", geo.c, geo.delta, st, j, i)
			}
		}
		for _, bad := range []State{
			{S: -1, X: 0, Y: 0},
			{S: geo.delta + 1, X: 0, Y: 0},
			{S: 0, X: -1, Y: 0},
			{S: 0, X: geo.c + 1, Y: 0},
			{S: 0, X: 0, Y: -1},
			{S: 1, X: 0, Y: 2}, // y > s
			{S: geo.delta, X: 0, Y: geo.delta + 1},
		} {
			if _, ok := sp.Index(bad); ok {
				t.Errorf("C=%d ∆=%d: Index(%v) accepted an out-of-space state", geo.c, geo.delta, bad)
			}
		}
	}
}

func BenchmarkSpaceIndex(b *testing.B) {
	// Row emission probes the index once per transition; this measures the
	// closed-form lookup that replaced the former hash map (ROADMAP bound
	// (ii): hash lookups dominated row emission at large C, ∆).
	sp, err := NewSpace(40, 40)
	if err != nil {
		b.Fatal(err)
	}
	states := sp.States()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += sp.MustIndex(states[i%len(states)])
	}
	_ = sink
}

func TestMustIndexPanics(t *testing.T) {
	sp, err := NewSpace(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on invalid state must panic")
		}
	}()
	sp.MustIndex(State{S: -1, X: 0, Y: 0})
}

func TestClassify(t *testing.T) {
	sp, err := NewSpace(7, 7) // quorum c = 2
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		st   State
		want Class
	}{
		{State{3, 0, 0}, ClassSafe},
		{State{3, 2, 1}, ClassSafe},
		{State{3, 3, 0}, ClassPolluted},
		{State{1, 7, 1}, ClassPolluted},
		{State{0, 2, 0}, ClassSafeMerge},
		{State{0, 3, 0}, ClassPollutedMerge},
		{State{7, 2, 4}, ClassSafeSplit},
		{State{7, 5, 0}, ClassPollutedSplit},
	}
	for _, tt := range tests {
		if got := sp.Classify(tt.st); got != tt.want {
			t.Errorf("Classify(%v) = %v, want %v", tt.st, got, tt.want)
		}
	}
}

func TestClassStringAndTransient(t *testing.T) {
	if ClassSafe.String() != "S" || ClassPolluted.String() != "P" {
		t.Error("transient class names wrong")
	}
	if !ClassSafe.Transient() || !ClassPolluted.Transient() {
		t.Error("S and P must be transient")
	}
	for _, cl := range []Class{ClassSafeMerge, ClassSafeSplit, ClassPollutedMerge, ClassPollutedSplit} {
		if cl.Transient() {
			t.Errorf("%v must not be transient", cl)
		}
		if cl.AbsorbingName() == "" {
			t.Errorf("%v must have an absorbing name", cl)
		}
	}
	if ClassSafe.AbsorbingName() != "" {
		t.Error("transient class must have empty absorbing name")
	}
	if Class(42).String() == "" {
		t.Error("unknown class must render something")
	}
}

func TestIndicesOfDisjointAndComplete(t *testing.T) {
	sp, err := NewSpace(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, cl := range []Class{
		ClassSafe, ClassPolluted,
		ClassSafeMerge, ClassSafeSplit, ClassPollutedMerge, ClassPollutedSplit,
	} {
		for _, i := range sp.IndicesOf(cl) {
			if seen[i] {
				t.Fatalf("state %d in two classes", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != sp.Size() {
		t.Errorf("classes cover %d states, want %d", len(seen), sp.Size())
	}
}

func TestNewSpaceErrors(t *testing.T) {
	if _, err := NewSpace(0, 3); err == nil {
		t.Error("C=0: want error")
	}
	if _, err := NewSpace(3, 0); err == nil {
		t.Error("∆=0: want error")
	}
}

func TestStateString(t *testing.T) {
	if s := (State{1, 2, 3}).String(); s != "(1,2,3)" {
		t.Errorf("State.String() = %q", s)
	}
}

func TestParamsValidate(t *testing.T) {
	valid := DefaultParams()
	if err := valid.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"C too small", func(p *Params) { p.C = 0 }},
		{"Delta too small", func(p *Params) { p.Delta = 1 }},
		{"Mu negative", func(p *Params) { p.Mu = -0.1 }},
		{"Mu above one", func(p *Params) { p.Mu = 1.1 }},
		{"D negative", func(p *Params) { p.D = -0.1 }},
		{"D one", func(p *Params) { p.D = 1 }},
		{"K zero", func(p *Params) { p.K = 0 }},
		{"K above C", func(p *Params) { p.K = 8 }},
		{"Nu zero", func(p *Params) { p.Nu = 0 }},
		{"Nu one", func(p *Params) { p.Nu = 1 }},
		// NaN fails every comparison, so the interval checks must be
		// written to reject it rather than to accept the complement.
		{"Mu NaN", func(p *Params) { p.Mu = math.NaN() }},
		{"Mu +Inf", func(p *Params) { p.Mu = math.Inf(1) }},
		{"Mu -Inf", func(p *Params) { p.Mu = math.Inf(-1) }},
		{"D NaN", func(p *Params) { p.D = math.NaN() }},
		{"D +Inf", func(p *Params) { p.D = math.Inf(1) }},
		{"D -Inf", func(p *Params) { p.D = math.Inf(-1) }},
		{"Nu NaN", func(p *Params) { p.Nu = math.NaN() }},
		{"Nu +Inf", func(p *Params) { p.Nu = math.Inf(1) }},
		{"Nu -Inf", func(p *Params) { p.Nu = math.Inf(-1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := valid
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("want error, got nil")
			}
			if _, err := NewWithSolver(p, matrix.SolverConfig{Kind: "bicgstab"}); err == nil {
				t.Error("NewWithSolver built a model from invalid parameters")
			}
		})
	}
}

func TestQuorum(t *testing.T) {
	for _, tt := range []struct{ c, want int }{
		{7, 2}, {4, 1}, {10, 3}, {13, 4}, {1, 0},
	} {
		p := Params{C: tt.c}
		if got := p.Quorum(); got != tt.want {
			t.Errorf("Quorum(C=%d) = %d, want %d", tt.c, got, tt.want)
		}
	}
}

func TestParamsString(t *testing.T) {
	if s := DefaultParams().String(); s == "" {
		t.Error("Params.String() empty")
	}
}
