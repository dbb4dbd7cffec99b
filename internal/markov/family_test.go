package markov_test

import (
	"fmt"
	"math"
	"testing"

	"targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/markov"
	"targetedattacks/internal/matrix"
)

// paperSpec is the Spec core.Model.Chain builds, and the model's clean
// classes (requireFamilyChain checks that they agree).
func paperSpec(t *testing.T, p core.Params, sc matrix.SolverConfig, dist core.InitialDistribution) (*core.Model, markov.Spec, []string) {
	t.Helper()
	m, err := core.NewWithSolver(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := m.Initial(dist)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp := m.Space()
	spec := markov.Spec{
		Full:    m.TransitionMatrix(),
		Alpha:   alpha,
		SubsetA: sp.IndicesOf(core.ClassSafe),
		SubsetB: sp.IndicesOf(core.ClassPolluted),
		AbsorbingClasses: map[string][]int{
			core.ClassNameSafeMerge:     sp.IndicesOf(core.ClassSafeMerge),
			core.ClassNameSafeSplit:     sp.IndicesOf(core.ClassSafeSplit),
			core.ClassNamePollutedMerge: sp.IndicesOf(core.ClassPollutedMerge),
			core.ClassNamePollutedSplit: sp.IndicesOf(core.ClassPollutedSplit),
		},
		ClassOrder: []string{
			core.ClassNameSafeMerge,
			core.ClassNameSafeSplit,
			core.ClassNamePollutedMerge,
			core.ClassNamePollutedSplit,
		},
		Solver: solver,
	}
	return m, spec, core.Instance{M: m}.CleanClasses()
}

// aptSpec is the Spec aptchain.Instance.Chain builds, and the family's
// clean classes (requireFamilyChain checks that they agree).
func aptSpec(t *testing.T, p aptchain.Params, sc matrix.SolverConfig, dist string) (*aptchain.Instance, markov.Spec, []string) {
	t.Helper()
	in, err := aptchain.New(p, sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := in.Initial(dist)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp := in.Space()
	var subsetA, subsetB []int
	for i := 0; i < sp.Size(); i++ {
		a, b := sp.At(i)
		switch {
		case !sp.Transient(i):
		case b == 0 && a >= 1:
			subsetA = append(subsetA, i)
		default:
			subsetB = append(subsetB, i)
		}
	}
	spec := markov.Spec{
		Full:    in.Matrix(),
		Alpha:   alpha,
		SubsetA: subsetA,
		SubsetB: subsetB,
		AbsorbingClasses: map[string][]int{
			aptchain.ClassNameEvicted:     {sp.MustIndex(0, 0)},
			aptchain.ClassNameCompromised: {sp.MustIndex(0, sp.N())},
		},
		ClassOrder: []string{aptchain.ClassNameEvicted, aptchain.ClassNameCompromised},
		Solver:     solver,
	}
	return in, spec, in.CleanClasses()
}

// requireFamilyChain checks that spec is the family's own: its analysis
// equals the one of the instance's chain bit for bit.
func requireFamilyChain(t *testing.T, spec markov.Spec, inst chainmodel.Instance, dist string) {
	t.Helper()
	own, err := inst.Chain(dist)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chainmodel.AnalyzeChain(own, inst.CleanClasses(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := markov.NewChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chainmodel.AnalyzeChain(c, inst.CleanClasses(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g := append([]float64{got.TimeInA, got.TimeInB, got.HitProbability}, append(got.SojournsA, got.SojournsB...)...)
	w := append([]float64{want.TimeInA, want.TimeInB, want.HitProbability}, append(want.SojournsA, want.SojournsB...)...)
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("the test's Spec is not the family's: output %d = %v, family %v", i, g[i], w[i])
		}
	}
}

var familySolvers = []string{"dense", "bicgstab", "ilu", "auto"}

// TestPaperModelMatchesReferenceChain runs every relation of the paper
// model on views and on copies, fast- and slow-mixing, for both initial
// distributions, and requires bit-identical outputs and iterations.
func TestPaperModelMatchesReferenceChain(t *testing.T) {
	for _, d := range []float64{0.5, 0.9} {
		for _, dist := range []core.InitialDistribution{core.DistributionDelta, core.DistributionBeta} {
			for _, kind := range familySolvers {
				t.Run(fmt.Sprintf("d=%g/%s/%s", d, dist, kind), func(t *testing.T) {
					p := core.Params{C: 8, Delta: 8, K: 1, Mu: 0.2, D: d, Nu: 0.1}
					m, spec, clean := paperSpec(t, p, matrix.SolverConfig{Kind: kind}, dist)
					requireFamilyChain(t, spec, core.Instance{M: m}, dist.Name())
					markov.CompareWithReference(t, spec, clean, 4)
				})
			}
		}
	}
}

// TestAPTMatchesReferenceChain is the apt-compromise counterpart.
func TestAPTMatchesReferenceChain(t *testing.T) {
	for _, dist := range []string{aptchain.DistFoothold, aptchain.DistBlitz} {
		for _, kind := range familySolvers {
			t.Run(fmt.Sprintf("%s/%s", dist, kind), func(t *testing.T) {
				p := aptchain.Params{N: 30, Theta: 0.4, Phi: 0.6, Rho: 0.2, Detect: 0.1}
				in, spec, clean := aptSpec(t, p, matrix.SolverConfig{Kind: kind}, dist)
				requireFamilyChain(t, spec, in, dist)
				markov.CompareWithReference(t, spec, clean, 4)
			})
		}
	}
}

// TestChainMatrixStorage pins the saving of one stored transient block
// on any host: after a full analysis, the matrix storage a chain reaches,
// counted from its arrays' lengths, stays within bytes(T) + bytes(Tᵀ) +
// preconditioner storage + O(n) vectors (markov.MatrixBound), while the
// layout with separate quadrant copies, transposes and ILU(0) factors
// exceeds it.
func TestChainMatrixStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a C=∆=40 chain")
	}
	paper := func(t *testing.T) (markov.Spec, []string) {
		p := core.Params{C: 40, Delta: 40, K: 1, Mu: 0.2, D: 0.5, Nu: 0.1}
		_, spec, clean := paperSpec(t, p, matrix.SolverConfig{Kind: "bicgstab"}, core.DistributionDelta)
		return spec, clean
	}
	apt := func(t *testing.T) (markov.Spec, []string) {
		p := aptchain.Params{N: 30, Theta: 0.4, Phi: 0.6, Rho: 0.2, Detect: 0.1}
		_, spec, clean := aptSpec(t, p, matrix.SolverConfig{Kind: "ilu"}, aptchain.DistFoothold)
		return spec, clean
	}
	for name, build := range map[string]func(*testing.T) (markov.Spec, []string){
		"paper C=∆=40 bicgstab": paper,
		"apt n=30 ilu":          apt,
	} {
		t.Run(name, func(t *testing.T) {
			spec, clean := build(t)
			for _, reference := range []bool{false, true} {
				newChain := markov.NewChain
				if reference {
					newChain = markov.ReferenceChain
				}
				c, err := newChain(spec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := chainmodel.AnalyzeChain(c, clean, 2); err != nil {
					t.Fatal(err)
				}
				got, bound := markov.MatrixBytes(c), markov.MatrixBound(c)
				t.Logf("reference=%v: %d B of matrix storage, bound %d B", reference, got, bound)
				if !reference && got > bound {
					t.Errorf("the chain reaches %d B of matrix storage, above the bound %d B", got, bound)
				}
				if reference && got <= bound {
					t.Errorf("the copy layout reaches %d B, within the bound %d B: the bound pins nothing", got, bound)
				}
			}
		})
	}
}
