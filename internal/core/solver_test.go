package core

import (
	"fmt"
	"math"
	"testing"

	"targetedattacks/internal/matrix"
)

// closeTo reports |a−b| ≤ tol·max(1, |a|, |b|): absolute agreement for
// O(1) quantities (probabilities), relative agreement for the large
// expected-time values of high-survival grids.
func closeTo(a, b, tol float64) bool {
	scale := 1.0
	if s := math.Abs(a); s > scale {
		scale = s
	}
	if s := math.Abs(b); s > scale {
		scale = s
	}
	return math.Abs(a-b) <= tol*scale
}

// assertAnalysesAgree compares every Analysis field to tol.
func assertAnalysesAgree(t *testing.T, label string, want, got *Analysis, tol float64) {
	t.Helper()
	check := func(name string, a, b float64) {
		t.Helper()
		if !closeTo(a, b, tol) {
			t.Errorf("%s: %s = %v (dense) vs %v (sparse), Δ = %.3g", label, name, a, b, math.Abs(a-b))
		}
	}
	check("E(T_S)", want.ExpectedSafeTime, got.ExpectedSafeTime)
	check("E(T_P)", want.ExpectedPollutedTime, got.ExpectedPollutedTime)
	check("P(ever polluted)", want.PollutionProbability, got.PollutionProbability)
	if len(want.SafeSojourns) != len(got.SafeSojourns) || len(want.PollutedSojourns) != len(got.PollutedSojourns) {
		t.Fatalf("%s: sojourn lengths differ", label)
	}
	for i := range want.SafeSojourns {
		check(fmt.Sprintf("E(T_S,%d)", i+1), want.SafeSojourns[i], got.SafeSojourns[i])
	}
	for i := range want.PollutedSojourns {
		check(fmt.Sprintf("E(T_P,%d)", i+1), want.PollutedSojourns[i], got.PollutedSojourns[i])
	}
	for name, p := range want.Absorption {
		check("p("+name+")", p, got.Absorption[name])
	}
}

// TestSolverEquivalenceOnPaperGrid is the property-style cross-check of
// the tentpole refactor: on the paper's printed (k, µ, d) grid (C = ∆ =
// 7, Figure 3 / Table I axes) every sparse backend must reproduce the
// dense LU Analysis — all fields — to 1e-9 under both named initial
// distributions.
func TestSolverEquivalenceOnPaperGrid(t *testing.T) {
	sparse := []matrix.SolverConfig{
		{Kind: "bicgstab", Tol: 1e-13},
		{Kind: "ilu", Tol: 1e-13},
		{Kind: "auto", Tol: 1e-13},
	}
	for _, k := range []int{1, 2, 7} {
		for _, mu := range []float64{0.1, 0.2, 0.3} {
			for _, d := range []float64{0.5, 0.8, 0.9} {
				p := DefaultParams()
				p.K, p.Mu, p.D = k, mu, d
				dense, err := New(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, dist := range []InitialDistribution{DistributionDelta, DistributionBeta} {
					want, err := dense.AnalyzeNamed(dist, 2)
					if err != nil {
						t.Fatalf("%v dense: %v", p, err)
					}
					for _, sc := range sparse {
						m, err := NewWithSolver(p, sc)
						if err != nil {
							t.Fatal(err)
						}
						got, err := m.AnalyzeNamed(dist, 2)
						if err != nil {
							t.Fatalf("%v %s: %v", p, sc.Kind, err)
						}
						assertAnalysesAgree(t, fmt.Sprintf("%v α=%v %s", p, dist, sc.Kind), want, got, 1e-9)
					}
				}
			}
		}
	}
}

// TestSolverEquivalenceStress9 pins the acceptance point of the sparse
// path at the 550-state stress sweep size: C = ∆ = 9 across the stress
// grid, sparse vs dense to 1e-9.
func TestSolverEquivalenceStress9(t *testing.T) {
	for _, k := range []int{1, 9} {
		for _, mu := range []float64{0.1, 0.3} {
			for _, d := range []float64{0.5, 0.9} {
				p := Params{C: 9, Delta: 9, Mu: mu, D: d, K: k, Nu: 0.1}
				dense, err := New(p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := dense.AnalyzeNamed(DistributionDelta, 1)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewWithSolver(p, matrix.SolverConfig{Kind: "sparse", Tol: 1e-13})
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.AnalyzeNamed(DistributionDelta, 1)
				if err != nil {
					t.Fatalf("%v sparse: %v", p, err)
				}
				assertAnalysesAgree(t, p.String(), want, got, 1e-9)
			}
		}
	}
}

func TestNewWithSolverRejectsUnknownKind(t *testing.T) {
	if _, err := NewWithSolver(DefaultParams(), matrix.SolverConfig{Kind: "qr"}); err == nil {
		t.Error("unknown solver kind: want error")
	}
	m, err := NewWithSolver(DefaultParams(), matrix.SolverConfig{Kind: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if m.SolverName() != "auto" {
		t.Errorf("SolverName = %q, want auto", m.SolverName())
	}
}
