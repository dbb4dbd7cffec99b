// Package core implements the analytical model of the DSN 2011 paper
// "Modeling and Evaluating Targeted Attacks in Large Scale Dynamic
// Systems" (Anceaume, Sericola, Ludinard, Tronel).
//
// A cluster of a structured overlay is described by the triple
// (s, x, y): the current spare-set size, the number of malicious peers in
// the core set (of constant size C) and the number of malicious peers in
// the spare set. Cluster evolution under join/leave events, the robust
// overlay operations of Section IV (protocol_k) and the adversarial
// strategy of Section V (Rules 1 and 2, Property 1) forms a finite
// absorbing Markov chain; this package builds its exact transition matrix
// (the paper's Figure 2) and exposes the closed-form analyses of
// Sections VI and VII.
package core

import (
	"fmt"
)

// Params are the model parameters of the paper.
type Params struct {
	// C is the constant size of a cluster's core set (paper: C, with
	// pollution quorum c = ⌊(C−1)/3⌋).
	C int
	// Delta is the maximal spare-set size ∆ = Smax − C. A cluster splits
	// when its spare set reaches ∆ and merges when it reaches 0.
	Delta int
	// Mu is µ, the fraction of malicious peers in the universe; each
	// joining peer is malicious with probability µ.
	Mu float64
	// D is d, the per-unit-time probability that a peer identifier has
	// not expired (Property 1). Larger d means weaker induced churn.
	D float64
	// K is the amount of randomization of the leave operation: on a core
	// departure, k−1 random core members are pushed to the spare set and
	// k random spares promoted (protocol_k, 1 ≤ k ≤ C).
	K int
	// Nu is ν, the threshold of the adversarial leave strategy (Rule 1):
	// the adversary triggers a voluntary core leave when the probability
	// of strictly increasing its core representation exceeds 1−ν.
	Nu float64
}

// DefaultParams returns the configuration used throughout the paper's
// evaluation: C = 7, ∆ = 7, protocol_1. ν is not given a numeric value in
// the paper; 0.1 is this reproduction's default (see DESIGN.md and the
// ν-sensitivity ablation).
func DefaultParams() Params {
	return Params{C: 7, Delta: 7, Mu: 0, D: 0, K: 1, Nu: 0.1}
}

// Validate checks parameter ranges. The interval checks are written
// negated so that NaN, which fails every comparison, is rejected too.
func (p Params) Validate() error {
	if p.C < 1 {
		return fmt.Errorf("core: C must be ≥ 1, got %d", p.C)
	}
	if p.Delta < 2 {
		return fmt.Errorf("core: Delta must be ≥ 2 so that transient states exist, got %d", p.Delta)
	}
	if !(p.Mu >= 0 && p.Mu <= 1) {
		return fmt.Errorf("core: Mu must be in [0,1], got %v", p.Mu)
	}
	if !(p.D >= 0 && p.D < 1) {
		return fmt.Errorf("core: D must be in [0,1), got %v", p.D)
	}
	if p.K < 1 || p.K > p.C {
		return fmt.Errorf("core: K must be in [1,C]=[1,%d], got %d", p.C, p.K)
	}
	if !(p.Nu > 0 && p.Nu < 1) {
		return fmt.Errorf("core: Nu must be in (0,1), got %v", p.Nu)
	}
	return nil
}

// Quorum returns c = ⌊(C−1)/3⌋: a cluster is polluted when strictly more
// than c core members are malicious (Byzantine agreement bound, Section V).
func (p Params) Quorum() int {
	return (p.C - 1) / 3
}

// String renders the parameters in the paper's notation.
func (p Params) String() string {
	return fmt.Sprintf("protocol_%d(C=%d, ∆=%d, µ=%.3f, d=%.3f, ν=%.3f)",
		p.K, p.C, p.Delta, p.Mu, p.D, p.Nu)
}
