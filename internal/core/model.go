package core

import (
	"fmt"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/markov"
	"targetedattacks/internal/matrix"
)

// Model ties together the parameters, state space and transition matrix of
// the cluster Markov chain and exposes the paper's closed-form analyses.
type Model struct {
	params Params
	space  *Space
	m      *matrix.CSR
	solver matrix.Solver
}

// New validates p and builds the model (state space + transition matrix)
// with the exact dense LU solver backend. Build options (WithBuildPool)
// tune the transition-matrix construction without changing its output.
func New(p Params, opts ...BuildOption) (*Model, error) {
	return NewWithSolver(p, matrix.SolverConfig{}, opts...)
}

// NewWithSolver is New with an explicit linear-solver backend for the
// closed-form analyses. The sparse backends ("sparse"/"bicgstab", "ilu",
// "auto") keep the whole pipeline CSR-only, which is what makes
// large-cluster state spaces (thousands of transient states) affordable;
// WithBuildPool parallelizes the construction of those state spaces'
// transition matrices the same way.
func NewWithSolver(p Params, sc matrix.SolverConfig, opts ...BuildOption) (*Model, error) {
	solver, err := sc.Build()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m, sp, err := BuildTransitionMatrix(p, opts...)
	if err != nil {
		return nil, err
	}
	return &Model{params: p, space: sp, m: m, solver: solver}, nil
}

// Params returns the model parameters.
func (m *Model) Params() Params { return m.params }

// SolverName reports the linear-solver backend of the analyses.
func (m *Model) SolverName() string { return m.solver.Name() }

// Space returns the state space Ω.
func (m *Model) Space() *Space { return m.space }

// TransitionMatrix returns the full transition matrix over Ω.
func (m *Model) TransitionMatrix() *matrix.CSR { return m.m }

// Chain assembles the absorbing-chain view (S, P, absorbing classes) for
// an initial distribution alpha over Ω.
func (m *Model) Chain(alpha []float64) (*markov.Chain, error) {
	if len(alpha) != m.space.Size() {
		return nil, fmt.Errorf("core: alpha has length %d, want |Ω| = %d", len(alpha), m.space.Size())
	}
	return markov.NewChain(markov.Spec{
		Full:    m.m,
		Alpha:   alpha,
		SubsetA: m.space.IndicesOf(ClassSafe),
		SubsetB: m.space.IndicesOf(ClassPolluted),
		AbsorbingClasses: map[string][]int{
			ClassNameSafeMerge:     m.space.IndicesOf(ClassSafeMerge),
			ClassNameSafeSplit:     m.space.IndicesOf(ClassSafeSplit),
			ClassNamePollutedMerge: m.space.IndicesOf(ClassPollutedMerge),
			ClassNamePollutedSplit: m.space.IndicesOf(ClassPollutedSplit),
		},
		ClassOrder: []string{
			ClassNameSafeMerge,
			ClassNameSafeSplit,
			ClassNamePollutedMerge,
			ClassNamePollutedSplit,
		},
		Solver: m.solver,
	})
}

// Analysis aggregates every closed-form quantity of Sections VII-B..E for
// one initial distribution.
type Analysis struct {
	// ExpectedSafeTime is E(T_S^k) (relation (5)).
	ExpectedSafeTime float64
	// ExpectedPollutedTime is E(T_P^k) (relation (6)).
	ExpectedPollutedTime float64
	// SafeSojourns[i] is E(T_S,i+1) (relation (7)).
	SafeSojourns []float64
	// PollutedSojourns[i] is E(T_P,i+1) (relation (8)).
	PollutedSojourns []float64
	// Absorption maps each absorbing class to its absorption probability
	// (relation (9)).
	Absorption map[string]float64
	// PollutionProbability is the probability that the cluster is EVER
	// polluted before absorption — the total mass of the paper's entry
	// vector w (relation (6)). Not printed in the paper but implied by
	// its machinery; useful as an operator-facing risk metric.
	PollutionProbability float64
	// Solver summarizes the linear-solver work behind this analysis:
	// the backend that served it, its cumulative iterative-solver
	// iterations, and any sparse→dense fallback of the auto backend.
	Solver matrix.SolveStats
}

// Analyze computes the full Analysis for an initial distribution alpha,
// with sojourns expectations for the first nSojourns visits.
func (m *Model) Analyze(alpha []float64, nSojourns int) (*Analysis, error) {
	ch, err := m.Chain(alpha)
	if err != nil {
		return nil, err
	}
	return analyzeChain(ch, nSojourns)
}

// analyzeChain runs every closed-form relation on an assembled chain.
// The whole sequence — E(T_S), E(T_P), the lockstep sojourn recursions
// (relations (7) and (8) in one pass), absorption probabilities, and
// "ever polluted" as the complement of a safe all-S absorption — lives
// in the generic chainmodel.AnalyzeChain; this wrapper only renames its
// model-free fields into the paper's vocabulary.
func analyzeChain(ch *markov.Chain, nSojourns int) (*Analysis, error) {
	a, err := chainmodel.AnalyzeChain(ch, cleanClassNames(), nSojourns)
	if err != nil {
		return nil, err
	}
	return analysisFromGeneric(a), nil
}

// cleanClassNames lists the absorbing classes a never-polluted cluster
// can die into.
func cleanClassNames() []string {
	return []string{ClassNameSafeMerge, ClassNameSafeSplit}
}

// analysisFromGeneric renames a model-free chainmodel.Analysis into the
// paper's vocabulary (subset A = safe, subset B = polluted). The slices
// and map are shared, not copied: the generic analysis is single-use.
func analysisFromGeneric(a *chainmodel.Analysis) *Analysis {
	return &Analysis{
		ExpectedSafeTime:     a.TimeInA,
		ExpectedPollutedTime: a.TimeInB,
		SafeSojourns:         a.SojournsA,
		PollutedSojourns:     a.SojournsB,
		Absorption:           a.Absorption,
		PollutionProbability: a.HitProbability,
		Solver:               a.Solver,
	}
}

// AnalyzeNamed is Analyze for one of the paper's named initial
// distributions.
func (m *Model) AnalyzeNamed(d InitialDistribution, nSojourns int) (*Analysis, error) {
	alpha, err := m.Initial(d)
	if err != nil {
		return nil, err
	}
	return m.Analyze(alpha, nSojourns)
}

// TransientIndicator returns the 0/1 vector over Ω marking states of the
// given class (used by the overlay-level computations of Section VIII).
func (m *Model) TransientIndicator(cl Class) []float64 {
	out := make([]float64, m.space.Size())
	for _, i := range m.space.IndicesOf(cl) {
		out[i] = 1
	}
	return out
}
