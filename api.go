package targetedattacks

import (
	"context"

	// Registers the APT compromise-chain family so ModelFamilies and
	// LookupModelFamily see every built-in model.
	_ "targetedattacks/internal/aptchain"
	"targetedattacks/internal/attackd"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/combin"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/experiments"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/montecarlo"
	"targetedattacks/internal/overlay"
	"targetedattacks/internal/sweep"
)

// Re-exported model types. The analytical engine lives in internal
// packages; these aliases form the stable public surface.
type (
	// Params are the model parameters (C, ∆, µ, d, k, ν).
	Params = core.Params
	// State is a cluster state (s, x, y).
	State = core.State
	// Class partitions the state space (safe, polluted, closed classes).
	Class = core.Class
	// Model is the cluster Markov-chain model.
	Model = core.Model
	// Analysis bundles the closed-form results for one initial
	// distribution.
	Analysis = core.Analysis
	// InitialDistribution selects one of the paper's initial
	// distributions (δ or β).
	InitialDistribution = core.InitialDistribution
	// Overlay is the n-cluster competing-chains view (Section VIII).
	Overlay = overlay.CompetingChains
	// OverlayPoint is one sample of the overlay proportions series.
	OverlayPoint = overlay.Point
	// Simulator is the Monte-Carlo cluster simulator.
	Simulator = montecarlo.Simulator
	// Trajectory is one simulated cluster lifetime.
	Trajectory = montecarlo.Trajectory
	// SimulationSummary aggregates Monte-Carlo runs.
	SimulationSummary = montecarlo.Summary
	// Pool is the worker-pool execution engine under every parallel
	// entry point: Monte-Carlo batches (Simulator.RunBatch and
	// Simulator.RunManyBatch) and experiment scenario sweeps. Results
	// are deterministic for a fixed seed, whatever the pool width.
	Pool = engine.Pool
	// SolverConfig selects the linear-solver backend of the closed-form
	// analytics: the exact dense LU (the zero value) or a sparse
	// iterative path ("sparse"/"bicgstab", "ilu", "auto") that
	// never densifies the transition matrix and keeps state spaces with
	// thousands of transient states affordable. "ilu" preconditions
	// BiCGSTAB with a zero-fill ILU(0) factorization — the slow-mixing
	// d → 1 regime; "auto" probes each block's mixing speed and chooses.
	SolverConfig = matrix.SolverConfig
	// SolveStats reports what the solver layer did during an Analysis:
	// the backend that answered (after any auto selection), total
	// iterative-solver iterations, and sparse-to-dense fallbacks with
	// their reason. Available as Analysis.Solver.
	SolveStats = matrix.SolveStats
	// WarmStart carries the converged solution vectors of one chain's
	// analysis so a neighboring parameter point can seed its iterative
	// solves from them; grid evaluations chain them along warm-start
	// lanes when ModelSweepOptions.WarmStart is set.
	WarmStart = chainmodel.WarmStart
	// BuildOption tunes the construction of the transition matrix in
	// NewModel / NewModelWithSolver (see WithBuildPool, WithSharedSpace,
	// WithRule1Gains).
	BuildOption = core.BuildOption
	// SimPlan is a simulation-sweep grid: strategy × µ × d × population
	// sizes of whole-system overlay runs, each cell aggregating
	// Monte-Carlo replicas; evaluated by EvaluateSimSweep.
	SimPlan = sweep.SimPlan
	// SimOptions tunes a simulation-sweep evaluation (pool, streaming
	// callback).
	SimOptions = sweep.SimOptions
	// SimResult is the deterministic outcome of a simulation sweep.
	SimResult = sweep.SimResultSet
	// SimCell is one simulation cell's aggregated outcome.
	SimCell = sweep.SimCellResult
	// Rule1Gains is the precomputed relation (2) gain table of one
	// (C, ∆, k): the reusable half of a row structure that parameter
	// sweeps share across cells (see ComputeRule1Gains).
	Rule1Gains = core.Rule1Gains
	// Space is the enumerated state space Ω(C, ∆); immutable, so one
	// enumeration can back many model builds (see WithSharedSpace).
	Space = core.Space
	// ModelFamily is one registered absorbing-chain model: its parameter
	// space, state space and the sweep structure the amortized evaluator
	// exploits. The paper model registers as "targeted-attack", the APT
	// compromise chain as "apt-compromise"; see ModelFamilies.
	ModelFamily = chainmodel.Family
	// ModelInstance is one analyzable chain of a family (a built
	// transition matrix plus its transient/absorbing partition).
	ModelInstance = chainmodel.Instance
	// ModelAnalysis bundles the closed-form results of any family in
	// model-free vocabulary (times and sojourns in the transient subsets
	// A and B, absorption per named class, hit probability of B).
	ModelAnalysis = chainmodel.Analysis
	// ModelSweepPlan is a model-agnostic parameter grid: a family plus
	// its cells in canonical order, evaluated by EvaluateModelSweep.
	ModelSweepPlan = sweep.ModelPlan
	// ModelSweepOptions tunes a model-agnostic grid evaluation.
	ModelSweepOptions = sweep.ModelOptions
	// ModelSweepResult is the deterministic outcome of a model-agnostic
	// grid evaluation.
	ModelSweepResult = sweep.ModelResultSet
	// ModelSweepCell is one cell's outcome inside a ModelSweepResult.
	ModelSweepCell = sweep.ModelCellResult
)

// Initial distributions of the paper (Section VII-A).
const (
	// DistributionDelta starts from (⌊∆/2⌋, 0, 0): no malicious peers.
	DistributionDelta = core.DistributionDelta
	// DistributionBeta starts with binomial malicious populations.
	DistributionBeta = core.DistributionBeta
)

// State classes of the partition of Ω (Section VI).
const (
	ClassSafe          = core.ClassSafe
	ClassPolluted      = core.ClassPolluted
	ClassSafeMerge     = core.ClassSafeMerge
	ClassSafeSplit     = core.ClassSafeSplit
	ClassPollutedMerge = core.ClassPollutedMerge
	ClassPollutedSplit = core.ClassPollutedSplit
)

// Absorbing class names as used in Analysis.Absorption.
const (
	ClassNameSafeMerge     = core.ClassNameSafeMerge
	ClassNameSafeSplit     = core.ClassNameSafeSplit
	ClassNamePollutedMerge = core.ClassNamePollutedMerge
	ClassNamePollutedSplit = core.ClassNamePollutedSplit
)

// DefaultParams returns the paper's evaluation configuration
// (C = 7, ∆ = 7, protocol_1, ν = 0.1).
func DefaultParams() Params { return core.DefaultParams() }

// NewModel validates p and builds the cluster model: its state space Ω
// and the exact transition matrix of the paper's Figure 2. Analyses use
// the exact dense LU solver; use NewModelWithSolver for the sparse path.
func NewModel(p Params, opts ...BuildOption) (*Model, error) { return core.New(p, opts...) }

// NewModelWithSolver is NewModel with an explicit linear-solver backend,
// e.g. SolverConfig{Kind: "sparse"} for the iterative CSR path that makes
// large C/∆ state spaces affordable.
func NewModelWithSolver(p Params, sc SolverConfig, opts ...BuildOption) (*Model, error) {
	return core.NewWithSolver(p, sc, opts...)
}

// WithBuildPool fans the per-row construction of the transition matrix
// across pool. Rows are emitted into row-local builders and concatenated
// deterministically, so the resulting matrix is bit-identical to a serial
// build for any pool width; at C = ∆ ≥ 40 (tens of thousands of states)
// construction parallelism is what keeps model creation interactive.
func WithBuildPool(pool *Pool) BuildOption { return core.WithBuildPool(pool) }

// WithSharedSpace reuses a pre-enumerated state space across model
// builds at fixed (C, ∆) — a Space is immutable, so one enumeration can
// back every cell of a parameter sweep.
func WithSharedSpace(sp *Space) BuildOption { return core.WithSpace(sp) }

// WithRule1Gains consults a precomputed relation (2) gain table during
// construction instead of re-deriving each state's gain; the matrix is
// bit-identical either way. Gains depend only on (C, ∆, k), so sweeps
// over (µ, d, ν) share one table.
func WithRule1Gains(g *Rule1Gains) BuildOption { return core.WithRule1Gains(g) }

// NewSpace enumerates the state space Ω(C, ∆) for sharing across model
// builds via WithSharedSpace.
func NewSpace(c, delta int) (*Space, error) { return core.NewSpace(c, delta) }

// ComputeRule1Gains tabulates the adversary's relation (2) gain for
// every Rule 1-eligible state of Ω(C, ∆) under protocol_k.
func ComputeRule1Gains(p Params) (*Rule1Gains, error) { return core.ComputeRule1Gains(p) }

// EvaluateSimSweep runs a simulation-sweep grid: every cell's
// Monte-Carlo replicas are whole overlay-system runs (bootstrap, churn,
// split/merge, adversary) fanned across the options' Pool with
// per-replica PCG streams, reduced in fixed replica order — summaries
// are bit-identical for any worker count. cmd/attackd serves this
// evaluator as POST /v1/simsweep.
func EvaluateSimSweep(ctx context.Context, plan SimPlan, opts SimOptions) (*SimResult, error) {
	return sweep.EvaluateSim(ctx, plan, opts)
}

// ModelFamilies lists the registered model family names, sorted. The
// serving layer's "model" request field and LookupModelFamily accept
// exactly these.
func ModelFamilies() []string { return chainmodel.Names() }

// LookupModelFamily resolves a registered family by name; the empty
// name selects the default "targeted-attack" paper model.
func LookupModelFamily(name string) (ModelFamily, bool) { return chainmodel.Lookup(name) }

// AnalyzeModel runs the full closed-form analysis on any family's
// instance for one of its named initial distributions ("" selects the
// family default only through EvaluateModelSweep; here the name is
// explicit). The arithmetic is identical to the paper model's Analyze.
func AnalyzeModel(inst ModelInstance, dist string, sojourns int) (*ModelAnalysis, error) {
	return chainmodel.Analyze(inst, dist, sojourns)
}

// EvaluateModelSweep runs a model-agnostic grid through the amortized
// three-pass planner: shared immutable tables per family group,
// provably identical cells solved once, warm-start lanes along the
// family's declared slow axis. For the paper model (LookupModelFamily("")
// and its ParsePlan) that means one state space, maintenance kernel and
// Rule 1 gain table per (C, ∆), and the ν axis collapsing wherever the
// Rule 1 firing set does not change. Without warm starts, every cell's
// Analysis is bit-identical to an independent AnalyzeModel of the same
// cell and solver. cmd/attackd serves this evaluator over HTTP (the
// request's "model" field selects the family).
func EvaluateModelSweep(ctx context.Context, plan ModelSweepPlan, opts ModelSweepOptions) (*ModelSweepResult, error) {
	return sweep.EvaluateModel(ctx, plan, opts)
}

// AttackServer is the HTTP serving layer behind cmd/attackd: an LRU
// result cache and singleflight deduplication in front of the sweep
// evaluators, with NDJSON streaming (Accept: application/x-ndjson or
// ?stream=1 on the grid endpoints) and an async job API (/v1/jobs).
type AttackServer = attackd.Server

// AttackServerConfig configures NewAttackServer; the zero value uses
// the cmd/attackd defaults.
type AttackServerConfig = attackd.Config

// NewAttackServer builds the serving layer for embedding: mount its
// Handler() on any mux, and call DrainJobs during shutdown so running
// async jobs finish before the process exits.
func NewAttackServer(cfg AttackServerConfig) (*AttackServer, error) { return attackd.New(cfg) }

// ParseIntAxis parses a sweep axis over integers: a comma list ("7,9")
// or an inclusive lo:hi[:step] range ("10:50:10").
func ParseIntAxis(s string) ([]int, error) { return chainmodel.ParseInts(s) }

// ParseFloatAxis parses a sweep axis over floats: a comma list
// ("0.1,0.2") or an inclusive lo:hi:step range ("0.5:0.9:0.1").
func ParseFloatAxis(s string) ([]float64, error) { return chainmodel.ParseFloats(s) }

// SolverKinds lists the accepted SolverConfig.Kind values.
func SolverKinds() []string { return matrix.SolverKinds() }

// NewOverlay builds the n-cluster overlay view of a model, implementing
// Theorems 1 and 2 (competing Markov chains).
func NewOverlay(m *Model, n int) (*Overlay, error) { return overlay.New(m, n) }

// NewSimulator builds a Monte-Carlo simulator of the cluster chain with a
// deterministic root seed. Its RunBatch and RunManyBatch methods fan
// trajectories across a Pool with one PCG stream per trajectory, so the
// aggregated Summary is bit-identical on one worker or many.
func NewSimulator(m *Model, seed int64) (*Simulator, error) { return montecarlo.New(m, seed) }

// NewPool creates a worker pool of the given width; workers < 1 selects
// one worker per available CPU.
func NewPool(workers int) *Pool { return engine.New(workers) }

// ScenarioKeys lists the registered experiment scenarios (every figure,
// table, ablation and sweep of the reproduction) in registry order; run
// them with cmd/paperrepro.
func ScenarioKeys() []string { return experiments.Keys() }

// Rule1Holds evaluates the adversarial leave strategy (relation (2)) in
// state (s, x, y): whether a colluding adversary should trigger a
// voluntary core departure under protocol_k.
func Rule1Holds(p Params, s, x, y int) (bool, error) { return core.Rule1Holds(p, s, x, y) }

// HalfLife returns t½ = ln2/(1−d) for an identifier survival probability
// d (Section VI).
func HalfLife(d float64) (float64, error) { return combin.HalfLife(d) }

// LifetimeFromSurvival returns the incarnation lifetime L = 6.65·t½ such
// that 99% of identifiers expire within L (Section III-D calibration).
func LifetimeFromSurvival(d float64) (float64, error) { return combin.LifetimeFromSurvival(d) }

// SurvivalFromLifetime inverts LifetimeFromSurvival.
func SurvivalFromLifetime(l float64) (float64, error) { return combin.SurvivalFromLifetime(l) }
