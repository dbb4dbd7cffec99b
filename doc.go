// Package targetedattacks is a Go reproduction of
//
//	E. Anceaume, B. Sericola, R. Ludinard, F. Tronel.
//	"Modeling and Evaluating Targeted Attacks in Large Scale Dynamic
//	Systems", Proc. 41st IEEE/IFIP DSN, 2011.
//
// The paper studies how a cluster-based structured overlay (PeerCube
// style) resists targeted attacks when it combines (i) core/spare role
// separation inside clusters, (ii) randomized robust join/leave/merge/
// split operations — the protocol_k family — and (iii) induced churn
// through limited-lifetime peer identifiers. A cluster is *polluted* when
// strictly more than c = ⌊(C−1)/3⌋ of its C core members are malicious.
//
// # Layers
//
// The package exposes these layers:
//
//   - The model registry (internal/chainmodel): the analytic stack is
//     model-agnostic. A chainmodel.Family declares a state enumeration,
//     a sparse row emitter, a transient A/B split with named absorbing
//     classes, and the structure a parameter sweep can exploit (shared-
//     table groups, provable cell-equality signatures, warm-start
//     lanes). Matrix construction (chunked, bit-identical for any
//     worker count), the full closed-form suite (AnalyzeChain), the
//     sweep planner and the HTTP serving layer are all written against
//     this interface. Two families are registered: "targeted-attack"
//     (the paper's model, the default) and "apt-compromise" (a
//     multi-stage compromise campaign on a triangular footholds ×
//     entrenched state space). ModelFamilies lists them,
//     LookupModelFamily resolves one, AnalyzeModel and
//     EvaluateModelSweep analyze them; see the README for the
//     adding-a-third-family walkthrough.
//
//   - The exact analytical model: the absorbing Markov chain over states
//     (s, x, y) — spare size, malicious core members, malicious spare
//     members — with the paper's adversarial strategy (Rules 1 and 2,
//     Property 1) encoded in its transition matrix, and the closed-form
//     results of Sections VI-VIII: expected safe/polluted times,
//     successive sojourn times, absorption probabilities, and the
//     overlay-level proportions of safe/polluted clusters under n
//     competing chains.
//
//   - The sparse linear-solver layer beneath the closed forms
//     (internal/matrix): the transition matrix lives in CSR form from
//     construction to solve; internal/markov carves its transient and
//     absorbing blocks directly out of the CSR and routes every relation
//     through a pluggable Solver interface. The dense LU backend is the
//     exact reference, refused above matrix.MaxDenseOrder; the iterative
//     backends (residual-controlled preconditioned BiCGSTAB) never
//     materialize a dense matrix, which is what makes state spaces with
//     thousands of transient states — C=∆ up to 25 and beyond —
//     affordable. Every factorization has one entry point,
//     Solve(b, x0, left), for right and left systems alike;
//     matrix.SolveBatch answers several right-hand sides against one
//     block, which the sojourn recursions use to issue one batched
//     solve per block per iteration. Select a backend with
//     NewModelWithSolver or the CLIs' -solver/-tol flags.
//
//   - The preconditioner and warm-start layer inside it: as the
//     identifier-survival probability d → 1 the transient blocks mix
//     slowly and plain BiCGSTAB iteration counts blow up. The "ilu"
//     backend factors I−M once per block with ILU(0) (zero fill-in, so
//     CSR-sized memory) and uses it as the BiCGSTAB preconditioner in
//     both solve orientations; the "auto" backend probes each block's
//     mixing speed (matrix.MixingEstimate) and picks ILU for slow
//     blocks, falling back stickily to dense LU — with the reason
//     recorded in Analysis.Solver — if an iterative solve ever fails.
//     Every Solve also accepts an initial guess x0; markov.Chain
//     records its converged vectors as a WarmStart so a neighboring
//     parameter cell can seed its own solves from them. Choosing a solver: "dense" is the exact
//     LU reference (O(n²) memory — small grids only), "bicgstab" (alias
//     "sparse") the CSR-only default at scale, "ilu" the d → 1 regime,
//     and "auto" the safe default for unknown grids; see the README
//     table.
//
//   - The parallel build pipeline above it: transition-matrix rows are
//     constructed in independent chunks through row-local emitters and
//     concatenated deterministically in row order, so the CSR is
//     bit-identical for any worker count; the hypergeometric maintenance
//     kernel is memoized per (C, ∆, k) and shared across grid cells.
//     Thread a pool in with WithBuildPool (or -buildworkers); the huge
//     scenario evaluates C=∆ up to 50 (|Ω| ≈ 68k states) end-to-end in
//     seconds on this path.
//
//   - The amortized sweep evaluator above the models (internal/sweep):
//     sweep.EvaluateModel runs any family's grid through a three-pass
//     planner driven by the family's declared structure — cells group
//     on GroupKey and share the immutable tables NewShared builds,
//     cells with equal Signatures are provably the same chain and are
//     solved once, and consecutive classes with equal LaneKeys form
//     warm-start lanes whose iterative solves seed from their
//     neighbor's converged vectors. Lanes (not chains) fan across the
//     pool, so results and iteration counts are bit-identical for any
//     worker width. For the paper model the (C, ∆, k, µ, d, ν) grid of
//     its ParsePlan runs on this path (EvaluateModelSweep): geometry
//     groups share one state space, one memoized maintenance kernel
//     and one Rule 1 gain table per protocol, and ν dedups by its gain
//     cut — a 64-cell ν×d grid at C=∆=40 evaluates ≈ 8× faster than
//     independent per-cell analyses on one core (BenchmarkSweepGrid).
//
//   - The serving layer (cmd/attackd, internal/attackd): a long-lived
//     HTTP process exposing POST /v1/analyze (one cell) and
//     POST /v1/sweep (a grid) for every registered family — the
//     request's "model" field selects one, unknown names get a 400
//     listing the registry — with an LRU result cache keyed by
//     canonical parameters (model name included), singleflight
//     deduplication of concurrent identical requests, NDJSON streaming
//     of grids (one cell per line as it is computed, via ?stream=1 or
//     Accept: application/x-ndjson), an async job API (/v1/jobs:
//     submit, poll progress, fetch or stream results, cancel),
//     /healthz, Prometheus-format /metrics with per-model evaluation
//     counters, and graceful drain (requests and jobs) on
//     SIGINT/SIGTERM. cmd/attackload is its load harness.
//
//   - The observability core beneath the serving layer (internal/obs):
//     a dependency-free package providing lock-free log-spaced latency
//     histograms with Prometheus text rendering and a strict exposition
//     parser for self-checks, a request-scoped trace abstraction (W3C
//     traceparent ingest and propagation, in-process spans, per-stage
//     aggregation) threaded through context.Context, and trace-aware
//     log/slog construction. The numeric layers accept an optional
//     Observer so the serving path can attribute time to parse, cache,
//     space, kernel, matrix, plan, build, solve, simulate and encode
//     stages; tracing is pay-for-use, costing a nil check when no trace
//     rides the context.
//
//   - A Monte-Carlo simulator of the same chain for cross-validation.
//
//   - A full discrete-event simulation of the overlay system itself:
//     peers with certificate-derived expiring identifiers, clusters on a
//     hypercube topology, Byzantine-tolerant core maintenance, and a
//     colluding adversary executing the paper's targeted-attack strategy.
//
//   - The execution engine beneath all of them (internal/engine): a
//     worker pool that fans independent units of work — Monte-Carlo
//     trajectories, parameter-grid cells, whole experiment scenarios —
//     across CPUs while staying deterministic.
//
// # Deterministic parallelism
//
// Every randomized task derives its own math/rand/v2 PCG stream from a
// root seed and the task's global index, never sharing a generator. A
// Monte-Carlo batch (Simulator.RunBatch, Simulator.RunManyBatch) or a
// parallel sweep therefore produces bit-identical results on one worker
// or many; NewPool(workers) chooses the width (0 = one per CPU).
//
// # Scenario registry
//
// The paper's evaluation — every figure, table, ablation, validation and
// sweep — is registered as a named scenario in internal/experiments.
// ScenarioKeys lists them; cmd/paperrepro executes any subset
// concurrently with -workers and -seed flags. The paper's tables and
// figures 3 and 4, ablations A1/A2 and the grid scenarios (S1-S5) are
// paper-model grids run through the same evaluator as
// EvaluateModelSweep, so they inherit the shared-structure amortization
// and cell deduplication; the apt scenario (S7) runs the second model
// family through EvaluateModelSweep the same way. Only the Monte-Carlo
// validation, Figure 5 and the swarm cross-validation build a stand-alone
// model, because they simulate or step it. Every scenario honors
// Env.Solver, Env.BuildPool and the worker pool uniformly (the registry
// test asserts it key by key).
//
// # Quick start
//
//	params := targetedattacks.DefaultParams() // C=7, ∆=7, protocol_1
//	params.Mu = 0.2                           // 20% of peers malicious
//	params.D = 0.9                            // identifier survival per time unit
//	model, err := targetedattacks.NewModel(params)
//	if err != nil { ... }
//	analysis, err := model.AnalyzeNamed(targetedattacks.DistributionDelta, 2)
//	if err != nil { ... }
//	fmt.Println("expected events before pollution ends:",
//		analysis.ExpectedSafeTime, analysis.ExpectedPollutedTime)
//
//	// Cross-validate in parallel, deterministically:
//	sim, err := targetedattacks.NewSimulator(model, 1)
//	if err != nil { ... }
//	sum, err := sim.RunManyBatch(ctx, targetedattacks.NewPool(0),
//		model.InitialDelta(), 100000, 1_000_000)
//
//	// Evaluate a whole grid with shared structure (ν×d surface of the
//	// paper model, the default family):
//	paper, _ := targetedattacks.LookupModelFamily("")
//	grid, err := paper.ParsePlan([]byte(
//		`{"c":"40","delta":"40","k":"1","mu":"0.2","d":"0.5:0.8:0.1","nu":"0.05,0.1,0.2"}`))
//	if err != nil { ... }
//	rs, err := targetedattacks.EvaluateModelSweep(ctx,
//		targetedattacks.ModelSweepPlan{Family: paper, Cells: grid},
//		targetedattacks.ModelSweepOptions{
//			Pool:   targetedattacks.NewPool(0),
//			Solver: targetedattacks.SolverConfig{Kind: "bicgstab"},
//		})
//
//	// Any registered family runs through the same engine; e.g. an APT
//	// compromise campaign with warm-started stealth lanes:
//	apt, _ := targetedattacks.LookupModelFamily("apt-compromise")
//	cells, err := apt.ParsePlan([]byte(
//		`{"n":"20","theta":"0.3,0.6","phi":"0.4","detect":"0.5,0.8","rho":"0:0.5:0.25"}`))
//	if err != nil { ... }
//	mrs, err := targetedattacks.EvaluateModelSweep(ctx,
//		targetedattacks.ModelSweepPlan{Family: apt, Cells: cells},
//		targetedattacks.ModelSweepOptions{
//			Pool:      targetedattacks.NewPool(0),
//			Solver:    targetedattacks.SolverConfig{Kind: "bicgstab"},
//			WarmStart: true,
//		})
//
// Or serve it: `go run ./cmd/attackd` starts the HTTP layer
// (POST /v1/analyze, POST /v1/sweep — buffered, streamed as NDJSON, or
// async via /v1/jobs — plus /healthz and /metrics; the "model" request
// field selects any registered family).
//
// See the examples/ directory for runnable programs and cmd/paperrepro
// for the harness that regenerates every table and figure of the paper.
package targetedattacks
