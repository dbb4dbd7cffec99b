// Package sweep evaluates parameter grids of any registered
// absorbing-chain model with shared structure instead of per-cell
// rebuilds.
//
// A ModelPlan is a family plus its cells in the family's canonical
// order; for the paper model, core.Family.ParsePlan and core.Grid emit
// the (C, ∆, k, µ, d, ν) cross product. EvaluateModel groups the cells
// by the family's group key and builds each group's immutable shared
// tables once — for the paper model, one state space, memoized
// maintenance kernel and Rule 1 gain table per protocol k per cluster
// geometry (C, ∆). Cells with equal family signatures provably build
// the same Markov chain and are evaluated once: the paper model's ν
// enters only by thresholding the finite set of relation (2) gains, so
// cells with equal (k, µ, d) and an equal gain cut share one solve (for
// protocol_1 the whole ν axis collapses — Rule 1 never fires). Distinct
// chains, ordered into warm-start lanes along the family's slow axis,
// fan out across an engine.Pool; results land in a deterministic,
// order-independent result set. Every cell's Analysis is bit-identical
// to an independent chainmodel.Analyze of the same cell with the same
// solver (warm starts aside, which agree to solver tolerance).
//
// A SimPlan is the simulation-side counterpart: a strategy × µ × d ×
// population-size grid of whole-system overlay runs
// (internal/overlaynet), each cell aggregating Monte-Carlo replicas with
// per-replica PCG streams derived from the plan seed and the replica's
// global task index. EvaluateSim fans replicas across the same
// engine.Pool and reduces each cell in fixed replica order, so summaries
// are bit-identical for any worker count, streaming delivery included.
package sweep

import (
	"context"
	"fmt"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/obs"
)

// ModelPlan is a model-agnostic parameter grid: a family plus its cells
// in the family's canonical order (group axis outermost, warm-start
// lane axis innermost — ParsePlan emits this order; hand-built cell
// lists should follow it for lanes to form).
type ModelPlan struct {
	// Family declares the grid's model.
	Family chainmodel.Family
	// Cells are the grid cells in evaluation-index order.
	Cells []chainmodel.Cell
	// Dist names the initial distribution applied to every cell; ""
	// selects the family default.
	Dist string
	// Sojourns is the number of successive sojourn expectations computed
	// per cell; values < 1 mean 1.
	Sojourns int
}

// sojourns returns the effective sojourn count.
func (pl ModelPlan) sojourns() int {
	if pl.Sojourns < 1 {
		return 1
	}
	return pl.Sojourns
}

// ModelOptions tunes a model-agnostic grid evaluation. The zero value
// evaluates serially with the dense LU backend.
type ModelOptions struct {
	// Pool fans distinct lanes across workers; nil evaluates serially.
	// Results are bit-identical for any pool width.
	Pool *engine.Pool
	// BuildPool supplies the workers of the row-parallel
	// transition-matrix construction inside each cell.
	BuildPool *engine.Pool
	// Solver selects the linear-solver backend of every cell's analysis.
	Solver matrix.SolverConfig
	// WarmStart chains the iterative solves of neighboring cells along
	// the family's lanes (consecutive equivalence classes with equal
	// LaneKey); lanes, not cells, fan across the pool, so results stay
	// independent of the worker count. Warm-started solves meet the same
	// residual tolerance as cold ones, so cells agree with the cold path
	// to solver tolerance instead of bit for bit (the dense backend
	// ignores warm starts and stays exact).
	WarmStart bool
	// OnCell, when non-nil, streams results as they are produced: it is
	// called once per cell, from evaluator goroutines in completion
	// order (not index order), so it must be safe for concurrent use.
	OnCell func(ModelCellResult)
}

// ModelCellResult is the outcome of one grid cell.
type ModelCellResult struct {
	// Index is the cell's position in ModelPlan.Cells order.
	Index int
	// Cell is the cell's parameter point.
	Cell chainmodel.Cell
	// States and Transient size the cell's state space.
	States, Transient int
	// Shared reports that the cell's chain was proven identical to an
	// earlier cell's (equal family signature) and its Analysis cloned
	// from that evaluation instead of a re-solve.
	Shared bool
	// Iterations is the iterative-solver work this cell's chain cost;
	// 0 for shared cells and for the dense backend.
	Iterations int64
	// SharedTables is the immutable shared structure of the cell's
	// group (whatever the family's NewShared built), for callers that
	// derive model-specific per-cell metadata from it.
	SharedTables any
	// Analysis holds the closed-form results for the plan's initial
	// distribution.
	Analysis *chainmodel.Analysis
}

// ModelResultSet is the deterministic outcome of a model-agnostic grid
// evaluation: cells in plan order, whatever the pool width or
// completion order.
type ModelResultSet struct {
	Plan  ModelPlan
	Cells []ModelCellResult
	// Groups counts the distinct shared-structure groups; Evaluated
	// counts the distinct chains actually constructed and solved after
	// deduplication.
	Groups    int
	Evaluated int
	// Iterations is the total iterative-solver work of the evaluation —
	// the number warm starting drives down.
	Iterations int64
}

// EvaluateModel runs a model-agnostic grid through the amortized
// three-pass planner: shared immutable tables once per family group,
// provably identical cells (equal family signatures) solved once, and
// the remaining distinct chains ordered into warm-start lanes that fan
// out across opts.Pool. Every cell's numbers are bit-identical to an
// independent build + analysis of the same cell with the same solver,
// for any worker count.
func EvaluateModel(ctx context.Context, plan ModelPlan, opts ModelOptions) (*ModelResultSet, error) {
	fam := plan.Family
	if fam == nil {
		return nil, fmt.Errorf("sweep: ModelPlan.Family is nil")
	}
	if len(plan.Cells) == 0 {
		return nil, fmt.Errorf("sweep: ModelPlan has no cells")
	}
	dist, err := fam.ParseDist(plan.Dist)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if _, err := opts.Solver.Build(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	cells := plan.Cells

	// Planner pass 1: shared structure per group. Group cells are
	// collected first so NewShared sees the whole group (e.g. every
	// protocol k a geometry group will need tables for). The pass is
	// the sweep's "space" stage: it is where state spaces and kernel
	// tables are enumerated.
	spaceSpan, _ := obs.StartSpan(ctx, "space")
	groupCells := make(map[any][]chainmodel.Cell)
	var groupOrder []any
	for _, cell := range cells {
		key := fam.GroupKey(cell)
		if _, ok := groupCells[key]; !ok {
			groupOrder = append(groupOrder, key)
		}
		groupCells[key] = append(groupCells[key], cell)
	}
	shared := make(map[any]any, len(groupOrder))
	for _, key := range groupOrder {
		s, err := fam.NewShared(groupCells[key])
		if err != nil {
			spaceSpan.End()
			return nil, fmt.Errorf("sweep: %w", err)
		}
		shared[key] = s
	}
	spaceSpan.SetAttrInt("groups", int64(len(groupOrder)))
	spaceSpan.End()

	// Planner pass 2: deduplicate cells into equivalence classes. The
	// leader of a class is its lowest cell index; classes keep plan
	// order, so the evaluation schedule is deterministic.
	planSpan, _ := obs.StartSpan(ctx, "plan")
	type class struct {
		leader  int
		members []int
	}
	classOf := make(map[any]int)
	var classes []class
	for i, cell := range cells {
		sig, err := fam.Signature(shared[fam.GroupKey(cell)], cell)
		if err != nil {
			planSpan.End()
			return nil, fmt.Errorf("sweep: cell %v: %w", cell, err)
		}
		ci, ok := classOf[sig]
		if !ok {
			ci = len(classes)
			classOf[sig] = ci
			classes = append(classes, class{leader: i})
		}
		classes[ci].members = append(classes[ci].members, i)
	}

	// Planner pass 3: lanes. Without warm starting every class is its
	// own lane. With warm starting, consecutive classes whose leaders
	// share a lane key form one lane: the family's canonical cell order
	// enumerates the lane axis innermost, so a lane walks that axis in
	// small steps and each chain's solves seed from the previous chain's
	// converged vectors. Lanes are a fixed partition of the classes, so
	// fanning lanes (instead of classes) across the pool keeps results
	// independent of the worker count.
	var lanes [][]int
	for ci := range classes {
		if opts.WarmStart && ci > 0 {
			prev := fam.LaneKey(cells[classes[ci-1].leader])
			cur := fam.LaneKey(cells[classes[ci].leader])
			if prev == cur {
				lanes[len(lanes)-1] = append(lanes[len(lanes)-1], ci)
				continue
			}
		}
		lanes = append(lanes, []int{ci})
	}
	planSpan.SetAttrInt("classes", int64(len(classes)))
	planSpan.SetAttrInt("lanes", int64(len(lanes)))
	planSpan.End()

	// Evaluation pass: one build + solve per class, lanes fanned across
	// the pool; results land in per-cell slots (classes own disjoint
	// cell sets), so accumulation is order-independent. Each class
	// records a "build" and a "solve" span; with more than one worker,
	// lanes overlap in time, so the aggregated stage durations read as
	// CPU time, not wall clock.
	results := make([]ModelCellResult, len(cells))
	err = engine.Ensure(opts.Pool).Run(ctx, len(lanes), func(li int) error {
		var ws *chainmodel.WarmStart
		for _, ci := range lanes[li] {
			cl := classes[ci]
			cell := cells[cl.leader]
			gshared := shared[fam.GroupKey(cell)]
			buildSpan, _ := obs.StartSpan(ctx, "build")
			inst, err := fam.Build(gshared, cell, opts.Solver, opts.BuildPool)
			buildSpan.End()
			if err != nil {
				return fmt.Errorf("cell %v: %w", cell, err)
			}
			solveSpan, _ := obs.StartSpan(ctx, "solve")
			a, rec, err := chainmodel.AnalyzeWarm(inst, dist, plan.sojourns(), ws)
			if err != nil {
				solveSpan.End()
				return fmt.Errorf("cell %v: %w", cell, err)
			}
			solveSpan.SetAttr("backend", a.Solver.Backend)
			solveSpan.SetAttrInt("iterations", a.Solver.Iterations)
			if a.Solver.Fallbacks > 0 {
				solveSpan.SetAttrInt("fallbacks", a.Solver.Fallbacks)
				solveSpan.SetAttr("fallback_reason", string(a.Solver.FallbackReason))
			}
			solveSpan.End()
			if opts.WarmStart {
				ws = rec
			}
			for _, i := range cl.members {
				res := ModelCellResult{
					Index:        i,
					Cell:         cells[i],
					States:       inst.NumStates(),
					Transient:    inst.NumTransient(),
					Shared:       i != cl.leader,
					SharedTables: gshared,
					Analysis:     a,
				}
				if res.Shared {
					res.Analysis = chainmodel.CloneAnalysis(a)
				} else {
					res.Iterations = a.Solver.Iterations
				}
				results[i] = res
				if opts.OnCell != nil {
					opts.OnCell(res)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	rs := &ModelResultSet{
		Plan:      plan,
		Cells:     results,
		Groups:    len(groupOrder),
		Evaluated: len(classes),
	}
	for i := range results {
		rs.Iterations += results[i].Iterations
	}
	return rs, nil
}
