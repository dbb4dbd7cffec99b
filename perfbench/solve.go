package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/markov"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/sweep"
)

// The solve-offline workload: library calls only, one worker, no HTTP.
// One pass evaluates three plans through sweep.EvaluateModel: the 28-cell
// C=∆=40 k=2 warm-lane grid on bicgstab, one C=∆=75 cell on the auto
// backend (its slow-mixing blocks take the ILU(0) path) and a 12-cell
// apt-compromise grid. The inputs are fixed; the seed only picks which
// golden cells are re-checked.

// offlinePassSeconds is the duration of one solve-offline pass on a
// 2-vCPU Xeon @ 2.10GHz; a run makes passCount passes.
const offlinePassSeconds = 11.0

// passCount is the number of fixed-work passes a run of seconds makes:
// the nearest whole number of passSeconds, at least one. It depends only
// on the arguments, so every run of the same length does the same work.
func passCount(seconds, passSeconds float64) int {
	return max(1, int(math.Round(seconds/passSeconds)))
}

// offlinePlan is one of the pass's three evaluations.
type offlinePlan struct {
	name string
	body string // the plan in attackd's sweep-request syntax
	fam  chainmodel.Family
	sc   matrix.SolverConfig
	plan sweep.ModelPlan
}

func offlinePlans() ([]*offlinePlan, error) {
	plans := []*offlinePlan{
		{
			name: "warm_grid",
			body: `{"c":"40","delta":"40","k":"2","mu":"0.2","d":"0.5,0.7","nu":"0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.6,0.7,0.8,0.9"}`,
			fam:  core.Family{},
			sc:   matrix.SolverConfig{Kind: "bicgstab"},
		},
		{
			name: "c75_auto",
			body: `{"c":"75","delta":"75","k":"1","mu":"0.2","d":"0.9","nu":"0.1"}`,
			fam:  core.Family{},
			sc:   matrix.SolverConfig{Kind: "auto"},
		},
		{
			name: "apt_grid",
			body: `{"n":"30","theta":"0.2,0.4","phi":"0.4,0.6","detect":"0.1","rho":"0,0.2,0.4"}`,
			fam:  mustFamily("apt-compromise"),
			sc:   matrix.SolverConfig{Kind: "bicgstab"},
		},
	}
	for _, p := range plans {
		cells, err := p.fam.ParsePlan(json.RawMessage(p.body))
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", p.name, err)
		}
		p.plan = sweep.ModelPlan{Family: p.fam, Cells: cells, Sojourns: 2}
	}
	return plans, nil
}

func mustFamily(name string) chainmodel.Family {
	fam, ok := chainmodel.Lookup(name)
	if !ok {
		panic("perfbench: family " + name + " is not registered")
	}
	return fam
}

// passResult is one pass's outcome.
type passResult struct {
	wall         time.Duration
	firstCell    time.Duration
	chainLatency []float64 // ms per distinct chain
	cells        int
	results      map[string]*sweep.ModelResultSet
}

// runPass evaluates every plan once on one worker, timing each distinct
// chain as the gap between consecutive OnCell callbacks.
func runPass(ctx context.Context, plans []*offlinePlan, tr *tracer) (*passResult, error) {
	pr := &passResult{results: map[string]*sweep.ModelResultSet{}}
	start := time.Now()
	for _, p := range plans {
		sp := tr.begin("sweep.evaluate", nil)
		last := time.Now()
		first := true
		rs, err := sweep.EvaluateModel(ctx, p.plan, sweep.ModelOptions{
			Pool:      engine.New(1),
			BuildPool: engine.New(1),
			Solver:    p.sc,
			WarmStart: true,
			OnCell: func(c sweep.ModelCellResult) {
				now := time.Now()
				if first && p.name == "warm_grid" {
					pr.firstCell = now.Sub(last)
				}
				first = false
				if !c.Shared {
					pr.chainLatency = append(pr.chainLatency, durMS(now.Sub(last)))
					last = now
				}
			},
		})
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		pr.results[p.name] = rs
		pr.cells += len(rs.Cells)
	}
	pr.wall = time.Since(start)
	return pr, nil
}

func runSolveOffline(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}

	// Set-up: plan parsing and a small warm-up evaluation, setupReps times.
	var plans []*offlinePlan
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		plans, err = offlinePlans()
		if err != nil {
			return nil, err
		}
		warm, err := core.Family{}.ParsePlan(json.RawMessage(`{"c":"20","delta":"20","k":"2","mu":"0.2","d":"0.5,0.7","nu":"0.1,0.3"}`))
		if err != nil {
			return nil, err
		}
		if _, err := sweep.EvaluateModel(ctx, sweep.ModelPlan{Family: core.Family{}, Cells: warm, Sojourns: 2},
			sweep.ModelOptions{Pool: engine.New(1), BuildPool: engine.New(1), Solver: matrix.SolverConfig{Kind: "bicgstab"}, WarmStart: true}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}

	// Measured passes: a fixed count for the run length, so every run of
	// a given length measures the same work.
	settle()
	mem0 := readMem()
	peak := startHeapPeak()
	start := time.Now()
	var passes []*passResult
	for n := passCount(o.seconds, offlinePassSeconds); len(passes) < n; {
		pr, err := runPass(ctx, plans, nil)
		if err != nil {
			peak.finish()
			return nil, err
		}
		passes = append(passes, pr)
	}
	elapsed := time.Since(start)
	heap := peak.finish()
	mem1 := readMem()

	var walls, firsts, lat []float64
	cells := 0
	for _, pr := range passes {
		walls = append(walls, pr.wall.Seconds())
		firsts = append(firsts, durMS(pr.firstCell))
		lat = append(lat, pr.chainLatency...)
		cells += pr.cells
	}
	ls := summarize(lat)
	rep.endToEnd["latency_p50_ms"] = metric{ls.P50, "ms"}
	rep.extra["latency_tail_ms"] = metric{ls.Tail, "ms"}
	rep.extra["first_cell_ms"] = metric{median(firsts), "ms"}
	rep.endToEnd["cells_per_s"] = metric{float64(cells) / elapsed.Seconds(), "cells/s"}
	rep.endToEnd["heap_peak_mb"] = metric{heap, "MB"}
	rep.extra["run_s"] = metric{median(walls), "s"}
	rep.notes["passes"] = len(passes)
	rep.notes["pass_walls_s"] = walls
	rep.notes["latency"] = ls
	rep.notes["runtime_alloc_mb"] = float64(mem1.allocBytes-mem0.allocBytes) / (1 << 20)
	rep.attempted = int64(cells)

	// Exact counts and correctness: every pass must agree with the
	// references and with the first pass bit for bit.
	first := passes[0]
	var evaluated, lanes int64
	for _, p := range plans {
		rs := first.results[p.name]
		rep.counts["iterations."+p.name] = rs.Iterations
		rep.counts["distinct_chains."+p.name] = int64(rs.Evaluated)
		rep.counts["cells."+p.name] = int64(len(rs.Cells))
		evaluated += int64(rs.Evaluated)
		lanes += int64(countLanes(p.fam, p.plan.Cells, rs))
		for _, pr := range passes[1:] {
			for i, c := range pr.results[p.name].Cells {
				if d := analysisDiff(c.Analysis, rs.Cells[i].Analysis, 0); d != "" {
					rep.mismatch("%s cell %d differs between passes: %s", p.name, i, d)
				}
			}
		}
		checkPlanReferences(rep, p, rs, refs)
	}
	rep.counts["distinct_chains"] = evaluated
	checkGolden(rep, o.seed)

	if o.trace {
		if err := traceSolveOffline(ctx, o, rep, plans, first); err != nil {
			return nil, err
		}
		addRuntime(rep, mem0, mem1)
		rep.layers["sweep.lanes"] = metric{float64(lanes), "count"}
	}
	return rep, nil
}

// countLanes recomputes the planner's warm-start lanes from the public
// family methods: consecutive distinct chains with equal lane keys.
func countLanes(fam chainmodel.Family, cells []chainmodel.Cell, rs *sweep.ModelResultSet) int {
	lanes := 0
	var prev any
	for i, c := range rs.Cells {
		if c.Shared {
			continue
		}
		key := fam.LaneKey(cells[i])
		if lanes == 0 || key != prev {
			lanes++
		}
		prev = key
	}
	return lanes
}

// traceSolveOffline is the traced half of solve-offline: one more pass
// with spans around each sweep call (its wall time against the untraced
// passes is the tracing overhead), then every distinct chain of the pass
// decomposed layer by layer, in lane order with the lanes' warm starts,
// and checked bit for bit against the pass.
func traceSolveOffline(ctx context.Context, o options, rep *report, plans []*offlinePlan, untraced *passResult) error {
	tr := newTracer(true)
	traced, err := runPass(ctx, plans, tr)
	if err != nil {
		return err
	}
	rep.layers["trace.overhead_pct"] = metric{100 * (traced.wall.Seconds()/untraced.wall.Seconds() - 1), "%"}

	acc := newLayerAcc()
	var cells, chains int
	for _, p := range plans {
		rs := untraced.results[p.name]
		dist, err := p.fam.ParseDist("")
		if err != nil {
			return err
		}
		var ws *markov.WarmStart
		var prevKey any
		for i, c := range rs.Cells {
			cells++
			if c.Shared {
				continue
			}
			chains++
			key := p.fam.LaneKey(p.plan.Cells[i])
			if key != prevKey {
				ws = nil
			}
			prevKey = key
			root := tr.begin("chain", nil)
			a, rec, err := decomposeChain(tr, root, acc, chainInput{
				fam: p.fam, cell: p.plan.Cells[i], solver: p.sc,
				dist: dist, sojourns: p.plan.Sojourns, warm: ws,
			})
			root.end()
			if err != nil {
				return fmt.Errorf("%s cell %d: %w", p.name, i, err)
			}
			ws = rec
			if d := analysisDiff(a, c.Analysis, 0); d != "" {
				rep.mismatch("%s cell %d: layer-by-layer analysis differs from the sweep: %s", p.name, i, d)
			}
		}
	}
	addLayerMetrics(rep, acc, copyBandwidth(rep))
	rep.layers["sweep.dedup_ratio"] = metric{float64(chains) / float64(cells), "ratio"}
	rep.layers["sweep.iters_per_chain"] = metric{float64(acc.iterations) / float64(chains), "count"}
	addSelfTimes(rep, tr, "sweep", "build", "matrix", "markov")
	path, err := tr.dump(o.outDir, o.workload, o.seed)
	if err != nil {
		return err
	}
	rep.notes["spans_file"] = path
	return nil
}

// references are the pinned solve-offline results: per plan, the
// analysis of every cell in plan order.
type references map[string][]*chainmodel.Analysis

const referencesPath = "perfbench/references.json"

func loadReferences() (references, error) {
	b, err := os.ReadFile(referencesPath)
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var refs references
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", referencesPath, err)
	}
	return refs, nil
}

// writeReferences recomputes the references with the benchmark's own
// pass; run it only when a change is meant to move the numbers.
func writeReferences(path string) error {
	plans, err := offlinePlans()
	if err != nil {
		return err
	}
	pr, err := runPass(context.Background(), plans, nil)
	if err != nil {
		return err
	}
	refs := references{}
	for _, p := range plans {
		for _, c := range pr.results[p.name].Cells {
			a := *c.Analysis
			a.Solver = matrix.SolveStats{}
			refs[p.name] = append(refs[p.name], &a)
		}
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// bench006SafeTime is E(T_S) of the C=∆=75 auto cell as BENCH_006
// recorded it, to two decimals.
const bench006SafeTime = 970.99

// refTol is the agreement the solve-offline checks demand.
const refTol = 1e-9

func checkPlanReferences(rep *report, p *offlinePlan, rs *sweep.ModelResultSet, refs references) {
	want := refs[p.name]
	if len(want) != len(rs.Cells) {
		rep.mismatch("%s: %d cells, references have %d", p.name, len(rs.Cells), len(want))
		return
	}
	for i, c := range rs.Cells {
		if d := analysisDiff(c.Analysis, want[i], refTol); d != "" {
			rep.mismatch("%s cell %d: %s", p.name, i, d)
		}
	}
	if p.name == "c75_auto" {
		got := rs.Cells[0].Analysis.TimeInA
		if diff := got - bench006SafeTime; diff < -0.005 || diff > 0.005 {
			rep.mismatch("c75_auto E(T_S) = %v, BENCH_006 recorded %v", got, bench006SafeTime)
		}
	}
}

// goldenEntry is one cell of internal/core/testdata/paper_grid.json.
type goldenEntry struct {
	Name                 string             `json:"name"`
	Params               core.Params        `json:"params"`
	Dist                 string             `json:"dist"`
	Sojourns             int                `json:"sojourns"`
	ExpectedSafeTime     float64            `json:"expected_safe_time"`
	ExpectedPollutedTime float64            `json:"expected_polluted_time"`
	SafeSojourns         []float64          `json:"safe_sojourns"`
	PollutedSojourns     []float64          `json:"polluted_sojourns"`
	Absorption           map[string]float64 `json:"absorption"`
	PollutionProbability float64            `json:"pollution_probability"`
}

const goldenPath = "internal/core/testdata/paper_grid.json"

// goldenSample is how many golden cells one run re-checks.
const goldenSample = 12

// checkGolden re-derives a seeded sample of the golden paper grid on the
// bicgstab backend and compares it at refTol.
func checkGolden(rep *report, seed int64) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		rep.mismatch("reading golden grid: %v", err)
		return
	}
	var entries []goldenEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		rep.mismatch("decoding golden grid: %v", err)
		return
	}
	rng := newRand(seed, 0x601d)
	for k := 0; k < goldenSample && len(entries) > 0; k++ {
		e := entries[rng.IntN(len(entries))]
		dist, err := core.ParseDistributionName(e.Dist)
		if err != nil {
			rep.mismatch("golden %s: %v", e.Name, err)
			continue
		}
		m, err := core.NewWithSolver(e.Params, matrix.SolverConfig{Kind: "bicgstab"})
		if err != nil {
			rep.mismatch("golden %s: %v", e.Name, err)
			continue
		}
		a, err := m.AnalyzeNamed(dist, e.Sojourns)
		if err != nil {
			rep.mismatch("golden %s: %v", e.Name, err)
			continue
		}
		got := &chainmodel.Analysis{
			TimeInA: a.ExpectedSafeTime, TimeInB: a.ExpectedPollutedTime,
			SojournsA: a.SafeSojourns, SojournsB: a.PollutedSojourns,
			Absorption: a.Absorption, HitProbability: a.PollutionProbability,
		}
		want := &chainmodel.Analysis{
			TimeInA: e.ExpectedSafeTime, TimeInB: e.ExpectedPollutedTime,
			SojournsA: e.SafeSojourns, SojournsB: e.PollutedSojourns,
			Absorption: e.Absorption, HitProbability: e.PollutionProbability,
		}
		if d := analysisDiff(got, want, refTol); d != "" {
			rep.mismatch("golden %s: %s", e.Name, d)
		}
	}
	rep.counts["golden_checked"] = goldenSample
}
