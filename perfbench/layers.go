package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/markov"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/sweep"
)

// This file reaches the analytic layers one public call at a time, the
// way the traced runs decompose a cell: state space, Rule 1 gains and
// matrix build (core, aptchain, chainmodel), the matrix kernels on the
// chain's transient block (matrix), and the closed-form relations in
// chainmodel.AnalyzeChain's order (markov).

// relations names the markov relations in chainmodel.AnalyzeChain's
// order, plus "hit" (HitProbabilityB), which AnalyzeChain does not call.
var relations = []string{"visits", "sojourns", "absorption", "absorbed_within", "hit"}

// layerAcc accumulates the per-layer work of decomposed chains.
type layerAcc struct {
	chains                                int
	spaceMS, gainsMS, kernelMS, matrixMS  float64
	states, nnz, transientNNZ, transientN int64
	factorMS, mixingMS                    float64
	spmvNS, spmvBytes                     float64
	relMS                                 map[string]float64
	relIters                              map[string]int64
	iterations, fallbacks                 int64
	solveNS                               float64 // relation time, for ns per iteration per nnz
	iterNNZ                               float64 // Σ iterations × transient nnz
	iterBytes                             float64 // Σ iterations × computed bytes per iteration
}

func newLayerAcc() *layerAcc {
	return &layerAcc{relMS: map[string]float64{}, relIters: map[string]int64{}}
}

// stageObserver captures the build phases core reports through its
// public observer option.
type stageObserver struct {
	mu     sync.Mutex
	stages map[string]time.Duration
}

func (o *stageObserver) Observe(stage string, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stages == nil {
		o.stages = map[string]time.Duration{}
	}
	o.stages[stage] += d
}

// chainInput is one distinct chain to decompose.
type chainInput struct {
	fam      chainmodel.Family
	cell     chainmodel.Cell
	solver   matrix.SolverConfig
	dist     string
	sojourns int
	// warm seeds the chain's iterative solves, as a warm-start lane
	// would; nil starts cold.
	warm *markov.WarmStart
}

// decomposeChain builds and analyzes one chain layer by layer under
// parent, accumulating into acc. It returns the assembled analysis
// (bit-identical to chainmodel.AnalyzeWarm on the same instance) and the
// chain's recorded warm start.
func decomposeChain(tr *tracer, parent *active, acc *layerAcc, in chainInput) (*chainmodel.Analysis, *markov.WarmStart, error) {
	pool := engine.New(1)
	var inst chainmodel.Instance
	switch p := in.cell.(type) {
	case core.Params:
		sp := tr.begin("build.space", parent)
		t0 := time.Now()
		space, err := core.NewSpace(p.C, p.Delta)
		acc.spaceMS += msSince(t0)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("build.gains", parent)
		t0 = time.Now()
		gains, err := core.ComputeRule1Gains(p)
		acc.gainsMS += msSince(t0)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("build.matrix", parent)
		var o stageObserver
		m, err := core.NewWithSolver(p, in.solver,
			core.WithSpace(space), core.WithRule1Gains(gains),
			core.WithBuildPool(pool), core.WithObserver(&o))
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		acc.kernelMS += durMS(o.stages["kernel"])
		acc.matrixMS += durMS(o.stages["matrix"])
		inst = core.Instance{M: m}
	case aptchain.Params:
		sp := tr.begin("build.space", parent)
		t0 := time.Now()
		space, err := aptchain.NewSpace(p.N)
		acc.spaceMS += msSince(t0)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("build.matrix", parent)
		t0 = time.Now()
		_, err = chainmodel.BuildMatrix(aptchain.Emitter{P: p, Sp: space}, pool)
		acc.matrixMS += msSince(t0)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("build.instance", parent)
		a, err := aptchain.New(p, in.solver, space, pool)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		inst = a
	default:
		return nil, nil, fmt.Errorf("decompose: unsupported cell type %T", in.cell)
	}
	acc.chains++
	acc.states += int64(inst.NumStates())
	acc.nnz += int64(inst.Matrix().NNZ())

	// matrix: the kernels on the transient block T that every relation
	// solves against.
	blockNNZ, blockN, bytesPerIter, err := probeMatrix(tr, parent, acc, inst, in.solver)
	if err != nil {
		return nil, nil, err
	}

	// markov: the relations one by one.
	sp := tr.begin("markov.chain", parent)
	ch, err := inst.Chain(in.dist)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	ch.SeedWarmStart(in.warm)
	var a chainmodel.Analysis
	prevIters := ch.SolveStats().Iterations
	step := func(rel string, fn func() error) error {
		sp := tr.begin("markov."+rel, parent)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.end()
		acc.relMS[rel] += durMS(d)
		acc.solveNS += float64(d)
		it := ch.SolveStats().Iterations
		acc.relIters[rel] += it - prevIters
		prevIters = it
		if err != nil {
			return fmt.Errorf("markov %s: %w", rel, err)
		}
		return nil
	}
	err = step("visits", func() error {
		var err error
		if a.TimeInA, err = ch.ExpectedTotalTimeInA(); err != nil {
			return err
		}
		a.TimeInB, err = ch.ExpectedTotalTimeInB()
		return err
	})
	if err == nil {
		err = step("sojourns", func() error {
			var err error
			a.SojournsA, a.SojournsB, err = ch.SuccessiveSojournsBoth(in.sojourns)
			return err
		})
	}
	if err == nil {
		err = step("absorption", func() error {
			var err error
			a.Absorption, err = ch.AbsorptionProbabilities()
			return err
		})
	}
	var clean float64
	if err == nil {
		err = step("absorbed_within", func() error {
			var err error
			clean, err = ch.AbsorbedWithinA(inst.CleanClasses()...)
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	// Same clamping as chainmodel.AnalyzeChain.
	a.HitProbability = 1 - clean
	if a.HitProbability < 1e-14 {
		a.HitProbability = 0
	}
	if a.HitProbability > 1 {
		a.HitProbability = 1
	}
	st := ch.SolveStats()
	a.Solver = st
	ws := ch.RecordedWarmStart()
	// The hit relation runs after the warm start is recorded, so it
	// cannot change what a neighboring chain would be seeded with.
	if err := step("hit", func() error { _, err := ch.HitProbabilityB(); return err }); err != nil {
		return nil, nil, err
	}
	total := ch.SolveStats()
	acc.iterations += total.Iterations
	acc.fallbacks += total.Fallbacks
	acc.iterNNZ += float64(total.Iterations) * float64(blockNNZ)
	acc.iterBytes += float64(total.Iterations) * bytesPerIter
	acc.transientNNZ += int64(blockNNZ)
	acc.transientN += int64(blockN)
	return &a, ws, nil
}

// spmvReps is the number of timed SpMVs per probed block.
const spmvReps = 8

// probeMatrix times Solver.Factor, MixingEstimate and CSR.MulVecInto on
// inst's transient block and returns the block's nnz and order and the
// computed bytes of one solver iteration on it.
func probeMatrix(tr *tracer, parent *active, acc *layerAcc, inst chainmodel.Instance, sc matrix.SolverConfig) (int, int, float64, error) {
	sp := tr.begin("matrix.block", parent)
	full := inst.Matrix()
	var idx []int
	for i := 0; i < inst.NumStates(); i++ {
		if inst.TransientState(i) {
			idx = append(idx, i)
		}
	}
	block, err := full.SubCSR(idx, idx)
	sp.end()
	if err != nil {
		return 0, 0, 0, err
	}
	solver, err := sc.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	sp = tr.begin("matrix.factor", parent)
	t0 := time.Now()
	_, err = solver.Factor(block)
	acc.factorMS += msSince(t0)
	sp.end()
	if err != nil {
		return 0, 0, 0, err
	}
	sp = tr.begin("matrix.mixing_probe", parent)
	t0 = time.Now()
	_ = matrix.MixingEstimate(block, matrix.MixingProbeSteps)
	acc.mixingMS += msSince(t0)
	sp.end()

	n, nnz := block.Rows(), block.NNZ()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	sp = tr.begin("matrix.spmv", parent)
	t0 = time.Now()
	for r := 0; r < spmvReps; r++ {
		if err := block.MulVecInto(x, y); err != nil {
			sp.end()
			return 0, 0, 0, err
		}
		x, y = y, x
	}
	acc.spmvNS += float64(time.Since(t0))
	sp.end()
	acc.spmvBytes += spmvReps * spmvBytes(n, nnz)
	return nnz, n, iterBytes(n, nnz), nil
}

// wordBytes is the size of a float64 and of a Go int index on the
// 64-bit platforms the benchmark runs on.
const wordBytes = 8

// spmvBytes is the computed memory traffic of one CSR y = M·x: values
// and column indices per stored entry, the row pointers, the x reads
// (counted once each) and the y writes.
func spmvBytes(n, nnz int) float64 {
	return float64(nnz)*2*wordBytes + float64(n+1)*wordBytes + float64(n)*2*wordBytes
}

// iterBytes is the computed memory traffic of one iteration of the
// Gauss–Seidel-preconditioned BiCGSTAB the sparse backends run: two
// (I−M)·x products (a matrix pass plus five vector streams each), two
// preconditioner applications of two GS sweeps (a matrix pass plus four
// vector streams per sweep) and nineteen vector streams of dot products
// and updates. Periodic convergence checks are not counted.
func iterBytes(n, nnz int) float64 {
	pass := float64(nnz)*2*wordBytes + float64(n+1)*wordBytes
	vec := float64(n) * wordBytes
	return 2*(pass+5*vec) + 2*2*(pass+4*vec) + 19*vec
}

// addLayerMetrics reports acc as the build, matrix and markov per-layer
// metrics.
func addLayerMetrics(rep *report, acc *layerAcc, copyGBps float64) {
	per := func(x float64) float64 {
		if acc.chains == 0 {
			return 0
		}
		return x / float64(acc.chains)
	}
	rep.layers["build.space_ms"] = metric{per(acc.spaceMS), "ms"}
	rep.layers["build.gains_ms"] = metric{per(acc.gainsMS), "ms"}
	rep.layers["build.matrix_ms"] = metric{per(acc.kernelMS + acc.matrixMS), "ms"}
	rows := 0.0
	if acc.matrixMS > 0 {
		rows = float64(acc.states) / (acc.matrixMS / 1000)
	}
	rep.layers["build.rows_per_s"] = metric{rows, "1/s"}
	rep.layers["build.states"] = metric{float64(acc.states), "count"}
	rep.layers["build.nnz"] = metric{float64(acc.nnz), "count"}
	rep.layers["matrix.factor_ms"] = metric{per(acc.factorMS), "ms"}
	rep.layers["matrix.mixing_probe_ms"] = metric{per(acc.mixingMS), "ms"}
	rep.layers["matrix.iterations"] = metric{float64(acc.iterations), "count"}
	rep.layers["matrix.fallbacks"] = metric{float64(acc.fallbacks), "count"}
	nsIter := 0.0
	if acc.iterNNZ > 0 {
		nsIter = acc.solveNS / acc.iterNNZ
	}
	rep.layers["matrix.ns_per_iter_nnz"] = metric{nsIter, "ns"}
	gbps := 0.0
	if acc.spmvNS > 0 {
		gbps = acc.spmvBytes / acc.spmvNS
	}
	rep.layers["matrix.spmv_gbps"] = metric{gbps, "GB/s"}
	perIter := 0.0
	if acc.iterations > 0 {
		perIter = acc.iterBytes / float64(acc.iterations)
	}
	rep.layers["matrix.bytes_per_iter_computed"] = metric{perIter, "B"}
	perSpmv := 0.0
	if acc.chains > 0 {
		perSpmv = spmvBytes(int(acc.transientN)/acc.chains, int(acc.transientNNZ)/acc.chains)
	}
	rep.layers["matrix.bytes_per_spmv_computed"] = metric{perSpmv, "B"}
	rep.layers["matrix.copy_gbps"] = metric{copyGBps, "GB/s"}
	for _, rel := range relations {
		rep.layers["markov."+rel+"_ms"] = metric{per(acc.relMS[rel]), "ms"}
		rep.layers["markov."+rel+".iters"] = metric{float64(acc.relIters[rel]), "count"}
		rep.counts["matrix.iterations."+rel] = acc.relIters[rel]
	}
	rep.counts["build.nnz"] = acc.nnz
	rep.counts["build.states"] = acc.states
	rep.counts["decomposed_chains"] = int64(acc.chains)
}

func msSince(t time.Time) float64 { return durMS(time.Since(t)) }

// relClose reports whether a and b agree to rel relative tolerance, with
// an absolute floor for values that are zero up to round-off.
func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= rel*math.Max(math.Abs(a), math.Abs(b)) || d <= 1e-15
}

// analysisDiff compares two analyses field by field at rel (0 demands
// bit equality) and names the first differing field, or "".
func analysisDiff(got, want *chainmodel.Analysis, rel float64) string {
	eq := func(a, b float64) bool {
		if rel == 0 {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return relClose(a, b, rel)
	}
	if !eq(got.TimeInA, want.TimeInA) {
		return fmt.Sprintf("time_in_a %v != %v", got.TimeInA, want.TimeInA)
	}
	if !eq(got.TimeInB, want.TimeInB) {
		return fmt.Sprintf("time_in_b %v != %v", got.TimeInB, want.TimeInB)
	}
	if len(got.SojournsA) != len(want.SojournsA) || len(got.SojournsB) != len(want.SojournsB) {
		return "sojourn counts differ"
	}
	for i := range got.SojournsA {
		if !eq(got.SojournsA[i], want.SojournsA[i]) {
			return fmt.Sprintf("sojourns_a[%d] %v != %v", i, got.SojournsA[i], want.SojournsA[i])
		}
	}
	for i := range got.SojournsB {
		if !eq(got.SojournsB[i], want.SojournsB[i]) {
			return fmt.Sprintf("sojourns_b[%d] %v != %v", i, got.SojournsB[i], want.SojournsB[i])
		}
	}
	if len(got.Absorption) != len(want.Absorption) {
		return "absorption classes differ"
	}
	for k, v := range want.Absorption {
		if !eq(got.Absorption[k], v) {
			return fmt.Sprintf("absorption[%s] %v != %v", k, got.Absorption[k], v)
		}
	}
	if !eq(got.HitProbability, want.HitProbability) {
		return fmt.Sprintf("hit_probability %v != %v", got.HitProbability, want.HitProbability)
	}
	return ""
}

// decomposeSample decomposes a seeded sample of k distinct analytic
// requests from reqs (every cell of an analyze, up to two cells of a
// grid), and replays the simulation requests' replicas through
// overlaynet directly, reporting the build, matrix, markov, sweep and
// overlay per-layer metrics of the work those requests cost on a miss.
func decomposeSample(ctx context.Context, rep *report, tr *tracer, reqs []request, seed int64, k int) error {
	seen := map[string]bool{}
	var analytic, sims []request
	for _, r := range reqs {
		if seen[r.body] {
			continue
		}
		seen[r.body] = true
		if r.kind == "simsweep" {
			sims = append(sims, r)
		} else {
			analytic = append(analytic, r)
		}
	}
	rng := newRand(seed, 0xdec0)
	rng.Shuffle(len(analytic), func(i, j int) { analytic[i], analytic[j] = analytic[j], analytic[i] })
	acc := newLayerAcc()
	var cells, chains, lanes int
	for _, r := range analytic[:min(k, len(analytic))] {
		var f requestFields
		if err := json.Unmarshal([]byte(r.body), &f); err != nil {
			return err
		}
		fam, err := f.family()
		if err != nil {
			return err
		}
		dist, err := fam.ParseDist(f.Distribution)
		if err != nil {
			return err
		}
		var todo []chainmodel.Cell
		if r.kind == "analyze" {
			cell, err := fam.ParseCell(json.RawMessage(r.body))
			if err != nil {
				return err
			}
			todo = []chainmodel.Cell{cell}
		} else {
			_, rs, err := libraryGrid(ctx, r)
			if err != nil {
				return err
			}
			cells += len(rs.Cells)
			chains += rs.Evaluated
			lanes += countLanes(fam, rs.Plan.Cells, rs)
			todo = rs.Plan.Cells[:min(2, len(rs.Plan.Cells))]
		}
		for _, cell := range todo {
			root := tr.begin("chain", nil)
			_, _, err := decomposeChain(tr, root, acc, chainInput{
				fam: fam, cell: cell, solver: f.solver(), dist: dist, sojourns: f.sojourns(),
			})
			root.end()
			if err != nil {
				return fmt.Errorf("decomposing %s: %w", r.body, err)
			}
		}
	}
	addLayerMetrics(rep, acc, copyBandwidth(rep))
	dedup := 0.0
	if cells > 0 {
		dedup = float64(chains) / float64(cells)
	}
	rep.layers["sweep.dedup_ratio"] = metric{dedup, "ratio"}
	rep.layers["sweep.lanes"] = metric{float64(lanes), "count"}
	ipc := 0.0
	if acc.chains > 0 {
		ipc = float64(acc.iterations) / float64(acc.chains)
	}
	rep.layers["sweep.iters_per_chain"] = metric{ipc, "count"}

	oacc := &overlayAcc{}
	for _, r := range sims {
		plan, err := simPlan(r.body)
		if err != nil {
			return err
		}
		rs, err := sweep.EvaluateSim(ctx, plan, sweep.SimOptions{Pool: engine.New(1)})
		if err != nil {
			return err
		}
		for _, c := range rs.Cells {
			root := tr.begin("cell", nil)
			err := replayCell(tr, root, oacc, plan, c)
			root.end()
			if err != nil {
				return err
			}
		}
	}
	if oacc.mismatch != "" {
		rep.mismatch("%s", oacc.mismatch)
	}
	addOverlayMetrics(rep, oacc)
	return nil
}
