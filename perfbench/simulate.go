package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"targetedattacks/internal/adversary"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/overlaynet"
	"targetedattacks/internal/sweep"
)

// The simulate workload: sweep.EvaluateSim with fast identities on one
// worker over a strategy × µ grid at three populations from 10^5 to
// 3·10^5 peers, with fixed events and one replica per cell. des and
// overlaynet do all of the work; matrix does none.

const (
	simEvents = 20000
	// simRefSeed, simRefHash pin the summary of simRefPlan's only cell:
	// the simulator must reproduce it bit for bit.
	simRefSeed = 2011
	simRefHash = "5bbf0e0b9aa8149070633bfaf99285730ff9dc96cc9c0fe43629ee711d084fef"
)

// simSizes are the populations of the grid; with three sizes the median
// cell latency falls inside the middle size, not between two.
var simSizes = []int{100000, 200000, 300000}

// simPassSeconds is the duration of one simulate pass on a 2-vCPU Xeon
// @ 2.10GHz; a run makes passCount passes.
const simPassSeconds = 6.5

func simulatePlan(seed int64) sweep.SimPlan {
	return sweep.SimPlan{
		Strategies:   []adversary.Strategy{adversary.StrategyPaper, adversary.StrategyNoRule1},
		Mu:           []float64{0.1, 0.2},
		D:            []float64{0.9},
		Sizes:        simSizes,
		Params:       core.Params{C: 7, Delta: 7, K: 1, Nu: 0.1},
		Events:       simEvents,
		Replicas:     1,
		Seed:         seed,
		Mode:         overlaynet.ModelFidelity,
		FastIdentity: true,
	}
}

// simRefPlan is the fixed-seed reference cell.
func simRefPlan() sweep.SimPlan {
	p := simulatePlan(simRefSeed)
	p.Strategies = p.Strategies[:1]
	p.Mu = []float64{0.2}
	p.Sizes = []int{100000}
	p.Events = 5000
	return p
}

// simConfig is the overlay configuration sweep.EvaluateSim runs for one
// replica of cell (the same mapping as the sweep's own).
func simConfig(plan sweep.SimPlan, cell sweep.SimCell, seed int64) overlaynet.Config {
	p := plan.Params
	p.Mu, p.D = cell.Mu, cell.D
	bits := cell.LabelBits
	if bits == 0 {
		bits = -1
	}
	return overlaynet.Config{
		Params:               p,
		IDBits:               64,
		InitialLabelBits:     bits,
		Mode:                 plan.Mode,
		FastIdentity:         plan.FastIdentity,
		Strategy:             cell.Strategy,
		StationaryPopulation: plan.Stationary,
		TrackAbsorption:      plan.TrackAbsorption,
		StopOnAbsorption:     plan.StopOnAbsorption,
		Seed:                 seed,
	}
}

// simPass is one evaluation of the plan.
type simPass struct {
	wall      time.Duration
	firstCell time.Duration
	cellMS    []float64
	rs        *sweep.SimResultSet
}

func runSimPass(ctx context.Context, plan sweep.SimPlan, tr *tracer) (*simPass, error) {
	sp := tr.begin("sweep.simulate", nil)
	defer sp.end()
	p := &simPass{}
	start := time.Now()
	last := start
	rs, err := sweep.EvaluateSim(ctx, plan, sweep.SimOptions{
		Pool: engine.New(1),
		OnCell: func(sweep.SimCellResult) {
			now := time.Now()
			if len(p.cellMS) == 0 {
				p.firstCell = now.Sub(start)
			}
			p.cellMS = append(p.cellMS, durMS(now.Sub(last)))
			last = now
		},
	})
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(start)
	p.rs = rs
	return p, nil
}

func runSimulate(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	plan := simulatePlan(o.seed)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		warmPlan := simulatePlan(o.seed)
		warmPlan.Sizes, warmPlan.Events = []int{10000}, 2000
		if _, err := sweep.EvaluateSim(ctx, warmPlan, sweep.SimOptions{Pool: engine.New(1)}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}

	settle()
	mem0 := readMem()
	peak := startHeapPeak()
	start := time.Now()
	var passes []*simPass
	for n := passCount(o.seconds, simPassSeconds); len(passes) < n; {
		p, err := runSimPass(ctx, plan, nil)
		if err != nil {
			peak.finish()
			return nil, err
		}
		passes = append(passes, p)
	}
	elapsed := time.Since(start)
	heap := peak.finish()
	mem1 := readMem()

	var walls, firsts, lat []float64
	var cells, events int64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		firsts = append(firsts, durMS(p.firstCell))
		lat = append(lat, p.cellMS...)
		for _, c := range p.rs.Cells {
			cells++
			events += c.Summary.Events
		}
	}
	ls := summarize(lat)
	rep.endToEnd["latency_p50_ms"] = metric{ls.P50, "ms"}
	rep.extra["latency_tail_ms"] = metric{ls.Tail, "ms"}
	rep.extra["first_cell_ms"] = metric{median(firsts), "ms"}
	rep.endToEnd["cells_per_s"] = metric{float64(cells) / elapsed.Seconds(), "cells/s"}
	rep.endToEnd["heap_peak_mb"] = metric{heap, "MB"}
	rep.extra["run_s"] = metric{median(walls), "s"}
	rep.extra["sim_events_per_s"] = metric{float64(events) / elapsed.Seconds(), "events/s"}
	rep.notes["passes"] = len(passes)
	rep.notes["pass_walls_s"] = walls
	rep.notes["latency"] = ls
	rep.notes["runtime_alloc_mb"] = float64(mem1.allocBytes-mem0.allocBytes) / (1 << 20)
	rep.attempted = cells

	// Exact counts, pass-to-pass bit identity and the pinned reference.
	first := passes[0].rs
	var passEvents int64
	for i, c := range first.Cells {
		passEvents += c.Summary.Events
		rep.counts[fmt.Sprintf("des.events.cell%d", i)] = c.Summary.Events
	}
	rep.counts["des.events"] = passEvents
	rep.counts["cells"] = int64(len(first.Cells))
	for _, p := range passes[1:] {
		for i, c := range p.rs.Cells {
			a, err := simCellJSON(c)
			if err != nil {
				return nil, err
			}
			b, err := simCellJSON(first.Cells[i])
			if err != nil {
				return nil, err
			}
			if string(a) != string(b) {
				rep.mismatch("simulate cell %d differs between passes", i)
			}
		}
	}
	if err := checkSimReference(ctx, rep); err != nil {
		return nil, err
	}

	if o.trace {
		tr := newTracer(true)
		traced, err := runSimPass(ctx, plan, tr)
		if err != nil {
			return nil, err
		}
		rep.layers["trace.overhead_pct"] = metric{100 * (traced.wall.Seconds()/passes[0].wall.Seconds() - 1), "%"}
		acc := &overlayAcc{}
		for _, c := range first.Cells {
			root := tr.begin("cell", nil)
			err := replayCell(tr, root, acc, plan, c)
			root.end()
			if err != nil {
				return nil, err
			}
		}
		if acc.mismatch != "" {
			rep.mismatch("%s", acc.mismatch)
		}
		addOverlayMetrics(rep, acc)
		addRuntime(rep, mem0, mem1)
		addSelfTimes(rep, tr, "sweep", "overlaynet")
		path, err := tr.dump(o.outDir, o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		rep.notes["spans_file"] = path
	}
	return rep, nil
}

// checkSimReference evaluates the fixed-seed reference cell and compares
// its wire summary's hash with the pinned one.
func checkSimReference(ctx context.Context, rep *report) error {
	rs, err := sweep.EvaluateSim(ctx, simRefPlan(), sweep.SimOptions{Pool: engine.New(1)})
	if err != nil {
		return err
	}
	b, err := simCellJSON(rs.Cells[0])
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != simRefHash {
		rep.mismatch("simulate reference cell (seed %d) hash %s, want %s: %s", simRefSeed, got, simRefHash, b)
	}
	return nil
}

// overlayAcc accumulates directly replayed replicas.
type overlayAcc struct {
	replicas           int
	bootstrapMS, runMS float64
	events, allocs     int64
	mismatch           string
}

// replayCell re-runs each replica of a one-replica cell through
// overlaynet.New and Network.Run directly, timing both, and checks the
// outcome against the sweep's summary.
func replayCell(tr *tracer, parent *active, acc *overlayAcc, plan sweep.SimPlan, c sweep.SimCellResult) error {
	for r := 0; r < plan.Replicas; r++ {
		task := c.Cell.Index*plan.Replicas + r
		seed := engine.Stream(uint64(plan.Seed), uint64(task)).Int64()
		sp := tr.begin("overlaynet.bootstrap", parent)
		t0 := time.Now()
		n, err := overlaynet.New(simConfig(plan, c.Cell, seed))
		acc.bootstrapMS += msSince(t0)
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("overlaynet.run", parent)
		m0 := readMem()
		t0 = time.Now()
		err = n.Run(plan.Events)
		acc.runMS += msSince(t0)
		m1 := readMem()
		sp.end()
		if err != nil {
			return err
		}
		met, snap := n.Metrics(), n.Snapshot()
		acc.replicas++
		acc.events += met.Events
		acc.allocs += int64(m1.allocs - m0.allocs)
		if plan.Replicas == 1 && acc.mismatch == "" &&
			(met.Events != c.Summary.Events || float64(snap.Peers) != c.Summary.FinalPeers.Mean() ||
				snap.PollutedFraction != c.Summary.PollutedFraction.Mean()) {
			acc.mismatch = fmt.Sprintf("cell %d: direct overlaynet replay differs from the sweep summary", c.Cell.Index)
		}
	}
	return nil
}

func addOverlayMetrics(rep *report, acc *overlayAcc) {
	per := func(x float64) float64 {
		if acc.replicas == 0 {
			return 0
		}
		return x / float64(acc.replicas)
	}
	rep.layers["overlaynet.bootstrap_ms"] = metric{per(acc.bootstrapMS), "ms"}
	rep.layers["overlaynet.run_ms"] = metric{per(acc.runMS), "ms"}
	rep.layers["des.events"] = metric{float64(acc.events), "count"}
	eps := 0.0
	if acc.runMS > 0 {
		eps = float64(acc.events) / (acc.runMS / 1000)
	}
	rep.layers["des.events_per_s"] = metric{eps, "events/s"}
	ape := 0.0
	if acc.events > 0 {
		ape = float64(acc.allocs) / float64(acc.events)
	}
	rep.layers["overlaynet.allocs_per_event"] = metric{ape, "count"}
	rep.counts["des.events.replayed"] = acc.events
}
