package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The serving workloads drive an in-process attackd through its HTTP
// handler over a loopback listener, from one generating process with at
// most nproc connections.

// serve-hot calibration. hotCapacityRPS is the closed-loop capacity of
// the hot mix measured with --capacity on a 2-vCPU Xeon @ 2.10GHz; the
// main phase offers hotLoad of it for hotMainShare of the run. hotLoad is
// 35%, not 70%: queueing amplifies the host's own speed changes, and the
// median latency moved 15–22% between runs at 70% and up to 16% at 50%,
// but about 6% at 35%. The staircase then offers each of hotSteps times
// the main rate, up to 87.5% of capacity, for hotStepShare of the run.
const (
	hotCapacityRPS = 17800.0
	hotLoad        = 0.35
	hotMainShare   = 0.6
	hotStepShare   = 0.1
	// hotLimit is the latency limit of slo_met_share and slo_rate_rps.
	hotLimit = 25 * time.Millisecond
	// genLagBound marks a run invalid: the generator's p99 lag must stay
	// below it, or the measured latencies are the generator's, not the
	// server's.
	genLagBound = 20 * time.Millisecond
	// hotVerify is how many main-phase replies are checked against the
	// library.
	hotVerify = 8
	// hotWindow splits the main phase for its latency metrics: each is
	// the median over windows of the window's own statistic, so one
	// stalled second moves it by one rank instead of setting it.
	hotWindow = 250 * time.Millisecond
)

var hotSteps = []float64{1.5, 2.0, 2.25, 2.5}

// hotMix is the serve-hot request universe: small cells (C=∆ 7–20) of
// both registered families, 4–16-cell sweeps, and 64-peer simulation
// sweeps. Draws within a kind are Zipf-distributed over the variants,
// so a few keys take most of the traffic.
type hotMix struct {
	kinds   []string
	weights []float64
	byKind  map[string][]request
}

func newHotMix() *hotMix {
	m := &hotMix{byKind: map[string][]request{}}
	add := func(kind string, weight float64, reqs []request) {
		m.kinds = append(m.kinds, kind)
		m.weights = append(m.weights, weight)
		m.byKind[kind] = reqs
	}
	var analyze []request
	for _, c := range []int{7, 10, 14, 20} {
		for _, k := range []int{1, 2} {
			for _, md := range [][2]float64{{0.2, 0.8}, {0.1, 0.5}, {0.3, 0.9}} {
				analyze = append(analyze, request{kind: "analyze",
					body: fmt.Sprintf(`{"c":%d,"delta":%d,"k":%d,"mu":%g,"d":%g,"nu":0.1,"sojourns":2}`, c, c, k, md[0], md[1])})
			}
		}
	}
	var aptAnalyze []request
	for _, n := range []int{6, 10, 16} {
		for _, theta := range []float64{0.2, 0.4} {
			for _, rho := range []float64{0, 0.3} {
				aptAnalyze = append(aptAnalyze, request{kind: "analyze", model: "apt-compromise",
					body: fmt.Sprintf(`{"model":"apt-compromise","n":%d,"theta":%g,"phi":0.5,"rho":%g,"detect":0.1}`, n, theta, rho)})
			}
		}
	}
	grids := []string{
		`{"c":"7","delta":"7","k":"1","mu":"0.1,0.2","d":"0.5,0.8","nu":"0.1"}`,
		`{"c":"10","delta":"10","k":"2","mu":"0.2","d":"0.5,0.7,0.9","nu":"0.1,0.3"}`,
		`{"c":"14","delta":"14","k":"1","mu":"0.1,0.2","d":"0.6,0.8","nu":"0.1,0.2"}`,
		`{"c":"7","delta":"7","k":"2","mu":"0.1,0.2,0.3,0.4","d":"0.5,0.6,0.8,0.9","nu":"0.1"}`,
		`{"model":"apt-compromise","n":"8","theta":"0.2,0.4","phi":"0.5","detect":"0.1","rho":"0,0.2"}`,
		`{"model":"apt-compromise","n":"12","theta":"0.3","phi":"0.4,0.6","detect":"0.1","rho":"0,0.1,0.2"}`,
	}
	var sweeps, streams []request
	for _, g := range grids {
		model := ""
		if g[2:7] == "model" {
			model = "apt-compromise"
		}
		sweeps = append(sweeps, request{kind: "sweep", body: g, model: model})
		streams = append(streams, request{kind: "stream", body: g, model: model})
	}
	var sims []request
	for seed := 1; seed <= 4; seed++ {
		sims = append(sims, request{kind: "simsweep",
			body: fmt.Sprintf(`{"mu":"0.2","d":"0.9","sizes":"64","events":200,"replicas":1,"seed":%d}`, seed)})
	}
	add("analyze", 45, analyze)
	add("analyze:apt", 15, aptAnalyze)
	add("sweep", 15, sweeps)
	add("stream", 20, streams)
	add("simsweep", 5, sims)
	return m
}

// zipfIndex draws a rank in [0, n) with P(r) ∝ 1/(r+1).
func zipfIndex(rng *rand.Rand, n int) int {
	var total float64
	for r := 0; r < n; r++ {
		total += 1 / float64(r+1)
	}
	u := rng.Float64() * total
	for r := 0; r < n; r++ {
		u -= 1 / float64(r+1)
		if u <= 0 {
			return r
		}
	}
	return n - 1
}

// draw picks one request.
func (m *hotMix) draw(rng *rand.Rand) request {
	var total float64
	for _, w := range m.weights {
		total += w
	}
	u := rng.Float64() * total
	kind := m.kinds[len(m.kinds)-1]
	for i, w := range m.weights {
		if u < w {
			kind = m.kinds[i]
			break
		}
		u -= w
	}
	vs := m.byKind[kind]
	return vs[zipfIndex(rng, len(vs))]
}

// setCells records each variant's known cell count.
func (m *hotMix) setCells(cells map[string]int) {
	for _, vs := range m.byKind {
		for i := range vs {
			vs[i].cells = cells[vs[i].body]
		}
	}
}

// all lists every distinct request of the universe (streams are served
// from the buffered sweeps' cache entries).
func (m *hotMix) all() []request {
	var out []request
	for _, k := range m.kinds {
		if k != "stream" {
			out = append(out, m.byKind[k]...)
		}
	}
	return out
}

// warm sends every request once over conns parallel clients and
// returns each body's cell count (simulation cells included).
func warm(ctx context.Context, s *server, reqs []request, conns int) (map[string]int, error) {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	cells := make([]int, len(reqs))
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += conns {
				req := reqs[i]
				req.cells = 0
				rp, err := s.do(ctx, req, true)
				if err != nil && errs[w] == nil {
					errs[w] = fmt.Errorf("warm-up %s %s: %w", reqs[i].kind, reqs[i].body, err)
				}
				cells[i] = rp.cells
				if req.kind == "simsweep" {
					var env envelope
					if jerr := json.Unmarshal(rp.body, &env); jerr == nil {
						cells[i] = len(env.Cells)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]int, len(reqs))
	for i, r := range reqs {
		out[r.body] = cells[i]
	}
	return out, nil
}

// setupServer starts attackd and warms it with reqs, setupReps times,
// keeping the last server; it returns that server, the median set-up
// time in seconds and each warmed body's cell count.
func setupServer(ctx context.Context, reqs []request, conns int) (*server, float64, map[string]int, error) {
	var times []float64
	var s *server
	var cells map[string]int
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, 0, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(runtime.NumCPU(), conns); err != nil {
			return nil, 0, nil, err
		}
		if cells, err = warm(ctx, s, reqs, conns); err != nil {
			s.stop()
			return nil, 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), cells, nil
}

// phaseResult is what one open-loop phase observed.
type phaseResult struct {
	rate     float64
	samples  []sample
	replies  []reply
	reqs     []request
	span     time.Duration
	attempts int
	failures int
	refused  map[int]int
}

// runPhase offers reqs on the Poisson schedule of (seed, rate, span);
// replies of the indices in keep are retained for verification.
func runPhase(ctx context.Context, s *server, tr *tracer, seed uint64, rate float64, span time.Duration,
	gen func(i int) request, keep map[int]bool, conns int, stages *stageAcc) *phaseResult {
	// Traced phases ask one request in timingEvery for the server's
	// stage breakdown: enough replies for stable stage means, few enough
	// that building the breakdown does not load a server near capacity.
	const timingEvery = 16
	sched := poissonSchedule(seed, rate, span)
	pr := &phaseResult{rate: rate, span: span, reqs: make([]request, len(sched)),
		replies: make([]reply, len(sched)), refused: map[int]int{}}
	for i := range sched {
		pr.reqs[i] = gen(i)
		pr.reqs[i].timings = tr != nil && i%timingEvery == 0
	}
	pr.samples = openLoop(sched, conns, func(a arrival) error {
		sp := tr.begin("attackd.request", nil)
		rp, err := s.do(ctx, pr.reqs[a.Index], keep[a.Index])
		sp.end()
		pr.replies[a.Index] = rp
		if stages != nil && err == nil {
			stages.add(rp.stages)
		}
		return err
	})
	pr.attempts = len(sched)
	for i, smp := range pr.samples {
		if smp.Err != nil {
			pr.failures++
			if st := pr.replies[i].status; st != 0 && st != http.StatusOK {
				pr.refused[st]++
			}
		}
	}
	return pr
}

// latencies returns the phase's due-to-completion latencies in ms.
// Failed requests count as infinitely late, so they miss every limit.
func (pr *phaseResult) latencies() []float64 {
	out := make([]float64, len(pr.samples))
	for i, smp := range pr.samples {
		out[i] = durMS(smp.Latency)
		if smp.Err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// withinShare is the share of attempts completed within limit.
func (pr *phaseResult) withinShare(limit time.Duration) float64 {
	if pr.attempts == 0 {
		return 0
	}
	ok := 0
	for _, smp := range pr.samples {
		if smp.Err == nil && smp.Latency <= limit {
			ok++
		}
	}
	return float64(ok) / float64(pr.attempts)
}

// meetsSLO reports whether the phase kept its tail within limit without
// a growing backlog: the last quarter of arrivals must not wait
// markedly longer than the first quarter.
func (pr *phaseResult) meetsSLO(limit time.Duration) bool {
	lat := pr.latencies()
	if len(lat) < 8 || pr.failures > 0 {
		return false
	}
	if percentile(append([]float64(nil), lat...), tailPercentile(len(lat))) > durMS(limit) {
		return false
	}
	q := len(lat) / 4
	first := median(append([]float64(nil), lat[:q]...))
	last := median(append([]float64(nil), lat[len(lat)-q:]...))
	return last <= 2*first+1
}

// lagP99 is the generator's 99th-percentile lag in ms.
func (pr *phaseResult) lagP99() float64 {
	xs := make([]float64, len(pr.samples))
	for i, smp := range pr.samples {
		xs[i] = durMS(smp.Lag)
	}
	return percentile(xs, 99)
}

func (pr *phaseResult) connWaitP50() float64 {
	xs := make([]float64, len(pr.samples))
	for i, smp := range pr.samples {
		xs[i] = durMS(smp.ConnWait)
	}
	return median(xs)
}

// cellsDelivered counts the analytic cells of the successful replies.
func (pr *phaseResult) cellsDelivered() int {
	cells := 0
	for i, rp := range pr.replies {
		if pr.samples[i].Err == nil && pr.reqs[i].kind != "simsweep" {
			cells += rp.cells
		}
	}
	return cells
}

// windows splits the phase by due time into windows of w and returns
// each window's median latency, its tail latency (tailPercentile of its
// sample count) and its median time to the first streamed cell.
func (pr *phaseResult) windows(w time.Duration) (p50s, tails, firsts []float64) {
	n := int(pr.span / w)
	if n < 1 {
		n = 1
	}
	lat := make([][]float64, n)
	first := make([][]float64, n)
	all := pr.latencies()
	for i, smp := range pr.samples {
		k := min(int(smp.Due/w), n-1)
		lat[k] = append(lat[k], all[i])
		if pr.reqs[i].kind == "stream" && smp.Err == nil {
			first[k] = append(first[k], durMS(smp.ConnWait+pr.replies[i].firstCell))
		}
	}
	for k := 0; k < n; k++ {
		if len(lat[k]) == 0 {
			continue
		}
		ls := summarize(lat[k])
		p50s = append(p50s, ls.P50)
		tails = append(tails, ls.Tail)
		if len(first[k]) > 0 {
			firsts = append(firsts, median(first[k]))
		}
	}
	return p50s, tails, firsts
}

// hitLatencyUS is the median client-timed latency, from send, of cached
// replies.
func (pr *phaseResult) hitLatencyUS() float64 {
	var xs []float64
	for i, rp := range pr.replies {
		if pr.samples[i].Err == nil && rp.cached {
			xs = append(xs, float64(pr.samples[i].Latency-pr.samples[i].ConnWait)/1e3)
		}
	}
	return median(xs)
}

// sampleIndices picks k distinct indices below n from rng.
func sampleIndices(rng *rand.Rand, n, k int) map[int]bool {
	out := map[int]bool{}
	if n == 0 {
		return out
	}
	for _, i := range rng.Perm(n)[:min(k, n)] {
		out[i] = true
	}
	return out
}

func runServeHot(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	conns := runtime.NumCPU()
	mix := newHotMix()
	s, setup, cellCounts, err := setupServer(ctx, mix.all(), conns)
	if err != nil {
		return nil, err
	}
	mix.setCells(cellCounts)
	defer s.stop()
	rep.endToEnd["setup_s"] = metric{setup, "s"}
	if o.capacity {
		return measureCapacity(ctx, s, mix, o, conns, rep)
	}

	total := time.Duration(o.seconds * float64(time.Second))
	mainSpan := time.Duration(hotMainShare * float64(total))
	baseRate := hotLoad * hotCapacityRPS
	gen := func(stream uint64) func(int) request {
		rng := newRand(o.seed, stream)
		return func(int) request { return mix.draw(rng) }
	}
	// The main phase's request sequence is a pure function of the seed,
	// so the verification sample can be chosen before it runs.
	nMain := len(poissonSchedule(uint64(o.seed), baseRate, mainSpan))
	keep := sampleIndices(newRand(o.seed, 0x7e51), nMain, hotVerify)

	settle()
	mem0 := readMem()
	peak := startHeapPeak()
	before, err := s.scrape(ctx)
	if err != nil {
		peak.finish()
		return nil, err
	}
	main := runPhase(ctx, s, nil, uint64(o.seed), baseRate, mainSpan, gen(1), keep, conns, nil)
	var steps []*phaseResult
	for i, mult := range hotSteps {
		span := time.Duration(hotStepShare * float64(total))
		steps = append(steps, runPhase(ctx, s, nil, uint64(o.seed)+uint64(i+1)*7919, mult*baseRate, span, gen(uint64(i+2)), nil, conns, nil))
	}
	heap := peak.finish()
	mem1 := readMem()
	after, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}

	ls := summarize(main.latencies())
	cells := main.cellsDelivered()
	p50s, tails, firsts := main.windows(hotWindow)
	rep.endToEnd["latency_p50_ms"] = metric{median(p50s), "ms"}
	rep.extra["latency_tail_ms"] = metric{median(tails), "ms"}
	rep.extra["first_cell_ms"] = metric{median(firsts), "ms"}
	rep.endToEnd["cells_per_s"] = metric{float64(cells) / mainSpan.Seconds(), "cells/s"}
	rep.endToEnd["heap_peak_mb"] = metric{heap, "MB"}
	rep.extra["slo_met_share"] = metric{main.withinShare(hotLimit), "fraction"}
	sloRate := 0.0
	if main.meetsSLO(hotLimit) {
		sloRate = main.rate
	}
	stepTable := []map[string]any{}
	for _, st := range steps {
		ok := st.meetsSLO(hotLimit)
		if ok && st.rate > sloRate {
			sloRate = st.rate
		}
		sst := summarize(st.latencies())
		stepTable = append(stepTable, map[string]any{
			"rate_rps": st.rate, "attempted": st.attempts, "failed": st.failures,
			"p50_ms": sst.P50, "tail_ms": sst.Tail, "tail_percentile": sst.TailPct,
			"meets_limit": ok, "gen_lag_p99_ms": st.lagP99(),
		})
	}
	rep.extra["slo_rate_rps"] = metric{sloRate, "req/s"}
	rep.extra["latency_limit_ms"] = metric{durMS(hotLimit), "ms"}
	rep.notes["main"] = map[string]any{"rate_rps": baseRate, "latency": ls, "window_p50_ms": p50s, "window_tail_ms": tails, "gen_lag_p99_ms": main.lagP99(),
		"conn_wait_p50_ms": main.connWaitP50(), "refused": main.refused}
	rep.notes["staircase"] = stepTable
	rep.notes["runtime_alloc_mb"] = float64(mem1.allocBytes-mem0.allocBytes) / (1 << 20)

	phases := append([]*phaseResult{main}, steps...)
	names := []string{"main"}
	for i := range steps {
		names = append(names, fmt.Sprintf("step%d", i+1))
	}
	for i, ph := range phases {
		rep.attempted += int64(ph.attempts)
		rep.failed += int64(ph.failures)
		rep.counts["requests."+names[i]+".attempted"] = int64(ph.attempts)
		rep.counts["requests."+names[i]+".succeeded"] = int64(ph.attempts - ph.failures)
		rep.counts["requests."+names[i]+".failed"] = int64(ph.failures)
		if lag := ph.lagP99(); lag > durMS(genLagBound) {
			rep.mismatch("%s phase invalid: generator p99 lag %.1f ms exceeds %v", names[i], lag, genLagBound)
		}
	}
	rep.counts["cells.main"] = int64(cells)
	rep.counts["evaluations"] = int64(delta(before, after, "attackd_evaluations_total{}") + delta(before, after, "attackd_sim_evaluations_total{}"))
	verifyKept(ctx, rep, s, main, keep)

	if o.trace {
		// The traced phase repeats the main phase with timings on and a
		// client span per request; its median against the untraced
		// phase's is the tracing overhead.
		stages := &stageAcc{}
		tr := newTracer(true)
		b2, err := s.scrape(ctx)
		if err != nil {
			return nil, err
		}
		mem2 := readMem()
		traced := runPhase(ctx, s, tr, uint64(o.seed), baseRate, mainSpan, gen(1), nil, conns, stages)
		mem3 := readMem()
		a2, err := s.scrape(ctx)
		if err != nil {
			return nil, err
		}
		tp50s, _, _ := traced.windows(hotWindow)
		rep.layers["trace.overhead_pct"] = metric{100 * (median(tp50s)/median(p50s) - 1), "%"}
		addServeLayers(rep, traced, stages, b2, a2)
		addRuntime(rep, mem2, mem3)
		if err := decomposeSample(ctx, rep, tr, traced.reqs, o.seed, 4); err != nil {
			return nil, err
		}
		addSelfTimes(rep, tr, "attackd", "sweep", "build", "matrix", "markov", "overlaynet")
		path, err := tr.dump(o.outDir, o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		rep.notes["spans_file"] = path
	}
	return rep, nil
}

// verifyKept checks the phase's kept replies against the library.
func verifyKept(ctx context.Context, rep *report, s *server, ph *phaseResult, keep map[int]bool) {
	idx := make([]int, 0, len(keep))
	for i := range keep {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	checked := 0
	for _, i := range idx {
		if i >= len(ph.reqs) || ph.samples[i].Err != nil {
			continue
		}
		checked++
		if err := verifyReply(ctx, s, ph.reqs[i], ph.replies[i]); err != nil {
			rep.mismatch("%v", err)
		}
	}
	rep.counts["replies_verified"] = int64(checked)
}

// addServeLayers reports the attackd per-layer metrics of a phase.
func addServeLayers(rep *report, ph *phaseResult, stages *stageAcc, before, after map[string]float64) {
	addAttackdStages(rep, stages, before, after)
	rep.layers["attackd.hit_latency_us"] = metric{ph.hitLatencyUS(), "us"}
	rep.layers["attackd.conn_wait_ms"] = metric{ph.connWaitP50(), "ms"}
	rep.layers["attackd.gen_lag_ms"] = metric{ph.lagP99(), "ms"}
	refused := 0
	for _, n := range ph.refused {
		refused += n
	}
	rep.layers["attackd.refused"] = metric{float64(refused), "count"}
	rep.notes["refused_by_status"] = ph.refused
	polls, jobs := 0, 0
	for i, rp := range ph.replies {
		if ph.reqs[i].kind == "job" {
			polls += rp.polls
			jobs++
		}
	}
	pj := 0.0
	if jobs > 0 {
		pj = float64(polls) / float64(jobs)
	}
	rep.layers["attackd.job_polls"] = metric{pj, "count"}
}

// measureCapacity runs the hot mix closed-loop on conns clients for the
// run's seconds and reports the request rate; it is how hotCapacityRPS
// was set.
func measureCapacity(ctx context.Context, s *server, mix *hotMix, o options, conns int, rep *report) (*report, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	n, failed := 0, 0
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := newRand(o.seed, uint64(100+w))
			for time.Now().Before(deadline) {
				_, err := s.do(ctx, mix.draw(rng), false)
				mu.Lock()
				n++
				if err != nil {
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	rep.extra["capacity_rps"] = metric{float64(n) / time.Since(start).Seconds(), "req/s"}
	rep.attempted, rep.failed = int64(n), int64(failed)
	return rep, nil
}
