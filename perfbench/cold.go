package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"
)

// The serve-cold workload: a closed loop of nproc clients, each replaying
// its own seeded sequence of unique requests (a fixed count per run
// length) against a fresh attackd, so
// the result cache only inserts and evicts. The traffic is analyze at
// C=∆ 30–60, warm-lane sweeps of 8–16 cells at C=∆ 30–40 (buffered,
// NDJSON and async jobs polled to completion) and one C=∆=75 cell on the
// auto backend, submitted as a job. Each client walks a fixed cycle of
// request classes at fixed µ and d; the seed draws ν, which makes every
// request unique while keeping its work the same from seed to seed.

// coldClass is one slot of a client's request cycle.
type coldClass struct {
	kind  string // analyze, sweep, stream or job
	sizes []int  // C=∆ per visit of the slot, in rotation
	// d and nu are the sweep axes' value counts (cells = d·nu); d is
	// 1 or 2.
	d, nu int
}

var coldCycle = []coldClass{
	{kind: "analyze", sizes: []int{40}},
	{kind: "stream", sizes: []int{30}, d: 1, nu: 8},
	{kind: "analyze", sizes: []int{40}},
	{kind: "analyze", sizes: []int{30, 50, 60, 45}},
	{kind: "analyze", sizes: []int{40}},
	{kind: "sweep", sizes: []int{35}, d: 1, nu: 12},
	{kind: "analyze", sizes: []int{40}},
	{kind: "stream", sizes: []int{30}, d: 1, nu: 8},
	{kind: "job", sizes: []int{30}, d: 1, nu: 16},
}

// coldRate is the requests per second one client completes on a 2-vCPU
// Xeon @ 2.10GHz; a run sends coldRequests per client.
const coldRate = 0.9

// coldRequests is the fixed number of requests each client sends in a
// run of seconds, so every run of the same length does the same work.
func coldRequests(seconds float64) int {
	return max(len(coldCycle), int(math.Round(seconds*coldRate)))
}

// coldReference is the C=∆=75 auto cell; it is the c75_auto cell of
// solve-offline, so its reply is checked against the same reference.
const coldReference = `{"c":"75","delta":"75","k":"1","mu":"0.2","d":"0.9","nu":"0.1","sojourns":2,"solver":"auto"}`

// coldGen produces one client's request sequence.
type coldGen struct {
	rng    *rand.Rand
	client int
	slot   int
	visit  map[int]int
	first  string
	used   map[string]bool
}

func newColdGen(seed int64, client int) *coldGen {
	g := &coldGen{rng: newRand(seed, uint64(0xc01d+client)), client: client, slot: 4 * client, visit: map[int]int{}, used: map[string]bool{}}
	if client == 1 {
		g.first = coldReference
	}
	return g
}

// param draws a value in [lo, hi) on a 1e-4 grid, in 1e-4 units. Each
// client draws from its own residue class of the grid, so two clients
// never draw the same value.
func (g *coldGen) param(lo, hi float64) int {
	n := int(math.Round((hi - lo) * 1e4 / 2))
	return int(math.Round(lo*1e4)) + 2*g.rng.IntN(n) + g.client
}

// units renders a value in 1e-4 units.
func units(u int) string { return fmt.Sprintf("%.4f", float64(u)/1e4) }

func (g *coldGen) next() request {
	if g.first != "" {
		body := g.first
		g.first = ""
		return request{kind: "job", body: body}
	}
	for {
		cls := coldCycle[g.slot%len(coldCycle)]
		size := cls.sizes[g.visit[g.slot%len(coldCycle)]%len(cls.sizes)]
		var body string
		if cls.kind == "analyze" {
			// Protocol k=1 never fires Rule 1, so ν does not enter the
			// chain: the seeded ν makes the request unique without
			// changing its work.
			body = fmt.Sprintf(`{"c":%d,"delta":%d,"k":1,"mu":0.2,"d":0.8,"nu":%s,"sojourns":2}`,
				size, size, units(g.param(0.05, 0.45)))
		} else {
			nu0 := g.param(0.05, 0.1)
			nus := units(nu0)
			for i := 1; i < cls.nu; i++ {
				nus += "," + units(nu0+500*i)
			}
			ds := "0.8"
			if cls.d > 1 {
				ds = "0.6,0.8"
			}
			body = fmt.Sprintf(`{"c":"%d","delta":"%d","k":"2","mu":"0.2","d":"%s","nu":"%s","sojourns":2}`,
				size, size, ds, nus)
		}
		if g.used[body] {
			continue
		}
		g.used[body] = true
		g.visit[g.slot%len(coldCycle)]++
		g.slot++
		return request{kind: cls.kind, body: body}
	}
}

// coldDone is one completed closed-loop request.
type coldDone struct {
	req     request
	rp      reply
	latency time.Duration
	err     error
}

// coldLoop runs nproc closed-loop clients, each sending perClient
// requests back to back.
func coldLoop(ctx context.Context, s *server, tr *tracer, seed int64, perClient, clients int) ([]coldDone, time.Duration) {
	var mu sync.Mutex
	var done []coldDone
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newColdGen(seed, c)
			for i := 0; i < perClient; i++ {
				req := g.next()
				req.timings = tr != nil
				sp := tr.begin("attackd.request", nil)
				t0 := time.Now()
				rp, err := s.do(ctx, req, true)
				lat := time.Since(t0)
				sp.end()
				mu.Lock()
				done = append(done, coldDone{req: req, rp: rp, latency: lat, err: err})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return done, time.Since(start)
}

func runServeCold(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	clients := runtime.NumCPU()
	warmReqs := []request{
		{kind: "analyze", body: `{"c":25,"delta":25,"k":1,"mu":0.2,"d":0.8,"nu":0.1}`},
		{kind: "sweep", body: `{"c":"20","delta":"20","k":"2","mu":"0.2","d":"0.5,0.7","nu":"0.1,0.2,0.3,0.4"}`},
	}
	s, setup, _, err := setupServer(ctx, warmReqs, clients)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	rep.endToEnd["setup_s"] = metric{setup, "s"}

	perClient := coldRequests(o.seconds)
	settle()
	mem0 := readMem()
	peak := startHeapPeak()
	before, err := s.scrape(ctx)
	if err != nil {
		peak.finish()
		return nil, err
	}
	done, wall := coldLoop(ctx, s, nil, o.seed, perClient, clients)
	heap := peak.finish()
	mem1 := readMem()
	after, err := s.scrape(ctx)
	if err != nil {
		return nil, err
	}

	var lat, first []float64
	cells := 0
	byKind := map[string]int{}
	for _, d := range done {
		rep.attempted++
		byKind[kindOf(d.req)]++
		if d.err != nil {
			rep.failed++
			rep.errors = append(rep.errors, fmt.Sprintf("%s %s: %v", d.req.kind, d.req.body, d.err))
			continue
		}
		lat = append(lat, durMS(d.latency))
		cells += d.rp.cells
		if d.req.kind == "stream" {
			first = append(first, durMS(d.rp.firstCell))
		}
	}
	ls := summarize(lat)
	rep.endToEnd["latency_p50_ms"] = metric{ls.P50, "ms"}
	rep.extra["latency_tail_ms"] = metric{ls.Tail, "ms"}
	rep.extra["first_cell_ms"] = metric{median(first), "ms"}
	rep.endToEnd["cells_per_s"] = metric{float64(cells) / wall.Seconds(), "cells/s"}
	rep.endToEnd["heap_peak_mb"] = metric{heap, "MB"}
	rep.notes["latency"] = ls
	rep.notes["wall_s"] = wall.Seconds()
	rep.notes["requests_by_kind"] = byKind
	rep.notes["runtime_alloc_mb"] = float64(mem1.allocBytes-mem0.allocBytes) / (1 << 20)
	rep.counts["requests.attempted"] = rep.attempted
	rep.counts["requests.succeeded"] = rep.attempted - rep.failed
	rep.counts["requests.failed"] = rep.failed
	rep.counts["cells"] = int64(cells)
	rep.counts["cache_hits"] = int64(delta(before, after, "attackd_cache_hits_total{}"))

	checkCold(ctx, rep, s, done, o.seed)

	if o.trace {
		// A fresh server, so the traced loop's requests miss the cache
		// exactly as the untraced ones did.
		ts, err := startServer(runtime.NumCPU(), clients)
		if err != nil {
			return nil, err
		}
		defer ts.stop()
		if _, err := warm(ctx, ts, warmReqs, clients); err != nil {
			return nil, err
		}
		tr := newTracer(true)
		b2, err := ts.scrape(ctx)
		if err != nil {
			return nil, err
		}
		mem2 := readMem()
		tdone, _ := coldLoop(ctx, ts, tr, o.seed, perClient, clients)
		mem3 := readMem()
		a2, err := ts.scrape(ctx)
		if err != nil {
			return nil, err
		}
		ph := &phaseResult{refused: map[int]int{}}
		stages := &stageAcc{}
		var tlat []float64
		for _, d := range tdone {
			ph.reqs = append(ph.reqs, d.req)
			ph.replies = append(ph.replies, d.rp)
			ph.samples = append(ph.samples, sample{Latency: d.latency, Err: d.err})
			if d.err == nil {
				stages.add(d.rp.stages)
				tlat = append(tlat, durMS(d.latency))
			} else if d.rp.status != 0 {
				ph.refused[d.rp.status]++
			}
		}
		rep.layers["trace.overhead_pct"] = metric{100 * (median(tlat)/ls.P50 - 1), "%"}
		addServeLayers(rep, ph, stages, b2, a2)
		addRuntime(rep, mem2, mem3)
		var sample []request
		for _, d := range tdone {
			if d.req.body != coldReference {
				sample = append(sample, d.req)
			}
		}
		if err := decomposeSample(ctx, rep, tr, sample, o.seed, 2); err != nil {
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

// coldVerify is how many serve-cold replies are re-derived through the
// library; coldVerifyMaxC bounds their size so the check stays cheap.
const (
	coldVerify     = 3
	coldVerifyMaxC = 40
)

// checkCold checks the C=∆=75 job against the solve-offline reference
// and a seeded sample of small replies against the library.
func checkCold(ctx context.Context, rep *report, s *server, done []coldDone, seed int64) {
	refs, err := loadReferences()
	if err != nil {
		rep.mismatch("%v", err)
		return
	}
	var cands []coldDone
	for _, d := range done {
		if d.err != nil {
			continue
		}
		if d.req.body == coldReference {
			if err := verifyC75(d.rp.body, refs); err != nil {
				rep.mismatch("%v", err)
			}
			continue
		}
		var head struct {
			C any `json:"c"`
		}
		if json.Unmarshal([]byte(d.req.body), &head) == nil && cellSize(head.C) <= coldVerifyMaxC {
			cands = append(cands, d)
		}
	}
	rng := newRand(seed, 0x7e52)
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	checked := 0
	for _, d := range cands[:min(coldVerify, len(cands))] {
		checked++
		if err := verifyReply(ctx, s, d.req, d.rp); err != nil {
			rep.mismatch("%v", err)
		}
	}
	rep.counts["replies_verified"] = int64(checked)
}
