package attackd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/matrix"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON[T any](t *testing.T, url string, body any) (int, T) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	// Drain to EOF: a chunked body ends only after the handler, and so
	// the observability middleware, has returned, so /metrics scraped
	// next already holds this request.
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, out
}

// paperCell is a paper-model /v1/analyze body.
func paperCell() map[string]any {
	return map[string]any{"c": 7, "delta": 7, "k": 1, "mu": 0.2, "d": 0.9, "nu": 0.1}
}

// paperAnalyzeReply decodes a paper-model /v1/analyze body: the typed
// params and analysis shadow the generic AnalyzeResponse fields.
type paperAnalyzeReply struct {
	AnalyzeResponse
	Params   paperParamsDTO   `json:"params"`
	Analysis paperAnalysisDTO `json:"analysis"`
}

// paperSweepCell decodes one paper-model sweep cell (or NDJSON line).
type paperSweepCell struct {
	SweepCellDTO
	Params   paperParamsDTO   `json:"params"`
	Analysis paperAnalysisDTO `json:"analysis"`
}

// paperSweepReply decodes a paper-model /v1/sweep body.
type paperSweepReply struct {
	SweepResponse
	Cells []paperSweepCell `json:"cells"`
}

func TestAnalyzeMatchesCore(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := paperCell()
	code, got := postJSON[paperAnalyzeReply](t, ts.URL+"/v1/analyze", req)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	p := core.Params{C: 7, Delta: 7, K: 1, Mu: 0.2, D: 0.9, Nu: 0.1}
	m, err := core.NewWithSolver(p, matrix.SolverConfig{Kind: "bicgstab"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.AnalyzeNamed(core.DistributionDelta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Analysis.ExpectedSafeTime != want.ExpectedSafeTime {
		t.Errorf("E(T_S) = %v over HTTP, %v direct", got.Analysis.ExpectedSafeTime, want.ExpectedSafeTime)
	}
	if got.Analysis.ExpectedPollutedTime != want.ExpectedPollutedTime {
		t.Errorf("E(T_P) = %v over HTTP, %v direct", got.Analysis.ExpectedPollutedTime, want.ExpectedPollutedTime)
	}
	if got.States != 288 || got.Solver != "bicgstab" || got.Cached {
		t.Errorf("metadata = %+v", got)
	}
	// Second identical request must come from the cache.
	code, again := postJSON[paperAnalyzeReply](t, ts.URL+"/v1/analyze", req)
	if code != http.StatusOK || !again.Cached {
		t.Errorf("repeat request: status=%d cached=%v, want 200/true", code, again.Cached)
	}
	if again.Analysis.ExpectedSafeTime != got.Analysis.ExpectedSafeTime {
		t.Error("cached analysis differs")
	}
}

func TestAnalyzeRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name, body := range map[string]any{
		"invalid params":   map[string]any{"c": 7, "delta": 1, "k": 1, "mu": 0.2, "d": 0.9, "nu": 0.1},
		"bad distribution": map[string]any{"c": 7, "delta": 7, "k": 1, "nu": 0.1, "distribution": "zeta"},
		"huge state space": map[string]any{"c": 500, "delta": 500, "k": 1, "nu": 0.1},
		// A float constant, so the test compiles where int is 32 bits.
		"overflow geometry": map[string]any{"c": 1, "delta": 5e9, "k": 1, "nu": 0.1},
		"huge sojourns":     map[string]any{"c": 7, "delta": 7, "k": 1, "mu": 0.2, "d": 0.9, "nu": 0.1, "sojourns": 2_000_000_000},
	} {
		code, resp := postJSON[errorResponse](t, ts.URL+"/v1/analyze", body)
		if code != http.StatusBadRequest || resp.Error == "" {
			t.Errorf("%s: status=%d error=%q, want 400 with message", name, code, resp.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := map[string]any{
		"c": "7", "delta": "7", "k": "1",
		"mu": "0.1,0.3", "d": "0.5:0.9:0.2", "nu": "0.05,0.5",
	}
	code, got := postJSON[paperSweepReply](t, ts.URL+"/v1/sweep", req)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(got.Cells) != 2*3*2 {
		t.Fatalf("cells = %d, want 12", len(got.Cells))
	}
	// protocol_1: the ν axis dedupes, so half the cells are shared.
	if got.Evaluated != 6 {
		t.Errorf("evaluated = %d, want 6", got.Evaluated)
	}
	// One cell must agree with the single-cell endpoint.
	cell := got.Cells[0]
	code, single := postJSON[paperAnalyzeReply](t, ts.URL+"/v1/analyze", map[string]any{
		"c": cell.Params.C, "delta": cell.Params.Delta, "k": cell.Params.K,
		"mu": cell.Params.Mu, "d": cell.Params.D, "nu": cell.Params.Nu,
	})
	if code != http.StatusOK {
		t.Fatalf("analyze status = %d", code)
	}
	if math.Abs(cell.Analysis.ExpectedSafeTime-single.Analysis.ExpectedSafeTime) > 1e-12 {
		t.Errorf("sweep cell E(T_S)=%v, analyze=%v", cell.Analysis.ExpectedSafeTime, single.Analysis.ExpectedSafeTime)
	}
	// Repeat: whole-grid cache hit.
	code, again := postJSON[SweepResponse](t, ts.URL+"/v1/sweep", req)
	if code != http.StatusOK || !again.Cached {
		t.Errorf("repeat sweep: status=%d cached=%v", code, again.Cached)
	}
	// Bad axis and oversized grids are rejected.
	for name, bad := range map[string]map[string]any{
		"bad axis":       {"c": "7", "delta": "7", "k": "x", "mu": "0.1", "d": "0.5", "nu": "0.1"},
		"no axis":        {"c": "7", "delta": "7", "mu": "0.1", "d": "0.5", "nu": "0.1"},
		"too large":      {"c": "7", "delta": "7", "k": "1:7", "mu": "0:1:0.01", "d": "0:0.99:0.01", "nu": "0.1"},
		"bomb range":     {"c": "1:4000000000", "delta": "7", "k": "1", "mu": "0.1", "d": "0.5", "nu": "0.1"},
		"nan axis":       {"c": "7", "delta": "7", "k": "1", "mu": "nan", "d": "0.5", "nu": "0.1"},
		"denormal step":  {"c": "7", "delta": "7", "k": "1", "mu": "0:1:1e-300", "d": "0.5", "nu": "0.1"},
		"huge geometry":  {"c": "1", "delta": "5000000000", "k": "1", "mu": "0.1", "d": "0.5", "nu": "0.1"},
		"huge sojourns2": {"c": "7", "delta": "7", "k": "1", "mu": "0.1", "d": "0.5", "nu": "0.1", "sojourns": 1 << 30},
	} {
		code, resp := postJSON[errorResponse](t, ts.URL+"/v1/sweep", bad)
		if code != http.StatusBadRequest || resp.Error == "" {
			t.Errorf("%s: status=%d error=%q, want 400 with message", name, code, resp.Error)
		}
	}
}

// TestPerRequestSolverOverride: a request may pick its own backend; the
// override is part of the cache identity, unknown kinds are client
// errors, and sweep responses surface iteration counts.
func TestPerRequestSolverOverride(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := paperCell()
	req["solver"] = "ilu"
	code, got := postJSON[paperAnalyzeReply](t, ts.URL+"/v1/analyze", req)
	if code != http.StatusOK || got.Solver != "ilu" {
		t.Fatalf("status=%d solver=%q, want 200/ilu", code, got.Solver)
	}
	// The dense backend must agree (the override actually routed).
	dreq := paperCell()
	dreq["solver"] = "dense"
	code, dense := postJSON[paperAnalyzeReply](t, ts.URL+"/v1/analyze", dreq)
	if code != http.StatusOK || dense.Solver != "dense" || dense.Cached {
		t.Fatalf("dense override: status=%d solver=%q cached=%v", code, dense.Solver, dense.Cached)
	}
	if math.Abs(got.Analysis.ExpectedSafeTime-dense.Analysis.ExpectedSafeTime) > 1e-9 {
		t.Errorf("ilu E(T_S)=%v, dense=%v", got.Analysis.ExpectedSafeTime, dense.Analysis.ExpectedSafeTime)
	}
	// Overridden and default requests must not share cache entries.
	code, def := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", paperCell())
	if code != http.StatusOK || def.Cached {
		t.Errorf("default solver after overrides: status=%d cached=%v, want a fresh evaluation", code, def.Cached)
	}
	// Unknown kinds are a 400 naming the valid ones.
	breq := paperCell()
	breq["solver"] = "cholesky"
	code, eresp := postJSON[errorResponse](t, ts.URL+"/v1/analyze", breq)
	if code != http.StatusBadRequest || !strings.Contains(eresp.Error, "ilu") {
		t.Errorf("bogus solver: status=%d error=%q, want 400 listing backends", code, eresp.Error)
	}
	sreq := map[string]any{"c": "7", "delta": "7", "k": "1", "mu": "0.2", "d": "0.5,0.9", "nu": "0.1", "solver": "ilu"}
	code, sgot := postJSON[SweepResponse](t, ts.URL+"/v1/sweep", sreq)
	if code != http.StatusOK || sgot.Solver != "ilu" {
		t.Fatalf("sweep override: status=%d solver=%q", code, sgot.Solver)
	}
	if sgot.Iterations <= 0 {
		t.Errorf("sweep iterations = %d, want > 0 on an iterative backend", sgot.Iterations)
	}
	sreq["solver"] = "cholesky"
	code, _ = postJSON[errorResponse](t, ts.URL+"/v1/sweep", sreq)
	if code != http.StatusBadRequest {
		t.Errorf("bogus sweep solver: status=%d, want 400", code)
	}
}

// TestSolverMetricsAndFallbacks: /metrics must expose cumulative solver
// iterations, and an auto backend hobbled by a one-iteration cap must
// surface its sticky dense fallback under reason="iteration_cap".
func TestSolverMetricsAndFallbacks(t *testing.T) {
	ts := newTestServer(t, Config{Solver: matrix.SolverConfig{Kind: "auto", MaxIter: 1}})
	code, got := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", paperCell())
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if got.Solver != "auto" {
		t.Errorf("solver = %q, want auto", got.Solver)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	var fallbacks int64
	for _, line := range strings.Split(text, "\n") {
		fmt.Sscanf(line, `attackd_solver_fallbacks_total{reason="iteration_cap"} %d`, &fallbacks)
	}
	if fallbacks == 0 {
		t.Errorf("iteration_cap fallbacks = 0, want > 0 in:\n%s", text)
	}
	if !strings.Contains(text, "attackd_solver_iterations_total") {
		t.Errorf("metrics missing attackd_solver_iterations_total:\n%s", text)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
	postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", paperCell())
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`attackd_requests_total{endpoint="/v1/analyze",code="200"} 1`,
		"attackd_cache_misses_total 1",
		"attackd_evaluations_total 1",
		"attackd_inflight_evaluations 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestConcurrentAnalyzeSingleflight is the attackd concurrency
// contract under -race: hammer /v1/analyze with identical and distinct
// parameters from many goroutines and assert that singleflight +
// cache admit exactly one evaluation per distinct parameter set, with
// every shared request accounted as a cache hit or a piggyback.
func TestConcurrentAnalyzeSingleflight(t *testing.T) {
	ts := newTestServer(t, Config{})
	distinct := []map[string]any{
		{"c": 7, "delta": 7, "k": 1, "mu": 0.1, "d": 0.5, "nu": 0.1},
		{"c": 7, "delta": 7, "k": 2, "mu": 0.2, "d": 0.8, "nu": 0.1},
		{"c": 7, "delta": 7, "k": 7, "mu": 0.3, "d": 0.9, "nu": 0.2},
		{"c": 9, "delta": 9, "k": 1, "mu": 0.2, "d": 0.8, "nu": 0.1},
	}
	const perKey = 16
	var wg sync.WaitGroup
	errs := make(chan error, len(distinct)*perKey)
	for ki := range distinct {
		for j := 0; j < perKey; j++ {
			wg.Add(1)
			go func(ki int) {
				defer wg.Done()
				raw, _ := json.Marshal(distinct[ki])
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				var out AnalyzeResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if out.States == 0 {
					errs <- fmt.Errorf("empty response body")
					return
				}
				errs <- nil
			}(ki)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The invariant: however requests interleaved, each distinct
	// parameter set was evaluated exactly once — the rest were cache
	// hits or singleflight followers.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if want := fmt.Sprintf("attackd_evaluations_total %d", len(distinct)); !strings.Contains(text, want) {
		t.Errorf("metrics missing %q (every duplicate request must dedup):\n%s", want, text)
	}
	var hits, sharedCount, misses int64
	for _, line := range strings.Split(text, "\n") {
		fmt.Sscanf(line, "attackd_cache_hits_total %d", &hits)
		fmt.Sscanf(line, "attackd_singleflight_shared_total %d", &sharedCount)
		fmt.Sscanf(line, "attackd_cache_misses_total %d", &misses)
	}
	total := int64(len(distinct) * perKey)
	if hits+sharedCount != total-int64(len(distinct)) {
		t.Errorf("hits (%d) + shared (%d) = %d, want %d", hits, sharedCount, hits+sharedCount, total-int64(len(distinct)))
	}
	// Only flight leaders — the requests that actually evaluated — count
	// as misses; followers are accounted under shared, not misses, so the
	// hit-rate metric reflects real evaluation work.
	if misses != int64(len(distinct)) {
		t.Errorf("misses = %d, want %d (one leader per distinct parameter set)", misses, len(distinct))
	}
}

// TestConcurrentSingleflightRace: the same hammering, mixing analyze
// and sweep traffic, for the race detector's benefit.
func TestConcurrentMixedTraffic(t *testing.T) {
	ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(paperCell())
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			sraw, _ := json.Marshal(map[string]any{"c": "7", "delta": "7", "k": "1", "mu": "0.2", "d": "0.5,0.9", "nu": "0.1"})
			resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(sraw))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err = http.Get(ts.URL + "/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
}

func TestLRUBoundsAndEviction(t *testing.T) {
	c := newLRU(2, 1000)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a must be cached")
	}
	c.Put("c", 3, 1) // evicts b (a was refreshed)
	if _, ok := c.Get("b"); ok {
		t.Error("b must have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a must survive (recently used)")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	disabled := newLRU(-1, 1000)
	disabled.Put("x", 1, 1)
	if _, ok := disabled.Get("x"); ok {
		t.Error("negative capacity must disable the cache")
	}
}

// TestLRUWeightBound: the cache must bound retained result size, not
// just entry count — heavy entries evict earlier ones, and an entry
// heavier than the whole budget is never stored.
func TestLRUWeightBound(t *testing.T) {
	c := newLRU(1000, 100)
	c.Put("a", 1, 60)
	c.Put("b", 2, 60) // 120 > 100: a must go
	if _, ok := c.Get("a"); ok {
		t.Error("a must have been evicted by weight")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b must be cached")
	}
	c.Put("huge", 3, 1000) // over the whole budget: not cached
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget entry must not be cached")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b must survive the rejected over-budget Put")
	}
	// Replacing an entry adjusts the total weight instead of leaking it.
	c.Put("b", 4, 10)
	c.Put("c", 5, 80)
	if _, ok := c.Get("b"); !ok {
		t.Error("b (reweighted to 10) must coexist with c (80)")
	}
}

// TestFlightGroupSurvivesPanic: a panicking evaluation must surface as
// an error to leader and followers alike and must not wedge the key.
func TestFlightGroupSurvivesPanic(t *testing.T) {
	g := newFlightGroup()
	_, err, _ := g.Do("k", func() (any, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking fn: err = %v, want panic-converted error", err)
	}
	// The key must be reusable immediately.
	v, err, shared := g.Do("k", func() (any, error) { return 42, nil })
	if err != nil || shared || v != 42 {
		t.Errorf("after panic: v=%v err=%v shared=%v, want 42/nil/false", v, err, shared)
	}
}

// TestCanonicalKeysNormalize: the cell and plan keys of the one
// analytic path normalize value-equal floats, separate every input
// that changes the result, and never collide across families.
func TestCanonicalKeysNormalize(t *testing.T) {
	paper := core.Family{}
	p := core.Params{C: 7, Delta: 7, K: 1, Mu: 0.5, D: 0.9, Nu: 0.1}
	sc := matrix.SolverConfig{Kind: "bicgstab"}
	withMu := func(mu float64) core.Params {
		q := p
		q.Mu = mu
		return q
	}
	cellKey := modelCellKey(paper, p, "delta", 1, sc)
	planKey := func(cell core.Params, dist string, sojourns int, sc matrix.SolverConfig) string {
		return modelPlanKey(paper, []chainmodel.Cell{cell, withMu(0.7)}, dist, sojourns, sc)
	}
	plan := planKey(p, "delta", 1, sc)
	if modelCellKey(paper, withMu(0.25*2), "delta", 1, sc) != cellKey {
		t.Error("value-equal params must share a cell key")
	}
	if planKey(withMu(0.25*2), "delta", 1, sc) != plan {
		t.Error("value-equal params must share a plan key")
	}
	dense, tol, maxIter := sc, sc, sc
	dense.Kind = "dense"
	tol.Tol = 1e-10
	maxIter.MaxIter = 777
	for name, v := range map[string]struct {
		cell     core.Params
		dist     string
		sojourns int
		sc       matrix.SolverConfig
	}{
		"mu":           {withMu(0.3), "delta", 1, sc},
		"distribution": {p, "beta", 1, sc},
		"sojourns":     {p, "delta", 2, sc},
		"solver kind":  {p, "delta", 1, dense},
		"tol":          {p, "delta", 1, tol},
		"max_iter":     {p, "delta", 1, maxIter},
	} {
		if modelCellKey(paper, v.cell, v.dist, v.sojourns, v.sc) == cellKey {
			t.Errorf("%s must change the cell key", name)
		}
		if planKey(v.cell, v.dist, v.sojourns, v.sc) == plan {
			t.Errorf("%s must change the plan key", name)
		}
	}
	// The model name leads every key, so families never collide.
	apt := aptchain.Family{}
	aptCell := aptchain.Params{N: 6, Theta: 0.5, Phi: 0.4, Rho: 0.3, Detect: 0.7}
	for _, keys := range [][2]string{
		{cellKey, modelCellKey(apt, aptCell, "foothold", 1, sc)},
		{plan, modelPlanKey(apt, []chainmodel.Cell{aptCell}, "foothold", 1, sc)},
	} {
		if !strings.Contains(keys[0], "|m="+chainmodel.DefaultFamily+"|") ||
			!strings.Contains(keys[1], "|m="+aptchain.FamilyName+"|") {
			t.Errorf("keys %q and %q must lead with their model names", keys[0], keys[1])
		}
	}
}
