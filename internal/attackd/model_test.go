package attackd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/matrix"
)

func aptCellBody() map[string]any {
	return map[string]any{
		"model": "apt-compromise",
		"n":     6, "theta": 0.5, "phi": 0.4, "rho": 0.3, "detect": 0.7,
	}
}

// modelAnalyzeReply decodes a /v1/analyze body of a family answering
// in the model-free vocabulary: the typed analysis shadows the generic
// AnalyzeResponse field.
type modelAnalyzeReply struct {
	AnalyzeResponse
	Analysis ModelAnalysisDTO `json:"analysis"`
}

// modelSweepReply decodes a /v1/sweep body of such a family.
type modelSweepReply struct {
	SweepResponse
	Cells []struct {
		SweepCellDTO
		Analysis ModelAnalysisDTO `json:"analysis"`
	} `json:"cells"`
}

// TestModelAnalyzeAPT: a request naming the second family routes to the
// generic path and matches a direct aptchain analysis bit for bit.
func TestModelAnalyzeAPT(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := aptCellBody()
	body["sojourns"] = 2
	code, got := postJSON[modelAnalyzeReply](t, ts.URL+"/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if got.Model != aptchain.FamilyName || got.Distribution != aptchain.DistFoothold ||
		got.States != 28 || got.Solver != "bicgstab" || got.Cached {
		t.Fatalf("metadata = %+v", got)
	}
	inst, err := aptchain.New(aptchain.Params{N: 6, Theta: 0.5, Phi: 0.4, Rho: 0.3, Detect: 0.7},
		matrix.SolverConfig{Kind: "bicgstab"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chainmodel.Analyze(inst, aptchain.DistFoothold, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Analysis.TimeInA != want.TimeInA || got.Analysis.TimeInB != want.TimeInB ||
		got.Analysis.HitProbability != want.HitProbability {
		t.Errorf("analysis over HTTP %+v, direct %+v", got.Analysis, want)
	}
	if got.Analysis.Absorption[aptchain.ClassNameEvicted] != want.Absorption[aptchain.ClassNameEvicted] {
		t.Errorf("absorption over HTTP %v, direct %v", got.Analysis.Absorption, want.Absorption)
	}
	// Second identical request must come from the cache.
	code, again := postJSON[modelAnalyzeReply](t, ts.URL+"/v1/analyze", body)
	if code != http.StatusOK || !again.Cached {
		t.Errorf("repeat request: status=%d cached=%v, want 200/true", code, again.Cached)
	}
	// The blitz distribution is a distinct cache identity.
	body["distribution"] = "blitz"
	code, blitz := postJSON[modelAnalyzeReply](t, ts.URL+"/v1/analyze", body)
	if code != http.StatusOK || blitz.Cached || blitz.Distribution != aptchain.DistBlitz {
		t.Errorf("blitz: status=%d cached=%v dist=%q", code, blitz.Cached, blitz.Distribution)
	}
}

// TestModelAnalyzeRejects: the generic path enforces the same request
// limits as the default one, and unknown models are 400s listing the
// registry.
func TestModelAnalyzeRejects(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, resp := postJSON[errorResponse](t, ts.URL+"/v1/analyze", map[string]any{
		"model": "zeta", "n": 6, "theta": 0.5, "phi": 0.4, "detect": 0.7,
	})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown model: status = %d, want 400", code)
	}
	for _, name := range chainmodel.Names() {
		if !strings.Contains(resp.Error, name) {
			t.Errorf("unknown-model error %q does not list %q", resp.Error, name)
		}
	}
	for name, body := range map[string]map[string]any{
		"invalid params":   {"model": "apt-compromise", "n": 1, "theta": 0.5, "phi": 0.4, "detect": 0.7},
		"bad distribution": {"model": "apt-compromise", "n": 6, "theta": 0.5, "phi": 0.4, "detect": 0.7, "distribution": "zeta"},
		"huge state space": {"model": "apt-compromise", "n": 100_000, "theta": 0.5, "phi": 0.4, "detect": 0.7},
		"huge sojourns":    {"model": "apt-compromise", "n": 6, "theta": 0.5, "phi": 0.4, "detect": 0.7, "sojourns": 1 << 30},
		"bad solver":       {"model": "apt-compromise", "n": 6, "theta": 0.5, "phi": 0.4, "detect": 0.7, "solver": "cholesky"},
	} {
		code, resp := postJSON[errorResponse](t, ts.URL+"/v1/analyze", body)
		if code != http.StatusBadRequest || resp.Error == "" {
			t.Errorf("%s: status=%d error=%q, want 400 with message", name, code, resp.Error)
		}
	}
}

// TestModelSweepAPT: a grid of the second family through /v1/sweep, its
// cache identity, and its per-model limits.
func TestModelSweepAPT(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := map[string]any{
		"model": "apt-compromise",
		"n":     "6", "theta": "0.5", "phi": "0.4", "rho": "0,0.2,0.4", "detect": "0.6,0.8",
	}
	code, got := postJSON[modelSweepReply](t, ts.URL+"/v1/sweep", req)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if got.Model != aptchain.FamilyName || len(got.Cells) != 6 || got.Groups != 1 || got.Evaluated != 6 {
		t.Fatalf("metadata: model=%q cells=%d groups=%d evaluated=%d", got.Model, len(got.Cells), got.Groups, got.Evaluated)
	}
	if got.Iterations <= 0 {
		t.Errorf("iterations = %d, want > 0 on the iterative default backend", got.Iterations)
	}
	// The grid's first cell heads a warm-start lane (cold solve), so it
	// agrees with the single-cell endpoint to solver tolerance.
	var params aptchain.Params
	raw, _ := json.Marshal(got.Cells[0].Params)
	var f struct {
		N      int     `json:"n"`
		Theta  float64 `json:"theta"`
		Phi    float64 `json:"phi"`
		Rho    float64 `json:"rho"`
		Detect float64 `json:"detect"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	params = aptchain.Params{N: f.N, Theta: f.Theta, Phi: f.Phi, Rho: f.Rho, Detect: f.Detect}
	code, single := postJSON[modelAnalyzeReply](t, ts.URL+"/v1/analyze", map[string]any{
		"model": "apt-compromise",
		"n":     params.N, "theta": params.Theta, "phi": params.Phi, "rho": params.Rho, "detect": params.Detect,
	})
	if code != http.StatusOK {
		t.Fatalf("analyze status = %d", code)
	}
	if math.Abs(got.Cells[0].Analysis.TimeInA-single.Analysis.TimeInA) > 1e-9 {
		t.Errorf("sweep cell 0 E(T_A)=%v, analyze=%v", got.Cells[0].Analysis.TimeInA, single.Analysis.TimeInA)
	}
	// Repeat: whole-grid cache hit.
	code, again := postJSON[modelSweepReply](t, ts.URL+"/v1/sweep", req)
	if code != http.StatusOK || !again.Cached {
		t.Errorf("repeat sweep: status=%d cached=%v", code, again.Cached)
	}
	// Bad requests are rejected before evaluation.
	for name, bad := range map[string]map[string]any{
		"unknown model": {"model": "zeta", "n": "6", "theta": "0.5", "phi": "0.4", "detect": "0.6"},
		"missing axis":  {"model": "apt-compromise", "n": "6", "theta": "0.5", "detect": "0.6"},
		"bad axis":      {"model": "apt-compromise", "n": "x", "theta": "0.5", "phi": "0.4", "detect": "0.6"},
		"bad cell":      {"model": "apt-compromise", "n": "1", "theta": "0.5", "phi": "0.4", "detect": "0.6"},
		"huge geometry": {"model": "apt-compromise", "n": "100000", "theta": "0.5", "phi": "0.4", "detect": "0.6"},
		"too large":     {"model": "apt-compromise", "n": "6", "theta": "0:1:0.01", "phi": "0.01:1:0.01", "detect": "0.2,0.4,0.6", "rho": "0,0.5"},
		"bad solver":    {"model": "apt-compromise", "n": "6", "theta": "0.5", "phi": "0.4", "detect": "0.6", "solver": "cholesky"},
	} {
		code, resp := postJSON[errorResponse](t, ts.URL+"/v1/sweep", bad)
		if code != http.StatusBadRequest || resp.Error == "" {
			t.Errorf("%s: status=%d error=%q, want 400 with message", name, code, resp.Error)
		}
	}
}

// TestModelCacheKeysDisjoint: the two families' keys can never collide,
// and per-model evaluation counters account each exactly once.
func TestModelCacheKeysDisjoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, _ := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", paperCell())
	if code != http.StatusOK {
		t.Fatalf("paper analyze status = %d", code)
	}
	code, apt := postJSON[modelAnalyzeReply](t, ts.URL+"/v1/analyze", aptCellBody())
	if code != http.StatusOK || apt.Cached {
		t.Fatalf("apt analyze: status=%d cached=%v, want a fresh evaluation", code, apt.Cached)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`attackd_model_evaluations_total{model="apt-compromise"} 1`,
		`attackd_model_evaluations_total{model="targeted-attack"} 1`,
		"attackd_evaluations_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestModelConcurrentMixedFamilies: hammer both families plus unknown
// models concurrently — the model routing, registry lookups, per-model
// metrics and caches must be race-free, and each family's distinct cell
// must evaluate exactly once.
func TestModelConcurrentMixedFamilies(t *testing.T) {
	ts := newTestServer(t, Config{})
	post := func(body any) (int, []byte, error) {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	const per = 12
	var wg sync.WaitGroup
	errs := make(chan error, 3*per)
	for j := 0; j < per; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := post(paperCell())
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("paper cell: status %d: %s", code, body)
			}
			errs <- err
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := post(aptCellBody())
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("apt cell: status %d: %s", code, body)
			}
			errs <- err
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, err := post(map[string]any{"model": "zeta"})
			if err == nil && code != http.StatusBadRequest {
				err = fmt.Errorf("unknown model: status %d, want 400", code)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`attackd_model_evaluations_total{model="apt-compromise"} 1`,
		`attackd_model_evaluations_total{model="targeted-attack"} 1`,
		`attackd_requests_total{endpoint="/v1/analyze",code="400"} ` + fmt.Sprint(per),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}
