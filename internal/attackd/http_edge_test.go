package attackd

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"targetedattacks/internal/chainmodel"
)

// TestOversizedBody413: a body past the 1 MiB cap is the client's
// error in the 413 sense, on every POST endpoint.
func TestOversizedBody413(t *testing.T) {
	ts := newTestServer(t, Config{})
	huge := []byte(`{"pad":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`)
	for _, endpoint := range []string{"/v1/analyze", "/v1/sweep", "/v1/simsweep", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", endpoint, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status=%d, want 413", endpoint, resp.StatusCode)
		}
	}
	// A body inside the cap but invalid JSON stays a plain 400.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status=%d, want 400", resp.StatusCode)
	}
}

// TestMethodNotAllowed: every endpoint rejects wrong methods with 405
// and the RFC-required Allow header — including the read-only GET
// endpoints, which used to accept POST.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		endpoint, method, allow string
	}{
		{"/v1/analyze", http.MethodGet, "POST"},
		{"/v1/sweep", http.MethodDelete, "POST"},
		{"/v1/simsweep", http.MethodGet, "POST"},
		{"/healthz", http.MethodPost, "GET"},
		{"/metrics", http.MethodPost, "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.endpoint, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status=%d, want 405", tc.method, tc.endpoint, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow=%q, want %q", tc.method, tc.endpoint, got, tc.allow)
		}
	}
}

// TestUnknownModel400: an unregistered family name is a client error
// listing the registry, on both cell and grid endpoints.
func TestUnknownModel400(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, endpoint := range []string{"/v1/analyze", "/v1/sweep"} {
		code, msg := postJSON[errorResponse](t, ts.URL+endpoint, map[string]any{"model": "no-such-family"})
		if code != http.StatusBadRequest {
			t.Errorf("%s: status=%d, want 400", endpoint, code)
		}
		if !strings.Contains(msg.Error, "no-such-family") || !strings.Contains(msg.Error, "targeted-attack") {
			t.Errorf("%s: error %q must name the bad model and list the registry", endpoint, msg.Error)
		}
	}
}

// TestStateCountInt64: oversized state spaces are refused before
// anything is built, for both families, and the server stays healthy.
// C = ∆ = 1600 and n = 60000 are the 32-bit regression cells: their
// counts (≈ 2.05e9 and 1.8e9) used to wrap negative there and slide
// under the state limit. The counts themselves are pinned per family in
// chainmodel's TestFamilyStateCount.
//
// The C = ∆ = 60 cell (115,351 states) passes the state limit but is
// far above matrix.MaxDenseOrder. Asking for the dense backend, or for
// auto with a one-iteration budget that forces its dense fallback, used
// to crash attackd with an out-of-memory fatal error as it tried to
// densify a 99.6 GB I − T; both are now refused with 422.
func TestStateCountInt64(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, body := range []map[string]any{
		{"c": 1600, "delta": 1600, "k": 1, "mu": 0.2, "d": 0.9, "nu": 0.1},
		{"c": 1700, "delta": 1700, "k": 1, "mu": 0.2, "d": 0.9, "nu": 0.1},
		{"model": "apt-compromise", "n": 60000, "theta": 0.5, "phi": 0.4, "detect": 0.7},
	} {
		code, msg := postJSON[errorResponse](t, ts.URL+"/v1/analyze", body)
		if code != http.StatusBadRequest || !strings.Contains(msg.Error, "limit") {
			t.Errorf("%v: status=%d err=%q, want 400 naming the limit", body, code, msg.Error)
		}
	}
	for _, body := range []map[string]any{
		{"c": 60, "delta": 60, "k": 1, "mu": 0.2, "d": 0.9, "nu": 0.1, "solver": "dense"},
		{"c": 60, "delta": 60, "k": 1, "mu": 0.2, "d": 0.9, "nu": 0.1, "solver": "auto", "max_iter": 1},
	} {
		code, msg := postJSON[errorResponse](t, ts.URL+"/v1/analyze", body)
		if code != http.StatusUnprocessableEntity || !strings.Contains(msg.Error, "too large") {
			t.Errorf("%v: status=%d err=%q, want 422 naming the dense bound", body, code, msg.Error)
		}
	}
	if code, _ := getJSON[map[string]string](t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz after refused cells: status=%d", code)
	}
}

// TestHugeGridRejected: an axis product past chainmodel.MaxGridCells
// is refused before its cell list is allocated, on the sweep and job
// endpoints, and the server stays healthy. The 10^8-cell APT body used
// to crash attackd with an out-of-memory fatal error under a 3 GB
// address-space cap; the ~10^6-cell bodies, enumerated in full, cost
// some 64 MB each before the MaxCells check could run. The server
// refuses a MaxCells above the same bound.
func TestHugeGridRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	bodies := []string{
		`{"model":"apt-compromise","n":"8","theta":"0.0001:1:0.0001","phi":"0.0001:1:0.0001","detect":"0.1","rho":"0"}`,
		`{"model":"apt-compromise","n":"8","theta":"0.001:1:0.001","phi":"0.001:1:0.001","detect":"0.1","rho":"0"}`,
		`{"c":"7","delta":"7","k":"1","mu":"0:1:0.001","d":"0:0.999:0.001","nu":"0.1"}`,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies {
		for _, endpoint := range []string{"/v1/sweep", "/v1/jobs"} {
			resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "cell limit") {
				t.Errorf("%s %s: status=%d body=%s, want 400 naming the grid limit", endpoint, body, resp.StatusCode, msg)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("refusing %d huge grids allocated %d bytes, want < 16 MB", 2*len(bodies), alloc)
	}
	if code, _ := getJSON[map[string]string](t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz after the refused grids: status=%d", code)
	}
	if _, err := New(Config{MaxCells: chainmodel.MaxGridCells + 1}); err == nil {
		t.Error("New accepted a MaxCells above chainmodel.MaxGridCells")
	}
}

// TestRequestOverrideValidation: tol/max_iter/workers overrides outside
// their ranges are client errors.
func TestRequestOverrideValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name, field string
		value       any
	}{
		{"tol too large", "tol", 0.9},
		{"tol below round-off", "tol", 1e-20},
		{"negative max_iter", "max_iter", -3},
		{"max_iter too large", "max_iter", maxRequestIter + 1},
		{"negative workers", "workers", -2},
		{"workers too large", "workers", maxRequestWorkers + 1},
		{"removed gs backend", "solver", "gs"},
	}
	for _, tc := range cases {
		req := paperCell()
		req[tc.field] = tc.value
		code, msg := postJSON[errorResponse](t, ts.URL+"/v1/analyze", req)
		if code != http.StatusBadRequest || !strings.Contains(msg.Error, tc.field) {
			t.Errorf("%s: status=%d err=%q, want 400 naming %q", tc.name, code, msg.Error, tc.field)
		}
	}
	// The same validation guards the sweep endpoint.
	code, msg := postJSON[errorResponse](t, ts.URL+"/v1/sweep", map[string]any{
		"c": "7", "delta": "7", "k": "1", "mu": "0.2", "d": "0.9", "workers": 100000,
	})
	if code != http.StatusBadRequest || !strings.Contains(msg.Error, "workers") {
		t.Errorf("sweep workers: status=%d err=%q", code, msg.Error)
	}
}

// TestOverridesEnterCacheKey: tol and max_iter fold into the canonical
// key — requests at different solver settings never share results —
// while workers deliberately does not, because results are identical at
// any pool width.
func TestOverridesEnterCacheKey(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := paperCell()
	req["tol"] = 1e-8
	if code, got := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", req); code != http.StatusOK || got.Cached {
		t.Fatalf("first tol=1e-8: status=%d cached=%v", code, got.Cached)
	}
	if _, got := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", req); !got.Cached {
		t.Errorf("repeat tol=1e-8 not cached")
	}
	req["tol"] = 1e-10
	if _, got := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", req); got.Cached {
		t.Errorf("tol=1e-10 shared tol=1e-8's cache entry")
	}
	delete(req, "tol")
	req["max_iter"] = 777
	if _, got := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", req); got.Cached {
		t.Errorf("max_iter=777 shared the default entry")
	}
	// workers stays out of the key: a width-4 request hits the entry a
	// width-1 request populated.
	fresh := paperCell()
	fresh["sojourns"] = 2 // distinct from the entries above
	fresh["workers"] = 1
	if code, got := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", fresh); code != http.StatusOK || got.Cached {
		t.Fatalf("workers=1: status=%d cached=%v", code, got.Cached)
	}
	fresh["workers"] = 4
	code, got := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", fresh)
	if code != http.StatusOK || !got.Cached {
		t.Errorf("workers=4: status=%d cached=%v, want a hit on the workers=1 entry", code, got.Cached)
	}
}

// TestWorkersWidthIndependence: with caching disabled, the same cell
// evaluated at different pool widths produces identical analyses — the
// contract that keeps workers out of the cache key.
func TestWorkersWidthIndependence(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: -1})
	var analyses []paperAnalysisDTO
	for _, workers := range []int{1, 4} {
		req := paperCell()
		req["workers"] = workers
		code, got := postJSON[paperAnalyzeReply](t, ts.URL+"/v1/analyze", req)
		if code != http.StatusOK || got.Cached {
			t.Fatalf("workers=%d: status=%d cached=%v", workers, code, got.Cached)
		}
		analyses = append(analyses, got.Analysis)
	}
	a, b := analyses[0], analyses[1]
	if a.ExpectedSafeTime != b.ExpectedSafeTime || a.PollutionProbability != b.PollutionProbability {
		t.Errorf("width 1 vs 4 diverge: %+v vs %+v", a, b)
	}
}

// TestMetricsExposesNewCounters: the new stream/job instrumentation
// renders in the Prometheus exposition.
func TestMetricsExposesNewCounters(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"attackd_stream_cells_total 0",
		`attackd_jobs_total{state="submitted"} 0`,
		`attackd_jobs_total{state="done"} 0`,
		`attackd_jobs_total{state="failed"} 0`,
		`attackd_jobs_total{state="canceled"} 0`,
		"attackd_jobs_active 0",
		"attackd_singleflight_shared_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSharedFollowerResponse documents the follower contract end to
// end with the flight group directly: followers return shared=true and
// leave the miss counter alone (TestConcurrentAnalyzeSingleflight
// asserts the same over HTTP).
func TestSharedFollowerResponse(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		s.flights.Do("k", func() (any, error) {
			close(started)
			<-release
			return AnalyzeResponse{States: 1}, nil
		})
	}()
	<-started
	done := make(chan bool, 1)
	go func() {
		_, _, shared := s.flights.Do("k", func() (any, error) { return nil, nil })
		done <- shared
	}()
	// Give the follower time to join the flight before releasing the
	// leader; if it loses this (generous) race it becomes a leader of its
	// own and the assertion below catches the false negative.
	time.Sleep(100 * time.Millisecond)
	close(release)
	if shared := <-done; !shared {
		t.Errorf("follower Do returned shared=false")
	}
}
