package attackd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newJobTestServer exposes the Server alongside its httptest harness so
// tests can reach the job store's fake-clock hook and DrainJobs.
func newJobTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// jobSweepBody is a small 4-cell sweep job.
func jobSweepBody() map[string]any {
	return map[string]any{
		"kind": "sweep",
		"c":    "7", "delta": "7", "k": "1",
		"mu": "0.1,0.2", "d": "0.8,0.9", "nu": "0.1",
	}
}

// bigSweepBody is a grid large enough that a cancel usually lands while
// it is still evaluating.
func bigSweepBody() map[string]any {
	mu := make([]string, 64)
	d := make([]string, 64)
	for i := range mu {
		mu[i] = fmt.Sprintf("%.4f", 0.01*float64(i+1))
		d[i] = fmt.Sprintf("%.4f", 0.01*float64(i+1))
	}
	return map[string]any{
		"kind": "sweep",
		"c":    "7", "delta": "7", "k": "1",
		"mu": strings.Join(mu, ","), "d": strings.Join(d, ","), "nu": "0.1",
		"workers": 1,
	}
}

// blockedJob plants a synthetic running job directly in the store: its
// evaluation parks until release is called (or its context is canceled).
// This is the deterministic way to observe the "running" states — on a
// loaded single-CPU box a real evaluation can finish before the next
// HTTP round-trip lands, so wall-clock racing is not an option.
func blockedJob(t *testing.T, s *Server, id string) (release func()) {
	t.Helper()
	block := make(chan struct{})
	ev := &evaluation{
		kind:  "sweep",
		model: "targeted-attack",
		key:   "test-blocked|" + id,
		cells: 1,
	}
	ev.run = func(ctx context.Context, onCell func(any)) (any, error) {
		select {
		case <-block:
			if onCell != nil {
				onCell(SweepCellDTO{})
			}
			return SweepResponse{Cells: []SweepCellDTO{{}}, Solver: "bicgstab"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ev.cellsOf = func(val any) []any {
		return []any{val.(SweepResponse).Cells[0]}
	}
	ev.finish = func(val any, cached, shared bool, tm *TimingsDTO) any {
		resp := val.(SweepResponse)
		resp.Cached, resp.Shared = cached, shared
		return resp
	}
	ev.summarize = func(val any, cached, shared bool, tm *TimingsDTO) StreamSummary {
		return StreamSummary{Cells: 1, Cached: cached, Shared: shared}
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      id,
		ev:      ev,
		cancel:  cancel,
		created: s.jobs.now(),
		state:   JobRunning,
		done:    make(chan struct{}),
	}
	if err := s.jobs.add(j); err != nil {
		cancel()
		t.Fatalf("adding blocked job: %v", err)
	}
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.jobsActive.Add(1)
	go s.runJob(ctx, j)
	var once sync.Once
	return func() { once.Do(func() { close(block) }) }
}

// pollJob polls a job's status until it leaves JobRunning or the
// deadline passes.
func pollJob(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, status := getJSON[JobStatus](t, url+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll status = %d", code)
		}
		if status.State != JobRunning {
			return status
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return JobStatus{}
}

func getJSON[T any](t *testing.T, url string) (int, T) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// TestJobLifecycle: submit → poll (with cell-level progress) → result,
// and the job's evaluation lands in the shared cache.
func TestJobLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, sub := postJSON[JobSubmitResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
	if code != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: status=%d resp=%+v", code, sub)
	}
	if sub.Status.Kind != "sweep" || sub.Status.CellsTotal != 4 {
		t.Fatalf("submit status = %+v", sub.Status)
	}
	status := pollJob(t, ts.URL, sub.ID)
	if status.State != JobDone || status.CellsDone != 4 || status.CellsTotal != 4 || status.Error != "" {
		t.Fatalf("final status = %+v", status)
	}
	// The job must appear in the collection listing.
	code, list := getJSON[JobListResponse](t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("list = %d %+v", code, list)
	}
	code, result := getJSON[paperSweepReply](t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if code != http.StatusOK || len(result.Cells) != 4 || result.Cached {
		t.Fatalf("result: status=%d cells=%d cached=%v", code, len(result.Cells), result.Cached)
	}
	// The synchronous endpoint now hits the cache the job populated.
	body := jobSweepBody()
	delete(body, "kind")
	code, direct := postJSON[paperSweepReply](t, ts.URL+"/v1/sweep", body)
	if code != http.StatusOK || !direct.Cached {
		t.Fatalf("sweep after job: status=%d cached=%v, want 200/true", code, direct.Cached)
	}
	if direct.Cells[0].Analysis.ExpectedSafeTime != result.Cells[0].Analysis.ExpectedSafeTime {
		t.Errorf("job result diverges from the synchronous endpoint")
	}
	// The result endpoint streams too.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"/result?stream=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines, summary := drainNDJSON(t, resp.Body)
	if len(lines) != 4 || summary.Cells != 4 {
		t.Errorf("streamed job result: %d cells, summary %+v", len(lines), summary)
	}
}

// TestJobSimSweep: the simulation evaluation rides the same job API.
func TestJobSimSweep(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, sub := postJSON[JobSubmitResponse](t, ts.URL+"/v1/jobs", map[string]any{
		"kind": "simsweep",
		"mu":   "0.2", "d": "0.9", "sizes": "64",
		"events": 200, "replicas": 2, "seed": 3,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status=%d resp=%+v", code, sub)
	}
	status := pollJob(t, ts.URL, sub.ID)
	if status.State != JobDone || status.Kind != "simsweep" || status.CellsDone != 1 {
		t.Fatalf("final status = %+v", status)
	}
	code, result := getJSON[SimSweepResponse](t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if code != http.StatusOK || len(result.Cells) != 1 || result.Events <= 0 {
		t.Fatalf("result: status=%d %+v", code, result)
	}
}

// TestJobCancel: DELETE cancels the evaluation through its context and
// the result endpoint reports the job gone.
func TestJobCancel(t *testing.T) {
	s, ts := newJobTestServer(t, Config{})
	release := blockedJob(t, s, "blocked-cancel")
	defer release()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/blocked-cancel", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.State != JobCanceled {
		t.Fatalf("state after cancel = %q, want %q", status.State, JobCanceled)
	}
	code, _ := getJSON[errorResponse](t, ts.URL+"/v1/jobs/blocked-cancel/result")
	if code != http.StatusGone {
		t.Errorf("result of canceled job: status=%d, want 410", code)
	}
	// A real evaluation observes the same context. Cancel is best-effort
	// against the clock here, so only the terminal state is asserted.
	code, sub := postJSON[JobSubmitResponse](t, ts.URL+"/v1/jobs", bigSweepBody())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status=%d", code)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.State != JobCanceled && status.State != JobDone {
		t.Errorf("real job after cancel = %q, want a terminal state", status.State)
	}
}

// TestJobResultWhileRunning: polling the result of a running job is a
// 409, not a hang; the same URL serves the result once the job lands.
func TestJobResultWhileRunning(t *testing.T) {
	s, ts := newJobTestServer(t, Config{})
	release := blockedJob(t, s, "blocked-result")
	code, msg := getJSON[errorResponse](t, ts.URL+"/v1/jobs/blocked-result/result")
	if code != http.StatusConflict || !strings.Contains(msg.Error, "running") {
		t.Errorf("result while running: status=%d err=%q, want 409", code, msg.Error)
	}
	release()
	if status := pollJob(t, ts.URL, "blocked-result"); status.State != JobDone {
		t.Fatalf("released job = %+v, want done", status)
	}
	code, result := getJSON[SweepResponse](t, ts.URL+"/v1/jobs/blocked-result/result")
	if code != http.StatusOK || len(result.Cells) != 1 {
		t.Errorf("result after release: status=%d cells=%d", code, len(result.Cells))
	}
}

// TestJobTTLEviction drives the store's lazy TTL eviction with a fake
// clock: a finished job stays pollable inside the TTL and 404s after.
func TestJobTTLEviction(t *testing.T) {
	s, ts := newJobTestServer(t, Config{})
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	s.jobs.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	code, sub := postJSON[JobSubmitResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status=%d", code)
	}
	if status := pollJob(t, ts.URL, sub.ID); status.State != JobDone {
		t.Fatalf("status = %+v", status)
	}
	mu.Lock()
	now = now.Add(DefaultJobTTL - time.Second)
	mu.Unlock()
	if code, _ := getJSON[JobStatus](t, ts.URL+"/v1/jobs/"+sub.ID); code != http.StatusOK {
		t.Fatalf("inside TTL: status=%d, want 200", code)
	}
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	if code, _ := getJSON[errorResponse](t, ts.URL+"/v1/jobs/"+sub.ID); code != http.StatusNotFound {
		t.Fatalf("past TTL: status=%d, want 404", code)
	}
	if code, list := getJSON[JobListResponse](t, ts.URL+"/v1/jobs"); code != http.StatusOK || len(list.Jobs) != 0 {
		t.Fatalf("list past TTL: %d jobs", len(list.Jobs))
	}
}

// TestJobStoreBound: a full store of running jobs rejects submissions
// with 503; finished jobs make room for new ones.
func TestJobStoreBound(t *testing.T) {
	s, ts := newJobTestServer(t, Config{MaxJobs: 1})
	release := blockedJob(t, s, "occupant")
	defer release()
	code, msg := postJSON[errorResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
	if code != http.StatusServiceUnavailable || !strings.Contains(msg.Error, "full") {
		t.Fatalf("submit into full store: status=%d err=%q, want 503", code, msg.Error)
	}
	// Cancel the occupant; a finished job is evictable, so the next
	// submission displaces it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/occupant", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	code, sub := postJSON[JobSubmitResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
	if code != http.StatusAccepted {
		t.Fatalf("submit after cancel: status=%d", code)
	}
	if status := pollJob(t, ts.URL, sub.ID); status.State != JobDone {
		t.Fatalf("status = %+v", status)
	}
}

// TestJobsDisabled: MaxJobs < 0 turns the job API off.
func TestJobsDisabled(t *testing.T) {
	ts := newTestServer(t, Config{MaxJobs: -1})
	code, msg := postJSON[errorResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
	if code != http.StatusServiceUnavailable || !strings.Contains(msg.Error, "disabled") {
		t.Fatalf("submit: status=%d err=%q, want 503/disabled", code, msg.Error)
	}
}

// TestDrainJobs: draining blocks until the in-flight job completes and
// rejects new submissions meanwhile.
func TestDrainJobs(t *testing.T) {
	s, ts := newJobTestServer(t, Config{})
	code, sub := postJSON[JobSubmitResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status=%d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainJobs(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The drained job finished — not canceled, not lost.
	code, status := getJSON[JobStatus](t, ts.URL+"/v1/jobs/"+sub.ID)
	if code != http.StatusOK || status.State != JobDone {
		t.Fatalf("after drain: status=%d state=%q, want 200/done", code, status.State)
	}
	code, msg := postJSON[errorResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
	if code != http.StatusServiceUnavailable || !strings.Contains(msg.Error, "draining") {
		t.Fatalf("submit while drained: status=%d err=%q", code, msg.Error)
	}
}

// TestJobBadRequests: the job API's client-error paths.
func TestJobBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Unknown kind.
	code, msg := postJSON[errorResponse](t, ts.URL+"/v1/jobs", map[string]any{"kind": "dance"})
	if code != http.StatusBadRequest || !strings.Contains(msg.Error, "dance") {
		t.Errorf("unknown kind: status=%d err=%q", code, msg.Error)
	}
	// Invalid underlying sweep body.
	code, _ = postJSON[errorResponse](t, ts.URL+"/v1/jobs", map[string]any{"kind": "sweep", "c": "7"})
	if code != http.StatusBadRequest {
		t.Errorf("invalid sweep body: status=%d, want 400", code)
	}
	// Unknown job ID.
	code, _ = getJSON[errorResponse](t, ts.URL+"/v1/jobs/deadbeef")
	if code != http.StatusNotFound {
		t.Errorf("unknown job: status=%d, want 404", code)
	}
	// Unknown subresource.
	code, _ = getJSON[errorResponse](t, ts.URL+"/v1/jobs/deadbeef/logs")
	if code != http.StatusNotFound {
		t.Errorf("unknown subresource: status=%d, want 404", code)
	}
	// Wrong method on the collection.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, POST" {
		t.Errorf("PUT /v1/jobs: status=%d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	// Wrong method on a job.
	code, sub := postJSON[JobSubmitResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status=%d", code)
	}
	req, _ = http.NewRequest(http.MethodPatch, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, DELETE" {
		t.Errorf("PATCH /v1/jobs/{id}: status=%d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	pollJob(t, ts.URL, sub.ID)
}

// TestJobsConcurrent is the job API's -race workout: concurrent
// submissions of the same plan, pollers, listers and cancelers all
// hammering one store.
func TestJobsConcurrent(t *testing.T) {
	ts := newTestServer(t, Config{MaxJobs: 64})
	const submitters = 8
	var wg sync.WaitGroup
	ids := make(chan string, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, sub := postJSON[JobSubmitResponse](t, ts.URL+"/v1/jobs", jobSweepBody())
			if code != http.StatusAccepted {
				t.Errorf("submit: status=%d", code)
				return
			}
			ids <- sub.ID
		}()
	}
	wg.Wait()
	close(ids)
	var all []string
	for id := range ids {
		all = append(all, id)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 24; i++ {
		wg.Add(1)
		id := all[rng.Intn(len(all))]
		go func(i int, id string) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				getJSON[JobStatus](t, ts.URL+"/v1/jobs/"+id)
			case 1:
				getJSON[JobListResponse](t, ts.URL+"/v1/jobs")
			default:
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(i, id)
	}
	wg.Wait()
	// Every job must settle in a terminal state.
	for _, id := range all {
		status := pollJob(t, ts.URL, id)
		switch status.State {
		case JobDone, JobCanceled:
		default:
			t.Errorf("job %s settled as %q: %+v", id, status.State, status)
		}
	}
}
