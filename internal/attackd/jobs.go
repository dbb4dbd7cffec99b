package attackd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"targetedattacks/internal/obs"
)

// The async job API: POST /v1/jobs submits any sweep or simulation-sweep
// body (of any model family) and returns immediately with a
// job ID; GET /v1/jobs/{id} polls state and cell-level progress; GET
// /v1/jobs/{id}/result fetches — or streams, with the usual NDJSON
// negotiation — the finished set; DELETE /v1/jobs/{id} cancels the
// evaluation through its context. Jobs deliberately bypass singleflight:
// each runs under its own cancelable context, so canceling one job never
// tears down a synchronous request that happens to share its parameters.
// They do share the LRU — a job checks the cache before evaluating and
// stores its result on success, so jobs and synchronous requests warm
// each other.

// Job states, as reported by the status API.
const (
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobStatus is the wire form of one job's state and progress.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Model string `json:"model,omitempty"`
	State string `json:"state"`
	// CellsDone counts finished grid cells; CellsTotal is the grid size,
	// so done/total is the job's progress fraction.
	CellsDone  int    `json:"cells_done"`
	CellsTotal int    `json:"cells_total"`
	Error      string `json:"error,omitempty"`
	// TraceID correlates the job with the submitting request's trace (a
	// child trace: same 32-hex trace ID, its own spans).
	TraceID string `json:"trace_id,omitempty"`
}

// JobSubmitResponse is the POST /v1/jobs response body.
type JobSubmitResponse struct {
	ID string `json:"id"`
	// Status echoes the freshly created job's status (state "running").
	Status JobStatus `json:"status"`
}

// JobListResponse is the GET /v1/jobs response body.
type JobListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// job is one submitted evaluation. Mutable fields are guarded by the
// owning store's mutex, except cellsDone which evaluator goroutines
// bump lock-free.
type job struct {
	id        string
	ev        *evaluation
	cellsDone atomic.Int64
	cancel    context.CancelFunc
	created   time.Time
	// tr is the job's own trace — a child of the submitting request's
	// trace (same trace ID), so the evaluation's spans record under the
	// job rather than racing the submit response. Nil for jobs built
	// outside the HTTP path (tests).
	tr *obs.Trace

	// state, err, result, cached, timings and finished change exactly
	// once, under the store lock, when the evaluation goroutine
	// completes.
	state    string
	err      string
	result   any
	cached   bool
	timings  *TimingsDTO
	finished time.Time
	done     chan struct{}
}

func (j *job) status() JobStatus {
	st := JobStatus{
		ID:         j.id,
		Kind:       j.ev.kind,
		Model:      j.ev.model,
		State:      j.state,
		CellsDone:  int(j.cellsDone.Load()),
		CellsTotal: j.ev.cells,
		Error:      j.err,
	}
	if j.tr != nil {
		st.TraceID = j.tr.TraceID()
	}
	return st
}

// jobStore is the bounded in-memory job registry. Finished jobs stay
// pollable for the TTL and are evicted lazily on the next store access;
// there is no background reaper to leak. now is injectable so tests can
// drive TTL eviction with a fake clock.
type jobStore struct {
	mu     sync.Mutex
	jobs   map[string]*job
	max    int
	ttl    time.Duration
	now    func() time.Time
	closed bool
	// wg tracks running evaluation goroutines for graceful drain.
	wg sync.WaitGroup
}

func newJobStore(max int, ttl time.Duration) *jobStore {
	return &jobStore{
		jobs: make(map[string]*job),
		max:  max,
		ttl:  ttl,
		now:  time.Now,
	}
}

// evictLocked drops finished jobs past their TTL. Callers hold mu.
func (st *jobStore) evictLocked() {
	now := st.now()
	for id, j := range st.jobs {
		if j.state != JobRunning && now.Sub(j.finished) >= st.ttl {
			delete(st.jobs, id)
		}
	}
}

// add registers a new job, evicting expired results first and, when the
// store is still full, the oldest finished job — a fresh submission
// outranks a stale pollable result. A store full of running jobs, a
// draining server, or a negative bound (job API disabled) rejects the
// submission.
func (st *jobStore) add(j *job) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errors.New("server is draining, not accepting jobs")
	}
	if st.max < 0 {
		return errors.New("the job API is disabled on this server")
	}
	st.evictLocked()
	if len(st.jobs) >= st.max {
		var oldest *job
		for _, cand := range st.jobs {
			if cand.state == JobRunning {
				continue
			}
			if oldest == nil || cand.finished.Before(oldest.finished) {
				oldest = cand
			}
		}
		if oldest == nil {
			return fmt.Errorf("job store is full (%d jobs running)", len(st.jobs))
		}
		delete(st.jobs, oldest.id)
	}
	st.jobs[j.id] = j
	st.wg.Add(1)
	return nil
}

// get looks a job up, applying TTL eviction first so an expired job is
// gone rather than stale.
func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked()
	j, ok := st.jobs[id]
	return j, ok
}

// list snapshots every live job's status, oldest first.
func (st *jobStore) list() []JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked()
	js := make([]*job, 0, len(st.jobs))
	for _, j := range st.jobs {
		js = append(js, j)
	}
	sort.Slice(js, func(a, b int) bool {
		if !js[a].created.Equal(js[b].created) {
			return js[a].created.Before(js[b].created)
		}
		return js[a].id < js[b].id
	})
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// finish records the evaluation goroutine's outcome exactly once.
func (st *jobStore) finish(j *job, val any, cached bool, err error, tm *TimingsDTO) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case err == nil:
		j.state = JobDone
		j.result = val
		j.cached = cached
		j.timings = tm
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
	default:
		j.state = JobFailed
		j.err = err.Error()
	}
	j.finished = st.now()
	close(j.done)
}

// close stops new submissions (graceful drain).
func (st *jobStore) close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
}

// DrainJobs stops accepting new job submissions and blocks until every
// running job finishes or ctx expires. Pair it with http.Server.Shutdown
// so in-flight jobs complete (and their results land in the cache)
// before the process exits.
func (s *Server) DrainJobs(ctx context.Context) error {
	s.jobs.close()
	done := make(chan struct{})
	go func() {
		s.jobs.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newJobID returns a 16-hex-digit random job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on a working OS
	}
	return hex.EncodeToString(b[:])
}

// evaluationFor routes a job body to the matching evaluation builder by
// its "kind" field ("sweep" covers every model family via "model").
func (s *Server) evaluationFor(kind string, body []byte) (*evaluation, error) {
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "", "sweep":
		return s.analyticEvaluation(body, false)
	case "simsweep":
		return s.simSweepEvaluationFromBody(body)
	default:
		return nil, fmt.Errorf("unknown job kind %q (want \"sweep\" or \"simsweep\")", kind)
	}
}

// handleJobs serves the job collection: POST submits, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/jobs"
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r, endpoint)
	case http.MethodGet:
		s.writeJSON(w, r, endpoint, http.StatusOK, JobListResponse{Jobs: s.jobs.list()})
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, r, endpoint, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request, endpoint string) {
	body, ok := s.readBody(w, r, endpoint)
	if !ok {
		return
	}
	// The job envelope is the sweep body itself plus an optional "kind"
	// discriminator; the builders ignore the extra field.
	var head struct {
		Kind string `json:"kind,omitempty"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	ev, err := s.evaluationFor(head.Kind, body)
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	// The job outlives the submit request, so it gets a child trace:
	// same trace ID (for cross-request correlation), its own spans.
	tr := obs.NewChildTrace(obs.TraceFromContext(r.Context()))
	ctx, cancel := context.WithCancel(obs.ContextWithTrace(context.Background(), tr))
	j := &job{
		id:      newJobID(),
		ev:      ev,
		cancel:  cancel,
		created: s.jobs.now(),
		tr:      tr,
		state:   JobRunning,
		done:    make(chan struct{}),
	}
	if err := s.jobs.add(j); err != nil {
		cancel()
		s.writeError(w, r, endpoint, http.StatusServiceUnavailable, err)
		return
	}
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.jobsActive.Add(1)
	go s.runJob(ctx, j)
	s.jobs.mu.Lock()
	resp := JobSubmitResponse{ID: j.id, Status: j.status()}
	s.jobs.mu.Unlock()
	s.writeJSON(w, r, endpoint, http.StatusAccepted, resp)
}

// runJob executes one job's evaluation off the request goroutine.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.jobs.wg.Done()
	defer j.cancel()
	defer s.metrics.jobsActive.Add(-1)
	root, ctx := obs.StartSpan(ctx, "job")
	var val any
	var err error
	cached := false
	cacheSpan, _ := obs.StartSpan(ctx, "cache")
	hit, ok := s.cache.Get(j.ev.key)
	cacheSpan.End()
	if ok {
		s.metrics.cacheHits.Add(1)
		val, cached = hit, true
		j.cellsDone.Store(int64(j.ev.cells))
	} else {
		s.metrics.cacheMisses.Add(1)
		val, err = j.ev.run(ctx, func(any) { j.cellsDone.Add(1) })
	}
	root.End()
	var tm *TimingsDTO
	if j.ev.timings && err == nil {
		tm = timingsFromTrace(j.tr)
	}
	s.jobs.finish(j, val, cached, err, tm)
	if j.tr != nil {
		s.metrics.observeStages(j.tr.Stages(), "job")
	}
	switch j.state {
	case JobDone:
		s.metrics.jobsCompleted.Add(1)
	case JobCanceled:
		s.metrics.jobsCanceled.Add(1)
	default:
		s.metrics.jobsFailed.Add(1)
	}
	s.logger.LogAttrs(ctx, slog.LevelInfo, "job finished",
		slog.String("job_id", j.id),
		slog.String("kind", j.ev.kind),
		slog.String("state", j.state),
		slog.Int("cells", int(j.cellsDone.Load())),
		slog.Bool("cached", cached),
		slog.Duration("duration", s.jobs.now().Sub(j.created)),
	)
}

// handleJobByID serves one job: GET {id} polls status, GET {id}/result
// delivers the finished set (buffered or NDJSON-streamed), DELETE {id}
// cancels.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/jobs/{id}"
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "result") {
		s.writeError(w, r, endpoint, http.StatusNotFound, fmt.Errorf("no such resource %q", r.URL.Path))
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		s.writeError(w, r, endpoint, http.StatusNotFound, fmt.Errorf("no job %q (finished jobs expire after %s)", id, s.jobs.ttl))
		return
	}
	if sub == "result" {
		if !s.requireMethod(w, r, endpoint, http.MethodGet) {
			return
		}
		s.serveJobResult(w, r, endpoint, j)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.jobs.mu.Lock()
		status := j.status()
		s.jobs.mu.Unlock()
		s.writeJSON(w, r, endpoint, http.StatusOK, status)
	case http.MethodDelete:
		// Best-effort: the evaluation observes its context at cell
		// boundaries, and a job that wins the race to completion stays
		// done. The response reports the state after the cancel settles.
		j.cancel()
		<-j.done
		s.jobs.mu.Lock()
		status := j.status()
		s.jobs.mu.Unlock()
		s.writeJSON(w, r, endpoint, http.StatusOK, status)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		s.writeError(w, r, endpoint, http.StatusMethodNotAllowed, fmt.Errorf("use GET or DELETE"))
	}
}

// serveJobResult delivers a finished job's result, honoring the same
// NDJSON negotiation as the synchronous endpoints.
func (s *Server) serveJobResult(w http.ResponseWriter, r *http.Request, endpoint string, j *job) {
	s.jobs.mu.Lock()
	state, errMsg, val, cached, tm := j.state, j.err, j.result, j.cached, j.timings
	s.jobs.mu.Unlock()
	switch state {
	case JobRunning:
		s.writeError(w, r, endpoint, http.StatusConflict,
			fmt.Errorf("job %s is still running (%d/%d cells)", j.id, j.cellsDone.Load(), j.ev.cells))
		return
	case JobCanceled:
		s.writeError(w, r, endpoint, http.StatusGone, fmt.Errorf("job %s was canceled", j.id))
		return
	case JobFailed:
		s.writeError(w, r, endpoint, http.StatusInternalServerError, fmt.Errorf("job %s failed: %s", j.id, errMsg))
		return
	}
	if wantsStream(r) {
		sw := s.startStream(w, endpoint)
		for _, line := range j.ev.cellsOf(val) {
			s.metrics.streamCells.Add(1)
			sw.writeLine(line)
		}
		sw.writeLine(streamEnvelope{Summary: j.ev.summarize(val, cached, false, tm)})
		return
	}
	s.writeJSON(w, r, endpoint, http.StatusOK, j.ev.finish(val, cached, false, tm))
}
