// Package attackd is the HTTP serving layer over the targeted-attack
// analytics: a JSON API that answers single-cell analyses (/v1/analyze),
// whole parameter grids (/v1/sweep) and simulation-sweep grids of
// whole-system overlay runs (/v1/simsweep) from one warm process.
//
// Three layers keep repeated traffic cheap: a size-bounded LRU cache
// keyed by canonical request parameters, singleflight deduplication so
// concurrent identical requests share one evaluation, and the sweep
// evaluator's own structural amortization underneath. Simulation sweeps
// always run hash-derived fast identities and are bounded by a cell
// limit and a cells×replicas×events budget; their responses carry no
// wall-clock fields, so cached replies are byte-identical to fresh ones.
//
// Grid endpoints deliver three ways from one pipeline: buffered JSON,
// NDJSON streaming (Accept: application/x-ndjson or ?stream=1 — one
// cell line as each cell completes, then a {"summary":{...}} line; see
// stream.go for the protocol), and async jobs (POST /v1/jobs submits
// any sweep/simsweep body, GET /v1/jobs/{id} polls cell-level progress,
// /result fetches or streams the finished response, DELETE cancels;
// see jobs.go). All three share the cache and singleflight, so a
// streamed or job-run grid warms the same entries a buffered request
// would. Requests may override tol, max_iter and workers per call;
// tol and max_iter enter the cache key, workers deliberately does not
// (results are bit-identical at any pool width).
//
// /healthz and /metrics (Prometheus text format) expose liveness,
// request counts, cache hit rates (leader-only misses, with
// singleflight followers counted separately), in-flight evaluations,
// streamed cells, job states and simulated event totals.
//
// Observability rides internal/obs: every request runs inside a trace
// (inbound W3C traceparent adopted and echoed, fresh crypto/rand IDs
// otherwise), handlers open per-stage spans, and after each response
// the middleware feeds the request- and stage-latency histograms on
// /metrics and emits a structured log line — at warn level with the
// full span tree when the request exceeded Config.SlowRequest. Any
// analysis or sweep body may opt into a "timings" response breakdown
// with "timings": true; breakdowns are attached at delivery time so
// cached values stay byte-identical.
package attackd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"time"

	// Registers the built-in second model family (APT compromise chain)
	// so every server instance can serve it by name.
	_ "targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Pool fans sweep cells (and the row-parallel matrix construction)
	// across workers; nil uses a per-CPU pool.
	Pool *engine.Pool
	// Solver is the analytic backend of every evaluation; the zero value
	// picks the sparse BiCGSTAB path, which keeps large C/∆ requests
	// affordable in a serving context.
	Solver matrix.SolverConfig
	// CacheSize bounds the LRU result cache in entries; 0 picks
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// MaxCells bounds the grid size a single /v1/sweep request may ask
	// for; 0 picks DefaultMaxCells. It may not exceed
	// chainmodel.MaxGridCells, the bound every family's plan parser
	// applies before allocating a grid.
	MaxCells int
	// MaxStates bounds |Ω| per cell, rejecting accidental C=∆=500
	// requests that would pin the process; 0 picks DefaultMaxStates.
	MaxStates int
	// MaxSojourns bounds the per-request sojourn count (each sojourn
	// costs one batched block solve and two result slots); 0 picks
	// DefaultMaxSojourns.
	MaxSojourns int
	// MaxSimCells bounds the grid size a single /v1/simsweep request may
	// ask for; 0 picks DefaultMaxSimCells.
	MaxSimCells int
	// MaxSimEventBudget bounds a /v1/simsweep request's total simulated
	// events (cells × replicas × events); 0 picks
	// DefaultMaxSimEventBudget.
	MaxSimEventBudget int64
	// MaxJobs bounds the async job store in entries (running plus
	// retained finished jobs); 0 picks DefaultMaxJobs, negative disables
	// the job API (submissions are rejected).
	MaxJobs int
	// JobTTL is how long a finished job's result stays pollable before
	// eviction; 0 picks DefaultJobTTL.
	JobTTL time.Duration
	// Logger receives the server's structured logs (per-request debug
	// lines, slow-request warnings, job completions); nil uses
	// slog.Default(). Wrap it with obs.NewLogger to get trace IDs
	// stamped on every record.
	Logger *slog.Logger
	// SlowRequest is the latency beyond which a completed request logs
	// its span tree at Warn level; 0 picks DefaultSlowRequest, negative
	// disables slow-request logging.
	SlowRequest time.Duration
}

// Serving defaults.
const (
	DefaultCacheSize   = 4096
	DefaultMaxCells    = 4096
	DefaultMaxStates   = 200_000
	DefaultMaxSojourns = 1024
	// DefaultMaxJobs bounds the async job store; DefaultJobTTL is how
	// long finished jobs stay pollable.
	DefaultMaxJobs = 64
	DefaultJobTTL  = 15 * time.Minute
	// DefaultSlowRequest is the slow-request log threshold: long enough
	// that routine traffic stays quiet, short enough to catch a
	// colossal sweep monopolizing the process.
	DefaultSlowRequest = time.Second
	// maxRequestWorkers bounds the per-request "workers" override: wide
	// enough for any real machine, small enough that a request cannot ask
	// for a million goroutines.
	maxRequestWorkers = 256
	// maxRequestIter bounds the per-request "max_iter" override.
	maxRequestIter = 10_000_000
	// minRequestTol floors the per-request "tol" override: a tolerance
	// below float64 round-off can never converge and would burn the whole
	// iteration cap on every solve.
	minRequestTol = 1e-15
	// maxBodyBytes bounds a request body before JSON decoding — the
	// first allocation gate an untrusted request hits; axis and grid
	// limits apply after parsing. 1 MiB fits any legal request with
	// room to spare.
	maxBodyBytes = 1 << 20
	// maxCacheWeight bounds the cache's total retained result size,
	// measured in result floats (a sweep entry holds roughly
	// cells × (2·sojourns + const) of them): 4M floats ≈ 32 MiB of
	// payload however the entry count divides it.
	maxCacheWeight = 4 << 20
)

// analysisWeight approximates the retained size of one cell's analysis
// in floats.
func analysisWeight(sojourns int) int64 {
	return int64(sojourns)*2 + 16
}

// Server answers the attackd HTTP API. Create one with New and mount
// Handler on an http.Server.
type Server struct {
	pool              *engine.Pool
	solver            matrix.SolverConfig
	maxCells          int
	maxStates         int
	maxSojourns       int
	maxSimCells       int
	maxSimEventBudget int64
	cache             *lru
	flights           *flightGroup
	metrics           *metrics
	jobs              *jobStore
	mux               *http.ServeMux
	logger            *slog.Logger
	slowReq           time.Duration
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	solver := cfg.Solver
	if solver.Kind == "" {
		solver.Kind = "bicgstab"
	}
	if _, err := solver.Build(); err != nil {
		return nil, fmt.Errorf("attackd: %w", err)
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	maxCells := cfg.MaxCells
	if maxCells == 0 {
		maxCells = DefaultMaxCells
	}
	if maxCells > chainmodel.MaxGridCells {
		return nil, fmt.Errorf("attackd: MaxCells %d exceeds the %d-cell grid limit", maxCells, chainmodel.MaxGridCells)
	}
	maxStates := cfg.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	maxSojourns := cfg.MaxSojourns
	if maxSojourns == 0 {
		maxSojourns = DefaultMaxSojourns
	}
	maxSimCells := cfg.MaxSimCells
	if maxSimCells == 0 {
		maxSimCells = DefaultMaxSimCells
	}
	maxSimEventBudget := cfg.MaxSimEventBudget
	if maxSimEventBudget == 0 {
		maxSimEventBudget = DefaultMaxSimEventBudget
	}
	maxJobs := cfg.MaxJobs
	if maxJobs == 0 {
		maxJobs = DefaultMaxJobs
	}
	jobTTL := cfg.JobTTL
	if jobTTL == 0 {
		jobTTL = DefaultJobTTL
	}
	pool := cfg.Pool
	if pool == nil {
		pool = engine.New(0) // per-CPU, as the Config doc promises
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	slowReq := cfg.SlowRequest
	if slowReq == 0 {
		slowReq = DefaultSlowRequest
	}
	s := &Server{
		pool:              pool,
		solver:            solver,
		maxCells:          maxCells,
		maxStates:         maxStates,
		maxSojourns:       maxSojourns,
		maxSimCells:       maxSimCells,
		maxSimEventBudget: maxSimEventBudget,
		cache:             newLRU(cacheSize, maxCacheWeight),
		flights:           newFlightGroup(),
		metrics:           newMetrics(),
		jobs:              newJobStore(maxJobs, jobTTL),
		mux:               http.NewServeMux(),
		logger:            logger,
		slowReq:           slowReq,
	}
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/simsweep", s.handleSimSweep)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the root HTTP handler: the API mux wrapped in the
// observability middleware (trace ingest/propagation, latency
// histograms, per-request and slow-request logs).
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// instrument wraps next with the per-request observability envelope:
// it ingests (or mints) the W3C traceparent, opens the root "request"
// span, echoes the traceparent back so clients can correlate, and —
// once the handler returns — feeds the request-duration and
// per-stage histograms and emits the request log (Warn with the full
// span tree past the slow threshold, Debug otherwise).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get("traceparent"))
		ctx := obs.ContextWithTrace(r.Context(), tr)
		root, ctx := obs.StartSpan(ctx, "request")
		w.Header().Set("traceparent", tr.Traceparent(root))
		endpoint := normalizeEndpoint(r.URL.Path)

		next.ServeHTTP(w, r.WithContext(ctx))

		root.End()
		total := tr.Elapsed()
		s.metrics.observeRequest(endpoint, total.Seconds())
		s.metrics.observeStages(tr.Stages(), "request")

		if s.slowReq > 0 && total >= s.slowReq {
			s.logger.LogAttrs(ctx, slog.LevelWarn, "slow request",
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.Duration("duration", total),
				slog.String("spans", tr.SpanTree()))
		} else {
			s.logger.LogAttrs(ctx, slog.LevelDebug, "request",
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.Duration("duration", total))
		}
	})
}

// normalizeEndpoint maps a request path to its histogram label,
// collapsing per-job paths so IDs cannot explode the label set.
func normalizeEndpoint(path string) string {
	switch path {
	case "/v1/analyze", "/v1/sweep", "/v1/simsweep", "/v1/jobs", "/healthz", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/v1/jobs/") {
		return "/v1/jobs/{id}"
	}
	return "other"
}

// TimingsDTO is the opt-in per-request timing breakdown attached to
// responses when the request sets "timings": true. StagesMS aggregates
// span durations by stage; with a parallel pool the build/solve stages
// sum lane CPU time, so with workers=1 the stages partition the wall
// clock. TotalMS is the trace's elapsed time when the response was
// assembled (encoding and write happen after, so the request-duration
// histogram observation is slightly larger).
type TimingsDTO struct {
	TraceID     string             `json:"trace_id"`
	TotalMS     float64            `json:"total_ms"`
	StagesMS    map[string]float64 `json:"stages_ms"`
	StageCounts map[string]int     `json:"stage_counts,omitempty"`
}

// timingsFromTrace snapshots tr into a wire DTO; nil for a nil trace.
func timingsFromTrace(tr *obs.Trace) *TimingsDTO {
	if tr == nil {
		return nil
	}
	dto := &TimingsDTO{
		TraceID:     tr.TraceID(),
		TotalMS:     float64(tr.Elapsed()) / float64(time.Millisecond),
		StagesMS:    make(map[string]float64),
		StageCounts: make(map[string]int),
	}
	for stage, st := range tr.Stages() {
		// The root stages ("request" on the sync path, "job" on the async
		// one) span everything else; keeping them out lets stages_ms sum
		// to roughly total_ms.
		if stage == "request" || stage == "job" {
			continue
		}
		dto.StagesMS[stage] = float64(st.Duration) / float64(time.Millisecond)
		dto.StageCounts[stage] = st.Count
	}
	return dto
}

// CellRequest holds the fields every analytic request body shares —
// /v1/analyze, /v1/sweep and sweep jobs. The selected family reads its
// own parameters from the same body: one value per parameter for an
// analysis (chainmodel.Family.ParseCell), one axis expression per
// parameter, list "0.1,0.2" or range "0.5:0.9:0.1", for a sweep
// (ParsePlan).
type CellRequest struct {
	// Distribution names the family's initial distribution ("" selects
	// its default).
	Distribution string `json:"distribution,omitempty"`
	Sojourns     int    `json:"sojourns,omitempty"` // default 1
	// Solver overrides the server's backend for this request (one of
	// matrix.SolverKinds; "" keeps the server default).
	Solver string `json:"solver,omitempty"`
	// Tol overrides the iterative solver's residual tolerance for this
	// request (0 keeps the server default). It folds into the canonical
	// cache key, so requests at different tolerances never share results.
	Tol float64 `json:"tol,omitempty"`
	// MaxIter overrides the iterative solver's iteration cap (0 keeps
	// the server default); part of the cache key like Tol.
	MaxIter int `json:"max_iter,omitempty"`
	// Workers overrides the evaluation pool width for this request (0
	// keeps the server pool). Results are bit-identical for any width,
	// so Workers deliberately stays out of the cache key.
	Workers int `json:"workers,omitempty"`
	// Model selects the registered model family ("" means
	// "targeted-attack", the paper model). Unknown names are a client
	// error listing the registered families.
	Model string `json:"model,omitempty"`
	// Timings asks for a per-stage timing breakdown in the response;
	// timings never enter the cache (a cached reply carries the current
	// request's parse/cache stages, not the original evaluation's).
	Timings bool `json:"timings,omitempty"`
}

// AnalyzeResponse is the /v1/analyze response body. Params and Analysis
// are in the family's wire vocabulary; the paper model leaves Model,
// Distribution and Sojourns empty and reports them inside Params.
type AnalyzeResponse struct {
	Model        string `json:"model,omitempty"`
	Params       any    `json:"params"`
	Distribution string `json:"distribution,omitempty"`
	Sojourns     int    `json:"sojourns,omitempty"`
	States       int    `json:"states"`
	Solver       string `json:"solver"`
	Analysis     any    `json:"analysis"`
	// Cached reports the response was served from the LRU cache; Shared
	// that it piggybacked on an identical concurrent evaluation
	// (singleflight follower) without computing or hitting the cache.
	Cached bool `json:"cached"`
	Shared bool `json:"shared,omitempty"`
	// Timings is the opt-in per-stage breakdown (see TimingsDTO); it is
	// attached per response, never cached.
	Timings *TimingsDTO `json:"timings,omitempty"`
}

// SweepCellDTO is one cell of a /v1/sweep response, and one line of its
// NDJSON stream. Params and Analysis are as in AnalyzeResponse;
// Rule1Fires is reported by the paper model only.
type SweepCellDTO struct {
	Index      int   `json:"index"`
	Params     any   `json:"params"`
	States     int   `json:"states"`
	Transient  int   `json:"transient"`
	Rule1Fires *int  `json:"rule1_fires,omitempty"`
	Shared     bool  `json:"shared"`
	Iterations int64 `json:"iterations,omitempty"`
	Analysis   any   `json:"analysis"`
}

// SweepResponse is the /v1/sweep response body. Model, Distribution
// and Sojourns are empty for the paper model, as in AnalyzeResponse.
type SweepResponse struct {
	Model        string         `json:"model,omitempty"`
	Distribution string         `json:"distribution,omitempty"`
	Sojourns     int            `json:"sojourns,omitempty"`
	Cells        []SweepCellDTO `json:"cells"`
	Groups       int            `json:"groups"`
	Evaluated    int            `json:"evaluated"`
	// Iterations totals the evaluation's iterative-solver work across
	// all cells (0 for the dense backend and for cache hits of dense
	// evaluations).
	Iterations int64  `json:"iterations,omitempty"`
	Solver     string `json:"solver"`
	Cached     bool   `json:"cached"`
	// Shared reports a singleflight-follower response, as in
	// AnalyzeResponse (per-cell "shared" means ν-dedup, a different
	// notion).
	Shared bool `json:"shared,omitempty"`
	// Timings is the opt-in per-stage breakdown, attached per response
	// and never cached.
	Timings *TimingsDTO `json:"timings,omitempty"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, "/healthz", http.MethodGet) {
		return
	}
	s.writeJSON(w, r, "/healthz", http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, "/metrics", http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.write(w)
	s.metrics.request("/metrics", http.StatusOK)
}

// requireMethod enforces one HTTP method per endpoint: anything else is
// a 405 carrying the required Allow header (RFC 9110 §15.5.6).
func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, endpoint, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	s.writeError(w, r, endpoint, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
	return false
}

// readBody drains the request body under the server's size cap. An
// oversized body is the client's error in the 413 sense — distinguish
// http.MaxBytesReader's sentinel from plain read failures (400).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, endpoint string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, r, endpoint, code, fmt.Errorf("reading request: %w", err))
		return nil, false
	}
	return body, true
}

// requestSolver resolves the per-request solver overrides: zero values
// keep the server's configured backend, tolerance and iteration cap;
// anything else replaces that field after validation. Kind, tol and
// max_iter are all part of the canonical cache key (via the resulting
// SolverConfig), so overridden requests never share cached results with
// differently-configured ones.
func (s *Server) requestSolver(kind string, tol float64, maxIter int) (matrix.SolverConfig, error) {
	sc := s.solver
	kind = strings.ToLower(strings.TrimSpace(kind))
	if kind != "" {
		sc.Kind = kind
		if _, err := sc.Build(); err != nil {
			return sc, fmt.Errorf("solver %q: one of %s required", kind, strings.Join(matrix.SolverKinds(), ", "))
		}
	}
	if tol != 0 {
		if math.IsNaN(tol) || tol < minRequestTol || tol > 0.5 {
			return sc, fmt.Errorf("tol %g: must be in [%g, 0.5]", tol, minRequestTol)
		}
		sc.Tol = tol
	}
	if maxIter != 0 {
		if maxIter < 1 || maxIter > maxRequestIter {
			return sc, fmt.Errorf("max_iter %d: must be in [1, %d]", maxIter, maxRequestIter)
		}
		sc.MaxIter = maxIter
	}
	return sc, nil
}

// requestPool resolves the per-request worker override: 0 keeps the
// server's shared pool, anything else gets a pool of exactly that width
// (pools are a pair of ints — creating one per request is free). The
// evaluators are bit-identical for any pool width, so the override never
// enters a cache key.
func (s *Server) requestPool(workers int) (*engine.Pool, error) {
	if workers == 0 {
		return s.pool, nil
	}
	if workers < 0 || workers > maxRequestWorkers {
		return nil, fmt.Errorf("workers %d: must be in [1, %d]", workers, maxRequestWorkers)
	}
	return engine.New(workers), nil
}

// resolveFamily maps the wire model name to a registered family; the
// empty name selects the default (paper) family. Unknown names are a
// client error listing the registry, mirroring the solver override.
func resolveFamily(name string) (chainmodel.Family, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	fam, ok := chainmodel.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("model %q: one of %s required", name, strings.Join(chainmodel.Names(), ", "))
	}
	return fam, nil
}

// ParseIntsOrDefault parses an integer axis, with a default for empty
// expressions (nil default makes the axis required).
func ParseIntsOrDefault(expr string, def []int) ([]int, error) {
	if strings.TrimSpace(expr) == "" {
		if def != nil {
			return def, nil
		}
		return nil, fmt.Errorf("axis is required")
	}
	return chainmodel.ParseInts(expr)
}

// ParseFloatsOrDefault is the float counterpart of ParseIntsOrDefault.
func ParseFloatsOrDefault(expr string, def []float64) ([]float64, error) {
	if strings.TrimSpace(expr) == "" {
		if def != nil {
			return def, nil
		}
		return nil, fmt.Errorf("axis is required")
	}
	return chainmodel.ParseFloats(expr)
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, endpoint string, code int, v any) {
	encSpan, _ := obs.StartSpan(r.Context(), "encode")
	// Encode before committing the status: an encoding failure (e.g. a
	// non-encodable float) must surface as a 500, not a 200 with a
	// truncated body.
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("encoding response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
	encSpan.End()
	s.metrics.request(endpoint, code)
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, endpoint string, code int, err error) {
	s.writeJSON(w, r, endpoint, code, errorResponse{Error: err.Error()})
}
