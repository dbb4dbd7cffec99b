package attackd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"

	"targetedattacks/internal/matrix"
	"targetedattacks/internal/obs"
)

// This file is the streaming half of the serving layer. Every
// evaluating endpoint (/v1/analyze, /v1/sweep for any model family,
// /v1/simsweep) parses its request into one *evaluation — a prepared,
// validated, cache-keyed unit of work — and hands it to
// serveEvaluation, which runs it buffered (one JSON body) or, for the
// grid endpoints, streamed (NDJSON, one line per cell as the
// evaluator's OnCell hook fires). The async job API reuses
// the same evaluations, so a job's cells/progress/result are identical
// to what the synchronous endpoints would have produced.
//
// Stream protocol: `Accept: application/x-ndjson` or `?stream=1`
// selects streaming. Each line is either one cell (exactly the object
// that appears in the buffered response's "cells" array — byte
// identical), the terminating {"summary": {...}} line, or an
// {"error": "..."} line if the evaluation failed after the stream
// committed its 200. Clients tell the envelopes from cells by shape:
// both envelopes are single-key objects, while every cell line carries
// multiple fields (simulation cells even have their own "summary"
// member, nested beside "index"). Lines are flushed as they are
// written, so the first cell arrives while the rest of the grid is
// still evaluating.

// evaluation is one parsed request, ready to run. The two builders
// (analyticEvaluation for every model family, simSweepEvaluation)
// close over their typed plans and responses; everything downstream —
// buffered serving, streaming, async jobs — goes through this shape.
type evaluation struct {
	// kind is the job-API name of the evaluation ("sweep" or
	// "simsweep"); model the family name ("" for simulation sweeps).
	kind  string
	model string
	// key is the canonical cache/singleflight key.
	key string
	// cells is the grid size (the job API's progress denominator).
	cells int
	// solver is the wire name of the linear-solver backend ("" for
	// simulation sweeps).
	solver string
	// timings reports that the request opted into a per-stage timing
	// breakdown; the breakdown itself is computed at delivery time from
	// the request's trace and attached to a response copy, so cached
	// values stay timing-free (and byte-identical across hits).
	timings bool
	// run computes the response (flags unset) and stores it in the LRU.
	// When onCell is non-nil it receives each finished cell's DTO in
	// completion order, from evaluator goroutines.
	run func(ctx context.Context, onCell func(any)) (any, error)
	// cellsOf lists a finished response's cell DTOs in plan order, for
	// replaying a cached or singleflight-shared result onto a stream
	// or a job's streamed result (nil for /v1/analyze, which never
	// streams and cannot be submitted as a job).
	cellsOf func(val any) []any
	// finish stamps the response's Cached/Shared flags (and the opt-in
	// timings, which may be nil) for buffered delivery.
	finish func(val any, cached, shared bool, tm *TimingsDTO) any
	// summarize renders the stream's terminating summary line (nil for
	// /v1/analyze).
	summarize func(val any, cached, shared bool, tm *TimingsDTO) StreamSummary
}

// StreamSummary is the final line of an NDJSON stream, wrapped as
// {"summary": {...}} so clients can tell it from a cell line. It carries
// the buffered response's envelope fields.
type StreamSummary struct {
	// Cells counts the cell lines that precede the summary.
	Cells int `json:"cells"`
	// Groups/Evaluated/Iterations/Solver mirror SweepResponse (analytic
	// sweeps only).
	Groups     int    `json:"groups,omitempty"`
	Evaluated  int    `json:"evaluated,omitempty"`
	Iterations int64  `json:"iterations,omitempty"`
	Solver     string `json:"solver,omitempty"`
	// Model names the family, except for the paper model, whose
	// responses carry no top-level model (see wireCell).
	Model string `json:"model,omitempty"`
	// Replicas/Events mirror SimSweepResponse (simulation sweeps only).
	Replicas int   `json:"replicas,omitempty"`
	Events   int64 `json:"events,omitempty"`
	// Cached and Shared report where the cells came from, as in the
	// buffered responses.
	Cached bool `json:"cached"`
	Shared bool `json:"shared,omitempty"`
	// Timings is the opt-in per-stage breakdown, as in the buffered
	// responses.
	Timings *TimingsDTO `json:"timings,omitempty"`
}

// streamEnvelope wraps the summary line.
type streamEnvelope struct {
	Summary StreamSummary `json:"summary"`
}

// wantsStream reports whether the request asked for NDJSON streaming.
func wantsStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// ndjsonWriter serializes concurrent cell callbacks onto one response
// stream, flushing every line so cells reach the client as they are
// computed. Write errors (client gone) are swallowed: the evaluation
// must finish anyway to feed the cache and any singleflight followers.
type ndjsonWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	enc     *json.Encoder
}

// startStream commits the NDJSON response: headers, status 200 and the
// request metric. From here on errors can only be reported in-band.
func (s *Server) startStream(w http.ResponseWriter, endpoint string) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // keep reverse proxies from de-streaming us
	w.WriteHeader(http.StatusOK)
	s.metrics.request(endpoint, http.StatusOK)
	nw := &ndjsonWriter{w: w, enc: json.NewEncoder(w)}
	nw.flusher, _ = w.(http.Flusher)
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
	return nw
}

// writeLine emits one NDJSON line (Encode appends the newline) and
// flushes it.
func (nw *ndjsonWriter) writeLine(v any) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if err := nw.enc.Encode(v); err != nil {
		return
	}
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
}

// serveEvaluation runs one prepared evaluation and delivers it buffered
// or streamed. Identical concurrent requests share one computation via
// singleflight whatever their delivery mode: a streaming leader emits
// cells live; a streaming follower replays the leader's finished cells
// in plan order; buffered requests get the whole response either way.
// Completed evaluations populate the LRU (inside ev.run), so a stream
// warms the cache for later buffered requests and vice versa.
func (s *Server) serveEvaluation(w http.ResponseWriter, r *http.Request, endpoint string, ev *evaluation, stream bool) {
	tr := obs.TraceFromContext(r.Context())
	// timings snapshots the request's trace at delivery time when the
	// request opted in; nil otherwise, which every consumer tolerates.
	timings := func() *TimingsDTO {
		if !ev.timings {
			return nil
		}
		return timingsFromTrace(tr)
	}
	cacheSpan, _ := obs.StartSpan(r.Context(), "cache")
	cached, hit := s.cache.Get(ev.key)
	cacheSpan.End()
	if hit {
		s.metrics.cacheHits.Add(1)
		if stream {
			sw := s.startStream(w, endpoint)
			for _, line := range ev.cellsOf(cached) {
				s.metrics.streamCells.Add(1)
				sw.writeLine(line)
			}
			sw.writeLine(streamEnvelope{Summary: ev.summarize(cached, true, false, timings())})
			return
		}
		s.writeJSON(w, r, endpoint, http.StatusOK, ev.finish(cached, true, false, timings()))
		return
	}
	// Evaluations run on a detached context: singleflight followers and
	// the LRU cache consume the shared result, so it must not die with
	// the leader request's connection. Detaching keeps the leader's
	// trace, so its spans (plan, build, solve, ...) still land in the
	// request's breakdown; a follower's trace only ever carries its own
	// parse/cache stages.
	runCtx := obs.Detach(r.Context())
	if !stream {
		val, err, shared := s.flights.Do(ev.key, func() (any, error) {
			// Only the leader — the request that actually evaluates —
			// counts a cache miss; followers surface in
			// attackd_singleflight_shared_total instead.
			s.metrics.cacheMisses.Add(1)
			return ev.run(runCtx, nil)
		})
		if shared {
			s.metrics.singleflightShared.Add(1)
		}
		if err != nil {
			// A block too large for the dense backend is a request the
			// server refuses, not a server fault.
			code := http.StatusInternalServerError
			if errors.Is(err, matrix.ErrTooLarge) {
				code = http.StatusUnprocessableEntity
			}
			s.writeError(w, r, endpoint, code, err)
			return
		}
		s.writeJSON(w, r, endpoint, http.StatusOK, ev.finish(val, false, shared, timings()))
		return
	}
	// Streaming: the 200 and headers commit before evaluation so the
	// first cell can flush the moment it lands.
	sw := s.startStream(w, endpoint)
	val, err, shared := s.flights.Do(ev.key, func() (any, error) {
		s.metrics.cacheMisses.Add(1)
		return ev.run(runCtx, func(line any) {
			s.metrics.streamCells.Add(1)
			sw.writeLine(line)
		})
	})
	if shared {
		s.metrics.singleflightShared.Add(1)
	}
	if err != nil {
		// The status is already committed; report in-band and end the
		// stream without a summary line.
		sw.writeLine(errorResponse{Error: err.Error()})
		return
	}
	if shared {
		// A concurrent identical evaluation was already in flight; its
		// cells went to the leader's stream, so replay the finished set
		// here in plan order.
		for _, line := range ev.cellsOf(val) {
			s.metrics.streamCells.Add(1)
			sw.writeLine(line)
		}
	}
	sw.writeLine(streamEnvelope{Summary: ev.summarize(val, false, shared, timings())})
}
