package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"targetedattacks/internal/attackd"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/obs"
)

// This file runs an in-process attackd behind a loopback listener and
// speaks its HTTP API the way a client would.

// server is one attackd instance under test.
type server struct {
	srv    *attackd.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

// maxStates is the per-cell state limit the benchmark's server runs with.
const maxStates = 250_000

// startServer starts attackd on a loopback port with the server's
// default backend and a pool of workers, and a client limited to conns
// connections.
func startServer(workers, conns int) (*server, error) {
	srv, err := attackd.New(attackd.Config{
		Pool: engine.New(workers),
		// Room for serve-cold's C=∆=75 cell (222376 states), above the
		// 200000-state default.
		MaxStates: maxStates,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the job store, shuts the listener down and waits for the
// serve goroutine to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	jobErr := s.srv.DrainJobs(ctx)
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.done; serveErr != nil && serveErr != http.ErrServerClosed && err == nil {
		err = serveErr
	}
	s.client.CloseIdleConnections()
	if err == nil {
		err = jobErr
	}
	return err
}

// request is one generated API call.
type request struct {
	// kind is analyze, sweep, stream, simsweep or job.
	kind string
	body string
	// model is the family name ("" for simulation sweeps).
	model string
	// timings asks the server for its per-stage breakdown.
	timings bool
	// cells is the analytic cell count the reply is known to carry (0:
	// unknown). A known count lets do skip decoding the reply.
	cells int
}

// reply is what the client observed for one request.
type reply struct {
	status int
	// body is the buffered reply, or for a stream every line joined
	// with newlines; kept only when the request is sampled for
	// verification.
	body []byte
	// cells counts analytic cells delivered.
	cells int
	// firstCell is the time from send to the first NDJSON cell line.
	firstCell time.Duration
	cached    bool
	stages    map[string]float64
	polls     int
}

// envelope holds the reply fields every analytic response shares.
type envelope struct {
	Cells   []json.RawMessage `json:"cells"`
	Cached  bool              `json:"cached"`
	Timings *struct {
		StagesMS map[string]float64 `json:"stages_ms"`
	} `json:"timings"`
}

// withTimings returns body with "timings": true added.
func withTimings(body string) string {
	return strings.TrimSuffix(strings.TrimSpace(body), "}") + `,"timings":true}`
}

// do sends req and reads the whole reply. keep retains the reply bytes.
func (s *server) do(ctx context.Context, req request, keep bool) (reply, error) {
	body := req.body
	if req.timings {
		body = withTimings(body)
	}
	if !keep && !req.timings && req.cells > 0 {
		return s.light(ctx, req, body)
	}
	switch req.kind {
	case "analyze":
		return s.post(ctx, "/v1/analyze", body, keep, 1)
	case "sweep":
		return s.post(ctx, "/v1/sweep", body, keep, -1)
	case "simsweep":
		return s.post(ctx, "/v1/simsweep", body, keep, 0)
	case "stream":
		return s.stream(ctx, "/v1/sweep?stream=1", body, keep)
	case "job":
		return s.job(ctx, body, keep)
	}
	return reply{}, fmt.Errorf("unknown request kind %q", req.kind)
}

// lightPaths maps the request kinds light serves to their endpoints.
var lightPaths = map[string]string{
	"analyze":  "/v1/analyze",
	"sweep":    "/v1/sweep",
	"simsweep": "/v1/simsweep",
	"stream":   "/v1/sweep?stream=1",
}

// readers recycles the response readers of light.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 16<<10) }}

// light sends a request whose reply shape is known and checks it without
// decoding JSON, so the load generator spends its CPU on sending rather
// than parsing: the status must be 200, a stream must end with its
// summary line after the known number of cell lines, and cached is read
// off the envelope's "cached":true.
func (s *server) light(ctx context.Context, req request, body string) (reply, error) {
	path := lightPaths[req.kind]
	if path == "" {
		return reply{}, fmt.Errorf("no light path for kind %q", req.kind)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := s.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	rd := readers.Get().(*bufio.Reader)
	rd.Reset(resp.Body)
	defer readers.Put(rd)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(rd)
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	summarized := false
	for {
		line, err := rd.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A line longer than the buffer: consume the rest of it.
			for err == bufio.ErrBufferFull {
				_, err = rd.ReadSlice('\n')
			}
		}
		if len(line) > 0 {
			switch {
			case req.kind != "stream":
				r.cached = r.cached || bytes.Contains(line, []byte(`"cached":true`))
			case bytes.HasPrefix(line, []byte(`{"summary"`)):
				summarized = true
				r.cached = bytes.Contains(line, []byte(`"cached":true`))
			case bytes.HasPrefix(line, []byte(`{"error"`)):
				return r, fmt.Errorf("stream error: %s", bytes.TrimSpace(line))
			default:
				if r.cells == 0 {
					r.firstCell = time.Since(sent)
				}
				r.cells++
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return r, err
		}
	}
	if req.kind != "stream" {
		r.cells = req.cells
		if req.kind == "simsweep" {
			r.cells = 0
		}
		return r, nil
	}
	if !summarized || r.cells != req.cells {
		return r, fmt.Errorf("stream %s: %d cell lines (want %d), summary %v", req.body, r.cells, req.cells, summarized)
	}
	return r, nil
}

// post sends a buffered request; cells is the analytic cell count of
// the reply (-1: count the "cells" array).
func (s *server) post(ctx context.Context, path, body string, keep bool, cells int) (reply, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{status: resp.StatusCode}, err
	}
	return decodeReply(resp.StatusCode, b, keep, cells)
}

func decodeReply(status int, b []byte, keep bool, cells int) (reply, error) {
	r := reply{status: status}
	if status != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(b))
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return r, fmt.Errorf("decoding reply: %w", err)
	}
	r.cached = env.Cached
	if env.Timings != nil {
		r.stages = env.Timings.StagesMS
	}
	r.cells = cells
	if cells < 0 {
		r.cells = len(env.Cells)
	}
	if keep {
		r.body = b
	}
	return r, nil
}

// stream sends an NDJSON request and reads it line by line.
func (s *server) stream(ctx context.Context, path, body string, keep bool) (reply, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := s.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	var kept [][]byte
	summarized := false
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var head struct {
				Summary *struct {
					Cached  bool `json:"cached"`
					Timings *struct {
						StagesMS map[string]float64 `json:"stages_ms"`
					} `json:"timings"`
				} `json:"summary"`
				Error string `json:"error"`
			}
			if jerr := json.Unmarshal(line, &head); jerr != nil {
				return r, fmt.Errorf("decoding stream line: %w", jerr)
			}
			switch {
			case head.Error != "":
				return r, fmt.Errorf("stream error: %s", head.Error)
			case head.Summary != nil:
				summarized = true
				r.cached = head.Summary.Cached
				if head.Summary.Timings != nil {
					r.stages = head.Summary.Timings.StagesMS
				}
			default:
				if r.cells == 0 {
					r.firstCell = time.Since(sent)
				}
				r.cells++
				if keep {
					kept = append(kept, bytes.TrimRight(line, "\n"))
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return r, err
		}
	}
	if !summarized {
		return r, fmt.Errorf("stream ended without a summary line")
	}
	if keep {
		r.body = bytes.Join(kept, []byte("\n"))
	}
	return r, nil
}

// jobPollInterval is how often a job's status is polled.
const jobPollInterval = 10 * time.Millisecond

// job submits body to the async API, polls it to completion and fetches
// the buffered result.
func (s *server) job(ctx context.Context, body string, keep bool) (reply, error) {
	sub, err := s.rawPost(ctx, "/v1/jobs", body)
	if err != nil {
		return reply{}, err
	}
	var js attackd.JobSubmitResponse
	if err := json.Unmarshal(sub, &js); err != nil {
		return reply{}, fmt.Errorf("decoding job submit: %w", err)
	}
	polls := 0
	for {
		polls++
		b, status, err := s.get(ctx, "/v1/jobs/"+js.ID)
		if err != nil {
			return reply{status: status, polls: polls}, err
		}
		var st attackd.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			return reply{polls: polls}, fmt.Errorf("decoding job status: %w", err)
		}
		if st.State == attackd.JobDone {
			break
		}
		if st.State != attackd.JobRunning {
			return reply{polls: polls}, fmt.Errorf("job %s ended %s: %s", js.ID, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return reply{polls: polls}, ctx.Err()
		case <-time.After(jobPollInterval):
		}
	}
	b, status, err := s.get(ctx, "/v1/jobs/"+js.ID+"/result")
	if err != nil {
		return reply{status: status, polls: polls}, err
	}
	r, err := decodeReply(status, b, keep, -1)
	r.polls = polls
	return r, err
}

func (s *server) rawPost(ctx context.Context, path, body string) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (s *server) get(ctx context.Context, path string) ([]byte, int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, resp.StatusCode, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.StatusCode, nil
}

// scrape reads /metrics as a flat map from "name{k=v,...}" to value.
func (s *server) scrape(ctx context.Context) (map[string]float64, error) {
	b, _, err := s.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseProm(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, p := range f.Points {
			keys := make([]string, 0, len(p.Labels))
			for k, v := range p.Labels {
				keys = append(keys, k+"="+v)
			}
			sort.Strings(keys)
			out[p.Name+"{"+strings.Join(keys, ",")+"}"] = p.Value
		}
	}
	return out, nil
}

// delta returns after − before for one scraped series.
func delta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}

// stageAcc sums the per-stage breakdowns of timed replies.
type stageAcc struct {
	mu      sync.Mutex
	replies int
	ms      map[string]float64
}

func (a *stageAcc) add(stages map[string]float64) {
	if stages == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ms == nil {
		a.ms = map[string]float64{}
	}
	a.replies++
	for k, v := range stages {
		a.ms[k] += v
	}
}

// buildStages are the stage names attackd reports for work done before
// the solve: state space, kernel and matrix build, sweep planning.
var buildStages = []string{"space", "kernel", "matrix", "plan", "build"}

// addAttackdStages reports the mean per-reply stage times from the
// timings breakdowns, and encode from the server's stage histogram.
func addAttackdStages(rep *report, acc *stageAcc, before, after map[string]float64) {
	per := func(v float64) float64 {
		if acc.replies == 0 {
			return 0
		}
		return v / float64(acc.replies)
	}
	var build float64
	for _, st := range buildStages {
		build += acc.ms[st]
	}
	rep.layers["attackd.stage.parse_ms"] = metric{per(acc.ms["parse"]), "ms"}
	rep.layers["attackd.stage.cache_ms"] = metric{per(acc.ms["cache"]), "ms"}
	rep.layers["attackd.stage.build_ms"] = metric{per(build), "ms"}
	rep.layers["attackd.stage.solve_ms"] = metric{per(acc.ms["solve"]), "ms"}
	encSum := delta(before, after, "attackd_stage_duration_seconds_sum{stage=encode}")
	encN := delta(before, after, "attackd_stage_duration_seconds_count{stage=encode}")
	enc := 0.0
	if encN > 0 {
		enc = 1000 * encSum / encN
	}
	rep.layers["attackd.stage.encode_ms"] = metric{enc, "ms"}
	hits := delta(before, after, "attackd_cache_hits_total{}")
	misses := delta(before, after, "attackd_cache_misses_total{}")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rep.layers["attackd.hit_ratio"] = metric{ratio, "fraction"}
	evals := delta(before, after, "attackd_evaluations_total{}") + delta(before, after, "attackd_sim_evaluations_total{}")
	shared := delta(before, after, "attackd_singleflight_shared_total{}")
	sr := 0.0
	if evals > 0 {
		sr = shared / evals
	}
	rep.layers["attackd.shared_ratio"] = metric{sr, "ratio"}
}
