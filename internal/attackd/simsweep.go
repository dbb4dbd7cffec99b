package attackd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"targetedattacks/internal/adversary"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/obs"
	"targetedattacks/internal/overlaynet"
	"targetedattacks/internal/stats"
	"targetedattacks/internal/sweep"
)

// Simulation serving defaults.
const (
	// DefaultMaxSimCells bounds the simulation grid size per request.
	DefaultMaxSimCells = 256
	// DefaultMaxSimReplicas bounds the Monte-Carlo replicas per cell.
	DefaultMaxSimReplicas = 256
	// DefaultMaxSimEventBudget bounds the request's total simulated churn
	// events (cells × replicas × events): the serving-time cost model of a
	// simulation sweep.
	DefaultMaxSimEventBudget = 16 << 20
	// DefaultMaxSimPeers bounds the population a single cell may bootstrap.
	DefaultMaxSimPeers = 2 << 20
)

// SimSweepRequest is the /v1/simsweep request body: a simulation grid
// over adversary strategies × µ × d × population sizes, estimated by
// Monte-Carlo replicas of the overlaynet system simulator. Axes use the
// sweep list/range syntax; strategies are a comma-separated list of
// "paper", "norule1", "passive". The serving path always uses
// hash-derived identifiers (FastIdentity): certificate generation has no
// place in a request/response cycle at 10^5+ peers.
type SimSweepRequest struct {
	Strategies string `json:"strategies,omitempty"` // default "paper"
	Mu         string `json:"mu"`
	D          string `json:"d"`
	Sizes      string `json:"sizes"`
	// C, Delta, K and Nu fix the remaining model parameters
	// (defaults 7, 7, 1, 0.1).
	C     int     `json:"c,omitempty"`
	Delta int     `json:"delta,omitempty"`
	K     int     `json:"k,omitempty"`
	Nu    float64 `json:"nu,omitempty"`
	// Events is the churn events per replica; Replicas the Monte-Carlo
	// runs per cell (default 1).
	Events   int `json:"events"`
	Replicas int `json:"replicas,omitempty"`
	// Seed roots the deterministic replica streams.
	Seed int64 `json:"seed,omitempty"`
	// Mode is "model" (default) or "realtime".
	Mode string `json:"mode,omitempty"`
	// Stationary enables the stationary-population controller.
	Stationary bool `json:"stationary,omitempty"`
	// TrackAbsorption/StopOnAbsorption record per-cluster absorption
	// trajectories (the analytic cross-validation statistics).
	TrackAbsorption  bool `json:"track_absorption,omitempty"`
	StopOnAbsorption bool `json:"stop_on_absorption,omitempty"`
	// LookupTrials measures end-of-run lookup availability per replica.
	LookupTrials int `json:"lookup_trials,omitempty"`
	// Workers overrides the evaluation pool width for this request, as in
	// CellRequest (results are replica-seeded, so they are identical for
	// any width and the override stays out of the cache key).
	Workers int `json:"workers,omitempty"`
	// Timings opts the response into a per-stage timing breakdown, as in
	// CellRequest. The breakdown is attached at delivery time, so cached
	// entries stay byte-identical.
	Timings bool `json:"timings,omitempty"`
}

// RunningDTO is the wire form of a stats.Running summary.
type RunningDTO struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	StdErr float64 `json:"stderr"`
}

// SimSummaryDTO is the wire form of a cell's replica aggregate.
type SimSummaryDTO struct {
	Replicas         int        `json:"replicas"`
	Events           int64      `json:"events"`
	FinalPeers       RunningDTO `json:"final_peers"`
	PollutedFraction RunningDTO `json:"polluted_fraction"`
	Availability     RunningDTO `json:"availability,omitempty"`
	SafeTime         RunningDTO `json:"safe_time,omitempty"`
	PollutedTime     RunningDTO `json:"polluted_time,omitempty"`
	SafeMerge        int64      `json:"safe_merge,omitempty"`
	SafeSplit        int64      `json:"safe_split,omitempty"`
	PollutedMerge    int64      `json:"polluted_merge,omitempty"`
	PollutedSplit    int64      `json:"polluted_split,omitempty"`
	EverPolluted     int64      `json:"ever_polluted,omitempty"`
	Censored         int64      `json:"censored,omitempty"`
	Splits           int64      `json:"splits"`
	Merges           int64      `json:"merges"`
	Joins            int64      `json:"joins"`
	Leaves           int64      `json:"leaves"`
	DiscardedJoins   int64      `json:"discarded_joins"`
	RefusedLeaves    int64      `json:"refused_leaves"`
	VoluntaryLeaves  int64      `json:"voluntary_leaves"`
	ExpiryLeaves     int64      `json:"expiry_leaves,omitempty"`
}

// SimCellDTO is one cell of a /v1/simsweep response.
type SimCellDTO struct {
	Index     int           `json:"index"`
	Strategy  string        `json:"strategy"`
	Mu        float64       `json:"mu"`
	D         float64       `json:"d"`
	Size      int           `json:"size"`
	LabelBits int           `json:"label_bits"`
	Summary   SimSummaryDTO `json:"summary"`
}

// SimSweepResponse is the /v1/simsweep response body. Every field is
// deterministic in the request (wall-clock is deliberately excluded so
// cached and fresh responses are byte-identical).
type SimSweepResponse struct {
	Cells    []SimCellDTO `json:"cells"`
	Events   int64        `json:"events"`
	Replicas int          `json:"replicas"`
	Cached   bool         `json:"cached"`
	// Shared reports a singleflight-follower response, as in
	// SweepResponse.
	Shared bool `json:"shared,omitempty"`
	// Timings is the opt-in per-stage breakdown, as in SweepResponse.
	Timings *TimingsDTO `json:"timings,omitempty"`
}

func (s *Server) handleSimSweep(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/simsweep"
	if !s.requireMethod(w, r, endpoint, http.MethodPost) {
		return
	}
	parseSpan, _ := obs.StartSpan(r.Context(), "parse")
	body, ok := s.readBody(w, r, endpoint)
	if !ok {
		parseSpan.End()
		return
	}
	ev, err := s.simSweepEvaluationFromBody(body)
	parseSpan.End()
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	s.serveEvaluation(w, r, endpoint, ev, wantsStream(r))
}

// simSweepEvaluationFromBody parses and bounds a /v1/simsweep body into
// a runnable evaluation.
func (s *Server) simSweepEvaluationFromBody(body []byte) (*evaluation, error) {
	var req SimSweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	plan, err := s.simPlanFromRequest(req)
	if err != nil {
		return nil, err
	}
	pool, err := s.requestPool(req.Workers)
	if err != nil {
		return nil, err
	}
	ev := s.simSweepEvaluation(plan, pool)
	ev.timings = req.Timings
	return ev, nil
}

// simSweepEvaluation prepares a simulation-grid evaluation, serving the
// buffered, streamed and async-job paths alike.
func (s *Server) simSweepEvaluation(plan sweep.SimPlan, pool *engine.Pool) *evaluation {
	ev := &evaluation{
		kind:  "simsweep",
		key:   canonicalSimPlanKey(plan),
		cells: plan.Size(),
	}
	ev.run = func(ctx context.Context, onCell func(any)) (any, error) {
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		s.metrics.simEvaluations.Add(1)
		var cb func(sweep.SimCellResult)
		if onCell != nil {
			cb = func(cr sweep.SimCellResult) { onCell(simCellDTO(cr)) }
		}
		rs, err := sweep.EvaluateSim(ctx, plan, sweep.SimOptions{Pool: pool, OnCell: cb})
		if err != nil {
			return nil, err
		}
		resp := SimSweepResponse{
			Cells:    make([]SimCellDTO, len(rs.Cells)),
			Replicas: plan.Replicas,
		}
		for i, cell := range rs.Cells {
			resp.Cells[i] = simCellDTO(cell)
			resp.Events += cell.Summary.Events
		}
		s.metrics.simEvents.Add(resp.Events)
		// A simulation entry retains a fixed-size summary per cell.
		s.cache.Put(ev.key, resp, int64(len(rs.Cells))*32)
		return resp, nil
	}
	ev.cellsOf = func(val any) []any {
		resp := val.(SimSweepResponse)
		out := make([]any, len(resp.Cells))
		for i, c := range resp.Cells {
			out[i] = c
		}
		return out
	}
	ev.finish = func(val any, cached, shared bool, tm *TimingsDTO) any {
		resp := val.(SimSweepResponse)
		resp.Cached, resp.Shared = cached, shared
		resp.Timings = tm
		return resp
	}
	ev.summarize = func(val any, cached, shared bool, tm *TimingsDTO) StreamSummary {
		resp := val.(SimSweepResponse)
		return StreamSummary{
			Cells:    len(resp.Cells),
			Replicas: resp.Replicas,
			Events:   resp.Events,
			Cached:   cached,
			Shared:   shared,
			Timings:  tm,
		}
	}
	return ev
}

// simPlanFromRequest parses and bounds a simulation-sweep request.
func (s *Server) simPlanFromRequest(req SimSweepRequest) (sweep.SimPlan, error) {
	var plan sweep.SimPlan
	strategies := req.Strategies
	if strings.TrimSpace(strategies) == "" {
		strategies = "paper"
	}
	for _, part := range strings.Split(strategies, ",") {
		st, err := adversary.ParseStrategy(strings.TrimSpace(part))
		if err != nil {
			return plan, fmt.Errorf("axis strategies: %w", err)
		}
		plan.Strategies = append(plan.Strategies, st)
	}
	var err error
	if plan.Mu, err = ParseFloatsOrDefault(req.Mu, nil); err != nil {
		return plan, fmt.Errorf("axis mu: %w", err)
	}
	if plan.D, err = ParseFloatsOrDefault(req.D, []float64{0.9}); err != nil {
		return plan, fmt.Errorf("axis d: %w", err)
	}
	if plan.Sizes, err = ParseIntsOrDefault(req.Sizes, nil); err != nil {
		return plan, fmt.Errorf("axis sizes: %w", err)
	}
	plan.Params = core.Params{C: req.C, Delta: req.Delta, K: req.K, Nu: req.Nu}
	if plan.Params.C == 0 {
		plan.Params.C = 7
	}
	if plan.Params.Delta == 0 {
		plan.Params.Delta = 7
	}
	if plan.Params.K == 0 {
		plan.Params.K = 1
	}
	if plan.Params.Nu == 0 {
		plan.Params.Nu = 0.1
	}
	plan.Events = req.Events
	plan.Replicas = req.Replicas
	if plan.Replicas == 0 {
		plan.Replicas = 1
	}
	plan.Seed = req.Seed
	switch strings.ToLower(strings.TrimSpace(req.Mode)) {
	case "", "model":
		plan.Mode = overlaynet.ModelFidelity
	case "realtime":
		plan.Mode = overlaynet.RealTime
	default:
		return plan, fmt.Errorf("unknown mode %q (want \"model\" or \"realtime\")", req.Mode)
	}
	plan.Stationary = req.Stationary
	plan.FastIdentity = true
	plan.TrackAbsorption = req.TrackAbsorption
	plan.StopOnAbsorption = req.StopOnAbsorption
	plan.LookupTrials = req.LookupTrials
	if n := plan.Size(); n > s.maxSimCells {
		return plan, fmt.Errorf("simulation grid has %d cells, server limit is %d", n, s.maxSimCells)
	}
	if plan.Replicas > DefaultMaxSimReplicas {
		return plan, fmt.Errorf("replicas %d exceeds the server limit %d", plan.Replicas, DefaultMaxSimReplicas)
	}
	for _, size := range plan.Sizes {
		if size > DefaultMaxSimPeers {
			return plan, fmt.Errorf("population %d exceeds the server limit %d", size, DefaultMaxSimPeers)
		}
	}
	if plan.Events > 0 && plan.Size() > 0 {
		budget := int64(plan.Size()) * int64(plan.Replicas) * int64(plan.Events)
		if budget > s.maxSimEventBudget {
			return plan, fmt.Errorf("request simulates %d total events (cells × replicas × events), server budget is %d",
				budget, s.maxSimEventBudget)
		}
	}
	if err := plan.Validate(); err != nil {
		return plan, err
	}
	return plan, nil
}

// canonicalSimPlanKey canonicalizes a simulation plan for caching: every
// field that enters the evaluation is keyed, floats in exact hex form.
func canonicalSimPlanKey(plan sweep.SimPlan) string {
	var b strings.Builder
	b.WriteString("simsweep|s=")
	for i, st := range plan.Strategies {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(st.String())
	}
	writeFloats := func(tag string, vs []float64) {
		b.WriteString("|" + tag + "=")
		for i, v := range vs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
		}
	}
	writeFloats("mu", plan.Mu)
	writeFloats("d", plan.D)
	b.WriteString("|size=")
	for i, v := range plan.Sizes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	fmt.Fprintf(&b, "|C=%d|D=%d|K=%d|nu=%s|ev=%d|rep=%d|seed=%d|mode=%d|stat=%t|abs=%t|stop=%t|lk=%d",
		plan.Params.C, plan.Params.Delta, plan.Params.K,
		strconv.FormatFloat(plan.Params.Nu, 'x', -1, 64),
		plan.Events, plan.Replicas, plan.Seed, int(plan.Mode),
		plan.Stationary, plan.TrackAbsorption, plan.StopOnAbsorption, plan.LookupTrials)
	return b.String()
}

func runningDTO(r stats.Running) RunningDTO {
	return RunningDTO{N: r.N(), Mean: r.Mean(), StdDev: r.StdDev(), StdErr: r.StdErr()}
}

func simCellDTO(cell sweep.SimCellResult) SimCellDTO {
	sum := cell.Summary
	return SimCellDTO{
		Index:     cell.Cell.Index,
		Strategy:  cell.Cell.Strategy.String(),
		Mu:        cell.Cell.Mu,
		D:         cell.Cell.D,
		Size:      cell.Cell.Size,
		LabelBits: cell.Cell.LabelBits,
		Summary: SimSummaryDTO{
			Replicas:         sum.Replicas,
			Events:           sum.Events,
			FinalPeers:       runningDTO(sum.FinalPeers),
			PollutedFraction: runningDTO(sum.PollutedFraction),
			Availability:     runningDTO(sum.Availability),
			SafeTime:         runningDTO(sum.SafeTime),
			PollutedTime:     runningDTO(sum.PollutedTime),
			SafeMerge:        sum.SafeMerge,
			SafeSplit:        sum.SafeSplit,
			PollutedMerge:    sum.PollutedMerge,
			PollutedSplit:    sum.PollutedSplit,
			EverPolluted:     sum.EverPolluted,
			Censored:         sum.Censored,
			Splits:           sum.Splits,
			Merges:           sum.Merges,
			Joins:            sum.Joins,
			Leaves:           sum.Leaves,
			DiscardedJoins:   sum.DiscardedJoins,
			RefusedLeaves:    sum.RefusedLeaves,
			VoluntaryLeaves:  sum.VoluntaryLeaves,
			ExpiryLeaves:     sum.ExpiryLeaves,
		},
	}
}
