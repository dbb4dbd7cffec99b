package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"targetedattacks/internal/adversary"
	"targetedattacks/internal/attackd"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/overlaynet"
	"targetedattacks/internal/stats"
	"targetedattacks/internal/sweep"
)

// This file checks attackd replies against direct library calls. The
// server's numbers are deterministic functions of the request, so a
// reply must equal the library's result bit for bit (JSON round-trips
// float64 exactly).

// requestFields are the shared fields of an analytic request body.
type requestFields struct {
	Model        string  `json:"model"`
	Distribution string  `json:"distribution"`
	Sojourns     int     `json:"sojourns"`
	Solver       string  `json:"solver"`
	Tol          float64 `json:"tol"`
	MaxIter      int     `json:"max_iter"`
}

func (f requestFields) family() (chainmodel.Family, error) {
	name := f.Model
	if name == "" {
		name = chainmodel.DefaultFamily
	}
	fam, ok := chainmodel.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return fam, nil
}

// solver mirrors attackd's per-request override of its bicgstab default.
func (f requestFields) solver() matrix.SolverConfig {
	kind := f.Solver
	if kind == "" {
		kind = "bicgstab"
	}
	return matrix.SolverConfig{Kind: kind, Tol: f.Tol, MaxIter: f.MaxIter}
}

func (f requestFields) sojourns() int { return max(f.Sojourns, 1) }

// wireAnalysis decodes either family's analysis DTO: the paper model's
// historical field names or the model-free ones.
type wireAnalysis struct {
	ExpectedSafeTime     float64            `json:"expected_safe_time"`
	ExpectedPollutedTime float64            `json:"expected_polluted_time"`
	SafeSojourns         []float64          `json:"safe_sojourns"`
	PollutedSojourns     []float64          `json:"polluted_sojourns"`
	PollutionProbability float64            `json:"pollution_probability"`
	TimeInA              float64            `json:"time_in_a"`
	TimeInB              float64            `json:"time_in_b"`
	SojournsA            []float64          `json:"sojourns_a"`
	SojournsB            []float64          `json:"sojourns_b"`
	HitProbability       float64            `json:"hit_probability"`
	Absorption           map[string]float64 `json:"absorption"`
}

func (w wireAnalysis) analysis(paper bool) *chainmodel.Analysis {
	if paper {
		return &chainmodel.Analysis{
			TimeInA: w.ExpectedSafeTime, TimeInB: w.ExpectedPollutedTime,
			SojournsA: w.SafeSojourns, SojournsB: w.PollutedSojourns,
			Absorption: w.Absorption, HitProbability: w.PollutionProbability,
		}
	}
	return &chainmodel.Analysis{
		TimeInA: w.TimeInA, TimeInB: w.TimeInB,
		SojournsA: w.SojournsA, SojournsB: w.SojournsB,
		Absorption: w.Absorption, HitProbability: w.HitProbability,
	}
}

// verifyReply checks one kept reply of req against the library.
func verifyReply(ctx context.Context, s *server, req request, rp reply) error {
	switch req.kind {
	case "analyze":
		return verifyAnalyze(req, rp.body)
	case "sweep", "job":
		return verifySweep(ctx, req, rp.body)
	case "stream":
		return verifyStream(ctx, s, req, rp.body)
	case "simsweep":
		return verifySimSweep(ctx, req, rp.body)
	}
	return fmt.Errorf("no verifier for kind %q", req.kind)
}

func verifyAnalyze(req request, body []byte) error {
	var f requestFields
	if err := json.Unmarshal([]byte(req.body), &f); err != nil {
		return err
	}
	fam, err := f.family()
	if err != nil {
		return err
	}
	cell, err := fam.ParseCell(json.RawMessage(req.body))
	if err != nil {
		return err
	}
	dist, err := fam.ParseDist(f.Distribution)
	if err != nil {
		return err
	}
	inst, err := fam.Build(nil, cell, f.solver(), nil)
	if err != nil {
		return err
	}
	want, err := chainmodel.Analyze(inst, dist, f.sojourns())
	if err != nil {
		return err
	}
	var got struct {
		Analysis wireAnalysis `json:"analysis"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if d := analysisDiff(got.Analysis.analysis(fam.Name() == chainmodel.DefaultFamily), want, 0); d != "" {
		return fmt.Errorf("analyze %s: %s", req.body, d)
	}
	return nil
}

// libraryGrid evaluates a sweep body through sweep.EvaluateModel with
// attackd's settings (warm-start lanes, per-request backend).
func libraryGrid(ctx context.Context, req request) (chainmodel.Family, *sweep.ModelResultSet, error) {
	var f requestFields
	if err := json.Unmarshal([]byte(req.body), &f); err != nil {
		return nil, nil, err
	}
	fam, err := f.family()
	if err != nil {
		return nil, nil, err
	}
	cells, err := fam.ParsePlan(json.RawMessage(req.body))
	if err != nil {
		return nil, nil, err
	}
	rs, err := sweep.EvaluateModel(ctx,
		sweep.ModelPlan{Family: fam, Cells: cells, Dist: f.Distribution, Sojourns: f.sojourns()},
		sweep.ModelOptions{Pool: engine.New(1), Solver: f.solver(), WarmStart: true})
	return fam, rs, err
}

func verifySweep(ctx context.Context, req request, body []byte) error {
	fam, rs, err := libraryGrid(ctx, req)
	if err != nil {
		return err
	}
	var got struct {
		Cells []struct {
			Index    int          `json:"index"`
			Analysis wireAnalysis `json:"analysis"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Cells) != len(rs.Cells) {
		return fmt.Errorf("sweep %s: %d cells, library has %d", req.body, len(got.Cells), len(rs.Cells))
	}
	paper := fam.Name() == chainmodel.DefaultFamily
	for i, c := range got.Cells {
		if d := analysisDiff(c.Analysis.analysis(paper), rs.Cells[i].Analysis, 0); d != "" {
			return fmt.Errorf("sweep %s cell %d: %s", req.body, i, d)
		}
	}
	return nil
}

// verifyStream checks that every streamed cell line is byte-equal to the
// same cell of the buffered reply, then checks the buffered reply
// against the library.
func verifyStream(ctx context.Context, s *server, req request, lines []byte) error {
	buf, err := s.do(ctx, request{kind: "sweep", body: req.body, model: req.model}, true)
	if err != nil {
		return fmt.Errorf("buffered replay: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(buf.body, &env); err != nil {
		return err
	}
	seen := 0
	for _, line := range bytes.Split(lines, []byte("\n")) {
		var head struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return err
		}
		if head.Index < 0 || head.Index >= len(env.Cells) || !bytes.Equal(line, env.Cells[head.Index]) {
			return fmt.Errorf("stream %s: cell %d is not byte-equal to the buffered cell", req.body, head.Index)
		}
		seen++
	}
	if seen != len(env.Cells) {
		return fmt.Errorf("stream %s: %d cell lines, buffered reply has %d", req.body, seen, len(env.Cells))
	}
	return verifySweep(ctx, request{kind: "sweep", body: req.body}, buf.body)
}

// simRequest is the subset of attackd.SimSweepRequest the benchmark
// generates: one strategy, µ, d and size per request.
type simRequest struct {
	Strategies string `json:"strategies"`
	Mu         string `json:"mu"`
	D          string `json:"d"`
	Sizes      string `json:"sizes"`
	Events     int    `json:"events"`
	Replicas   int    `json:"replicas"`
	Seed       int64  `json:"seed"`
}

// simPlan rebuilds the plan attackd runs for a generated simsweep body:
// paper defaults C=∆=7, k=1, ν=0.1, model fidelity, fast identities.
func simPlan(body string) (sweep.SimPlan, error) {
	var r simRequest
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		return sweep.SimPlan{}, err
	}
	strategy := r.Strategies
	if strategy == "" {
		strategy = "paper"
	}
	st, err := adversary.ParseStrategy(strategy)
	if err != nil {
		return sweep.SimPlan{}, err
	}
	mu, err := attackd.ParseFloatsOrDefault(r.Mu, nil)
	if err != nil {
		return sweep.SimPlan{}, err
	}
	d, err := attackd.ParseFloatsOrDefault(r.D, nil)
	if err != nil {
		return sweep.SimPlan{}, err
	}
	sizes, err := attackd.ParseIntsOrDefault(r.Sizes, nil)
	if err != nil {
		return sweep.SimPlan{}, err
	}
	return sweep.SimPlan{
		Strategies:   []adversary.Strategy{st},
		Mu:           mu,
		D:            d,
		Sizes:        sizes,
		Params:       core.Params{C: 7, Delta: 7, K: 1, Nu: 0.1},
		Events:       r.Events,
		Replicas:     max(r.Replicas, 1),
		Seed:         r.Seed,
		Mode:         overlaynet.ModelFidelity,
		FastIdentity: true,
	}, nil
}

func runningDTO(r stats.Running) attackd.RunningDTO {
	return attackd.RunningDTO{N: r.N(), Mean: r.Mean(), StdDev: r.StdDev(), StdErr: r.StdErr()}
}

// simCellJSON renders a simulated cell exactly as attackd's wire form.
func simCellJSON(c sweep.SimCellResult) ([]byte, error) {
	s := c.Summary
	return json.Marshal(attackd.SimCellDTO{
		Index: c.Cell.Index, Strategy: c.Cell.Strategy.String(),
		Mu: c.Cell.Mu, D: c.Cell.D, Size: c.Cell.Size, LabelBits: c.Cell.LabelBits,
		Summary: attackd.SimSummaryDTO{
			Replicas: s.Replicas, Events: s.Events,
			FinalPeers: runningDTO(s.FinalPeers), PollutedFraction: runningDTO(s.PollutedFraction),
			Availability: runningDTO(s.Availability), SafeTime: runningDTO(s.SafeTime),
			PollutedTime: runningDTO(s.PollutedTime),
			SafeMerge:    s.SafeMerge, SafeSplit: s.SafeSplit,
			PollutedMerge: s.PollutedMerge, PollutedSplit: s.PollutedSplit,
			EverPolluted: s.EverPolluted, Censored: s.Censored,
			Splits: s.Splits, Merges: s.Merges, Joins: s.Joins, Leaves: s.Leaves,
			DiscardedJoins: s.DiscardedJoins, RefusedLeaves: s.RefusedLeaves,
			VoluntaryLeaves: s.VoluntaryLeaves, ExpiryLeaves: s.ExpiryLeaves,
		},
	})
}

func verifySimSweep(ctx context.Context, req request, body []byte) error {
	plan, err := simPlan(req.body)
	if err != nil {
		return err
	}
	rs, err := sweep.EvaluateSim(ctx, plan, sweep.SimOptions{Pool: engine.New(1)})
	if err != nil {
		return err
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	if len(env.Cells) != len(rs.Cells) {
		return fmt.Errorf("simsweep %s: %d cells, library has %d", req.body, len(env.Cells), len(rs.Cells))
	}
	for i, c := range rs.Cells {
		want, err := simCellJSON(c)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, env.Cells[i]) {
			return fmt.Errorf("simsweep %s cell %d differs from the library:\n got %s\nwant %s",
				req.body, i, env.Cells[i], want)
		}
	}
	return nil
}

// kindOf labels a request for per-kind tallies.
func kindOf(req request) string {
	if req.body == coldReference {
		return req.kind + ":c75"
	}
	if req.model != "" && req.model != chainmodel.DefaultFamily {
		return req.kind + ":" + strings.TrimSuffix(req.model, "-compromise")
	}
	return req.kind
}

// cellSize reads a request's C, given as a number (analyze) or a
// one-value axis string (sweep).
func cellSize(v any) int {
	switch c := v.(type) {
	case float64:
		return int(c)
	case string:
		var n int
		if _, err := fmt.Sscanf(c, "%d", &n); err == nil {
			return n
		}
	}
	return 1 << 30
}

// verifyC75 checks the C=∆=75 auto job's single cell against the
// solve-offline reference at refTol.
func verifyC75(body []byte, refs references) error {
	var got struct {
		Cells []struct {
			Analysis wireAnalysis `json:"analysis"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want := refs["c75_auto"]
	if len(got.Cells) != 1 || len(want) != 1 {
		return fmt.Errorf("c75 job: %d cells, want 1", len(got.Cells))
	}
	if d := analysisDiff(got.Cells[0].Analysis.analysis(true), want[0], refTol); d != "" {
		return fmt.Errorf("c75 job: %s", d)
	}
	return nil
}
