package attackd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/obs"
	"targetedattacks/internal/sweep"
)

// This file is the analytic serving path of every registered model
// family: /v1/analyze, /v1/sweep and sweep jobs. The selected family
// parses its own cell or grid out of the raw request body (the shared
// fields of CellRequest stay the handler's) and sizes every cell before
// anything is built. The amortized evaluator then runs the cells; an
// analysis is a one-cell grid, so attackd enters the analytic engine
// through sweep.EvaluateModel alone. Responses are rendered in the
// family's wire vocabulary by wireCell.

// ModelAnalysisDTO is the wire form of a chainmodel.Analysis: subset A
// is the family's "good" transient set, subset B its "bad" one.
type ModelAnalysisDTO struct {
	TimeInA        float64            `json:"time_in_a"`
	TimeInB        float64            `json:"time_in_b"`
	SojournsA      []float64          `json:"sojourns_a"`
	SojournsB      []float64          `json:"sojourns_b"`
	Absorption     map[string]float64 `json:"absorption"`
	HitProbability float64            `json:"hit_probability"`
}

// paperParamsDTO is a paper-model cell in the paper wire vocabulary:
// core.Params plus the analysis options.
type paperParamsDTO struct {
	C            int     `json:"c"`
	Delta        int     `json:"delta"`
	K            int     `json:"k"`
	Mu           float64 `json:"mu"`
	D            float64 `json:"d"`
	Nu           float64 `json:"nu"`
	Distribution string  `json:"distribution"`
	Sojourns     int     `json:"sojourns"`
}

// paperAnalysisDTO is a chainmodel.Analysis of the paper model in the
// paper wire vocabulary: A is the safe subset, B the polluted one.
type paperAnalysisDTO struct {
	ExpectedSafeTime     float64            `json:"expected_safe_time"`
	ExpectedPollutedTime float64            `json:"expected_polluted_time"`
	SafeSojourns         []float64          `json:"safe_sojourns"`
	PollutedSojourns     []float64          `json:"polluted_sojourns"`
	Absorption           map[string]float64 `json:"absorption"`
	PollutionProbability float64            `json:"pollution_probability"`
}

// wireHeader holds the top-level model, distribution and sojourns
// fields of a family's responses.
type wireHeader struct {
	model, dist string
	sojourns    int
}

// wireCell renders one evaluated cell, and the header of the responses
// carrying it, in its family's wire vocabulary. A family's cell is its
// CellDTO with a ModelAnalysisDTO, under a header naming the model,
// distribution and sojourns. The paper model keeps the vocabulary
// attackd served before model families existed: no header, params that
// carry the distribution and sojourns, an analysis of safe and polluted
// time, and the count of states where Rule 1 fires at the cell's ν.
func wireCell(fam chainmodel.Family, mc sweep.ModelCellResult, dist string, sojourns int) (wireHeader, SweepCellDTO) {
	c := SweepCellDTO{
		Index:      mc.Index,
		States:     mc.States,
		Transient:  mc.Transient,
		Shared:     mc.Shared,
		Iterations: mc.Iterations,
	}
	a := mc.Analysis
	if fam.Name() != chainmodel.DefaultFamily {
		c.Params = fam.CellDTO(mc.Cell)
		c.Analysis = ModelAnalysisDTO{
			TimeInA:        a.TimeInA,
			TimeInB:        a.TimeInB,
			SojournsA:      a.SojournsA,
			SojournsB:      a.SojournsB,
			Absorption:     a.Absorption,
			HitProbability: a.HitProbability,
		}
		return wireHeader{model: fam.Name(), dist: dist, sojourns: sojourns}, c
	}
	p := mc.Cell.(core.Params)
	fires := mc.SharedTables.(*core.SweepTables).Gains(p.K).CountFires(p.Nu)
	c.Params = paperParamsDTO{
		C: p.C, Delta: p.Delta, K: p.K, Mu: p.Mu, D: p.D, Nu: p.Nu,
		Distribution: dist, Sojourns: sojourns,
	}
	c.Analysis = paperAnalysisDTO{
		ExpectedSafeTime:     a.TimeInA,
		ExpectedPollutedTime: a.TimeInB,
		SafeSojourns:         a.SojournsA,
		PollutedSojourns:     a.SojournsB,
		Absorption:           a.Absorption,
		PollutionProbability: a.HitProbability,
	}
	c.Rule1Fires = &fires
	return wireHeader{}, c
}

// sojournCount clamps and bounds the per-request sojourn count.
func (s *Server) sojournCount(requested int) (int, error) {
	if requested < 1 {
		requested = 1
	}
	if requested > s.maxSojourns {
		return 0, fmt.Errorf("sojourns %d exceeds the server limit %d", requested, s.maxSojourns)
	}
	return requested, nil
}

// checkStateCount bounds one cell's state space before any allocation.
func (s *Server) checkStateCount(fam chainmodel.Family, cell chainmodel.Cell) error {
	states, err := fam.StateCount(cell)
	if err != nil {
		return err
	}
	if states > s.maxStates {
		return fmt.Errorf("cell %v has %d states, server limit is %d", cell, states, s.maxStates)
	}
	return nil
}

// modelCellKey is the canonical cache/singleflight key of one cell
// request. The family's CellKey renders the parameters exactly (hex
// floats), so value-equal requests share a key, and the model name
// leads the key, so no two families can collide.
func modelCellKey(fam chainmodel.Family, cell chainmodel.Cell, dist string, sojourns int, solver matrix.SolverConfig) string {
	return fmt.Sprintf("cell|m=%s|%s|a=%s|n=%d|s=%s|tol=%s|it=%d",
		fam.Name(), fam.CellKey(cell), dist, sojourns, solver.Kind,
		strconv.FormatFloat(solver.Tol, 'x', -1, 64), solver.MaxIter)
}

// modelPlanKey canonicalizes a sweep for caching: the joined per-cell
// keys can run long for big grids, so they are hashed (the model name
// and options stay in the clear for debugging).
func modelPlanKey(fam chainmodel.Family, cells []chainmodel.Cell, dist string, sojourns int, solver matrix.SolverConfig) string {
	h := sha256.New()
	for _, cell := range cells {
		h.Write([]byte(fam.CellKey(cell)))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("sweep|m=%s|h=%s|a=%s|n=%d|s=%s|tol=%s|it=%d",
		fam.Name(), hex.EncodeToString(h.Sum(nil)), dist, sojourns, solver.Kind,
		strconv.FormatFloat(solver.Tol, 'x', -1, 64), solver.MaxIter)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.handleAnalytic(w, r, "/v1/analyze", true)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.handleAnalytic(w, r, "/v1/sweep", false)
}

// handleAnalytic serves one analytic request: a cell on /v1/analyze
// (always buffered), a grid on /v1/sweep (buffered or streamed).
func (s *Server) handleAnalytic(w http.ResponseWriter, r *http.Request, endpoint string, single bool) {
	if !s.requireMethod(w, r, endpoint, http.MethodPost) {
		return
	}
	parseSpan, _ := obs.StartSpan(r.Context(), "parse")
	body, ok := s.readBody(w, r, endpoint)
	if !ok {
		parseSpan.End()
		return
	}
	ev, err := s.analyticEvaluation(body, single)
	parseSpan.End()
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	s.serveEvaluation(w, r, endpoint, ev, !single && wantsStream(r))
}

// analyticEvaluation parses, bounds and prepares an analytic request
// body into a runnable evaluation: one cell rendered as an
// AnalyzeResponse when single is set, otherwise a grid rendered as a
// SweepResponse. Every error is the client's.
func (s *Server) analyticEvaluation(body []byte, single bool) (*evaluation, error) {
	var req CellRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	fam, err := resolveFamily(req.Model)
	if err != nil {
		return nil, err
	}
	solver, err := s.requestSolver(req.Solver, req.Tol, req.MaxIter)
	if err != nil {
		return nil, err
	}
	pool, err := s.requestPool(req.Workers)
	if err != nil {
		return nil, err
	}
	var cells []chainmodel.Cell
	if single {
		cell, err := fam.ParseCell(body)
		if err != nil {
			return nil, err
		}
		cells = []chainmodel.Cell{cell}
	} else {
		if cells, err = fam.ParsePlan(body); err != nil {
			return nil, err
		}
		if len(cells) > s.maxCells {
			return nil, fmt.Errorf("grid has %d cells, server limit is %d", len(cells), s.maxCells)
		}
	}
	for _, cell := range cells {
		if err := s.checkStateCount(fam, cell); err != nil {
			return nil, err
		}
	}
	dist, err := fam.ParseDist(req.Distribution)
	if err != nil {
		return nil, err
	}
	sojourns, err := s.sojournCount(req.Sojourns)
	if err != nil {
		return nil, err
	}
	ev := &evaluation{
		kind:    "sweep",
		model:   fam.Name(),
		cells:   len(cells),
		solver:  solver.Kind,
		timings: req.Timings,
	}
	if single {
		ev.key = modelCellKey(fam, cells[0], dist, sojourns, solver)
	} else {
		ev.key = modelPlanKey(fam, cells, dist, sojourns, solver)
	}
	ev.run = func(ctx context.Context, onCell func(any)) (any, error) {
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		s.metrics.evaluation(fam.Name())
		var cb func(sweep.ModelCellResult)
		if onCell != nil {
			cb = func(mc sweep.ModelCellResult) {
				_, c := wireCell(fam, mc, dist, sojourns)
				onCell(c)
			}
		}
		// Warm starting is always on: serving-grid lanes chain
		// neighboring cells' solves, and the results stay worker-count
		// independent.
		rs, err := sweep.EvaluateModel(ctx, sweep.ModelPlan{
			Family:   fam,
			Cells:    cells,
			Dist:     dist,
			Sojourns: sojourns,
		}, sweep.ModelOptions{
			Pool:      pool,
			BuildPool: pool,
			Solver:    solver,
			WarmStart: true,
			OnCell:    cb,
		})
		if err != nil {
			return nil, err
		}
		var hdr wireHeader
		wire := make([]SweepCellDTO, len(rs.Cells))
		for i, mc := range rs.Cells {
			hdr, wire[i] = wireCell(fam, mc, dist, sojourns)
			if !mc.Shared {
				s.metrics.solve(mc.Analysis.Solver)
			}
		}
		var resp any = SweepResponse{
			Model:        hdr.model,
			Distribution: hdr.dist,
			Sojourns:     hdr.sojourns,
			Cells:        wire,
			Groups:       rs.Groups,
			Evaluated:    rs.Evaluated,
			Iterations:   rs.Iterations,
			Solver:       solver.Kind,
		}
		if single {
			resp = AnalyzeResponse{
				Model:        hdr.model,
				Params:       wire[0].Params,
				Distribution: hdr.dist,
				Sojourns:     hdr.sojourns,
				States:       wire[0].States,
				Solver:       solver.Kind,
				Analysis:     wire[0].Analysis,
			}
		}
		s.cache.Put(ev.key, resp, int64(len(rs.Cells))*analysisWeight(sojourns))
		return resp, nil
	}
	ev.finish = func(val any, cached, shared bool, tm *TimingsDTO) any {
		if resp, ok := val.(AnalyzeResponse); ok {
			resp.Cached, resp.Shared, resp.Timings = cached, shared, tm
			return resp
		}
		resp := val.(SweepResponse)
		resp.Cached, resp.Shared, resp.Timings = cached, shared, tm
		return resp
	}
	if single {
		return ev, nil
	}
	ev.cellsOf = func(val any) []any {
		resp := val.(SweepResponse)
		out := make([]any, len(resp.Cells))
		for i, c := range resp.Cells {
			out[i] = c
		}
		return out
	}
	ev.summarize = func(val any, cached, shared bool, tm *TimingsDTO) StreamSummary {
		resp := val.(SweepResponse)
		return StreamSummary{
			Cells:      len(resp.Cells),
			Groups:     resp.Groups,
			Evaluated:  resp.Evaluated,
			Iterations: resp.Iterations,
			Solver:     resp.Solver,
			Model:      resp.Model,
			Cached:     cached,
			Shared:     shared,
			Timings:    tm,
		}
	}
	return ev, nil
}
