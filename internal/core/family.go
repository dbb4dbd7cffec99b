package core

import (
	"encoding/json"
	"fmt"
	"strconv"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/markov"
	"targetedattacks/internal/matrix"
)

// FamilyName is the paper model's registry name.
const FamilyName = chainmodel.DefaultFamily

func init() { chainmodel.Register(Family{}) }

// Family is the paper model's implementation of the chainmodel
// interface: cells are Params, groups are cluster geometries (C, ∆)
// sharing one Space and one Rule 1 gain table per protocol k, dedup
// signatures collapse the ν axis through the gain cut, and warm-start
// lanes run along (d, ν) at fixed (C, ∆, k, µ).
type Family struct{}

// Name implements chainmodel.Family.
func (Family) Name() string { return FamilyName }

// Description implements chainmodel.Family.
func (Family) Description() string {
	return "DSN'11 targeted-attack cluster chain over Ω(C, ∆): safe vs polluted clusters under churn (µ, d) and protocol_k with Rule 1 threshold ν"
}

// Dists implements chainmodel.Family: the paper's δ (default) and β.
func (Family) Dists() []string {
	return []string{DistributionDelta.Name(), DistributionBeta.Name()}
}

// ParseDist implements chainmodel.Family.
func (Family) ParseDist(s string) (string, error) {
	d, err := ParseDistributionName(s)
	if err != nil {
		return "", err
	}
	return d.Name(), nil
}

// cellFields is the family's slice of an analyze request body.
type cellFields struct {
	C     int     `json:"c"`
	Delta int     `json:"delta"`
	K     int     `json:"k"`
	Mu    float64 `json:"mu"`
	D     float64 `json:"d"`
	Nu    float64 `json:"nu"`
}

// ParseCell implements chainmodel.Family: one validated Params cell.
func (Family) ParseCell(raw json.RawMessage) (chainmodel.Cell, error) {
	var f cellFields
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("decoding cell: %w", err)
	}
	p := Params{C: f.C, Delta: f.Delta, K: f.K, Mu: f.Mu, D: f.D, Nu: f.Nu}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// planFields is the family's slice of a sweep request body: one axis
// expression per parameter.
type planFields struct {
	C     string `json:"c"`
	Delta string `json:"delta"`
	K     string `json:"k"`
	Mu    string `json:"mu"`
	D     string `json:"d"`
	Nu    string `json:"nu"`
}

// ParsePlan implements chainmodel.Family: the Grid of the six parsed
// axes, so lanes of equal (C, ∆, k, µ) are consecutive and walk the
// (d, ν) axes in small steps. The ν axis defaults to the paper's 0.1;
// every other axis is required.
func (fam Family) ParsePlan(raw json.RawMessage) ([]chainmodel.Cell, error) {
	var f planFields
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("decoding plan: %w", err)
	}
	cs, err := requiredInts("c", f.C)
	if err != nil {
		return nil, err
	}
	deltas, err := requiredInts("delta", f.Delta)
	if err != nil {
		return nil, err
	}
	ks, err := requiredInts("k", f.K)
	if err != nil {
		return nil, err
	}
	mus, err := requiredFloats("mu", f.Mu)
	if err != nil {
		return nil, err
	}
	ds, err := requiredFloats("d", f.D)
	if err != nil {
		return nil, err
	}
	nus := []float64{0.1}
	if f.Nu != "" {
		if nus, err = chainmodel.ParseFloats(f.Nu); err != nil {
			return nil, fmt.Errorf("axis nu: %w", err)
		}
	}
	return Grid(cs, deltas, ks, mus, ds, nus)
}

// Grid is the paper model's parameter grid: the cross product of the
// six axes in canonical order — C outermost, then ∆, k, µ, d, and ν
// innermost. Every axis needs at least one value, the axis product is
// bounded by chainmodel.GridSize before the cell list exists, and every
// cell is validated.
func Grid(cs, deltas, ks []int, mus, ds, nus []float64) ([]chainmodel.Cell, error) {
	size, err := chainmodel.GridSize(len(cs), len(deltas), len(ks), len(mus), len(ds), len(nus))
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, fmt.Errorf("core: every axis needs at least one value (|C|=%d |∆|=%d |k|=%d |µ|=%d |d|=%d |ν|=%d)",
			len(cs), len(deltas), len(ks), len(mus), len(ds), len(nus))
	}
	cells := make([]chainmodel.Cell, 0, size)
	for _, c := range cs {
		for _, delta := range deltas {
			for _, k := range ks {
				for _, mu := range mus {
					for _, d := range ds {
						for _, nu := range nus {
							p := Params{C: c, Delta: delta, K: k, Mu: mu, D: d, Nu: nu}
							if err := p.Validate(); err != nil {
								return nil, fmt.Errorf("cell %v: %w", p, err)
							}
							cells = append(cells, p)
						}
					}
				}
			}
		}
	}
	return cells, nil
}

func requiredInts(name, expr string) ([]int, error) {
	if expr == "" {
		return nil, fmt.Errorf("axis %s: axis is required", name)
	}
	vs, err := chainmodel.ParseInts(expr)
	if err != nil {
		return nil, fmt.Errorf("axis %s: %w", name, err)
	}
	return vs, nil
}

func requiredFloats(name, expr string) ([]float64, error) {
	if expr == "" {
		return nil, fmt.Errorf("axis %s: axis is required", name)
	}
	vs, err := chainmodel.ParseFloats(expr)
	if err != nil {
		return nil, fmt.Errorf("axis %s: %w", name, err)
	}
	return vs, nil
}

// CellDTO implements chainmodel.Family.
func (Family) CellDTO(cell chainmodel.Cell) any {
	p := cell.(Params)
	return cellFields{C: p.C, Delta: p.Delta, K: p.K, Mu: p.Mu, D: p.D, Nu: p.Nu}
}

// CellKey implements chainmodel.Family: exact hex float formatting, so
// value-equal cells share a key and byte-different JSON does not matter.
func (Family) CellKey(cell chainmodel.Cell) string {
	p := cell.(Params)
	return fmt.Sprintf("C=%d|D=%d|K=%d|mu=%s|d=%s|nu=%s",
		p.C, p.Delta, p.K,
		strconv.FormatFloat(p.Mu, 'x', -1, 64),
		strconv.FormatFloat(p.D, 'x', -1, 64),
		strconv.FormatFloat(p.Nu, 'x', -1, 64))
}

// StateCount implements chainmodel.Family:
// |Ω| = (C+1)(∆+1)(∆+2)/2, saturating instead of overflowing so request
// limits reject absurd geometries rather than wrap around.
func (Family) StateCount(cell chainmodel.Cell) (int, error) {
	p := cell.(Params)
	return chainmodel.TriangleCount(p.C, p.Delta), nil
}

// GroupKey implements chainmodel.Family: the cluster geometry (C, ∆)
// pins the state space and every shared table.
func (Family) GroupKey(cell chainmodel.Cell) any {
	p := cell.(Params)
	return [2]int{p.C, p.Delta}
}

// SweepTables is the immutable shared structure of one (C, ∆) sweep
// group: the enumerated state space and one relation (2) gain table per
// protocol k appearing in the group.
type SweepTables struct {
	Space *Space
	gains map[int]*Rule1Gains
}

// Gains returns the group's Rule 1 gain table for protocol k (nil if k
// did not appear in the group's cells).
func (t *SweepTables) Gains(k int) *Rule1Gains { return t.gains[k] }

// NewShared implements chainmodel.Family. It validates every cell of
// the group, so a hand-built plan with an invalid cell fails in the
// planner, before any chain is solved.
func (Family) NewShared(cells []chainmodel.Cell) (any, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("empty group")
	}
	first := cells[0].(Params)
	sp, err := NewSpace(first.C, first.Delta)
	if err != nil {
		return nil, err
	}
	t := &SweepTables{Space: sp, gains: make(map[int]*Rule1Gains)}
	for _, cell := range cells {
		p := cell.(Params)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("cell %v: %w", p, err)
		}
		if _, ok := t.gains[p.K]; !ok {
			g, err := ComputeRule1Gains(p)
			if err != nil {
				return nil, err
			}
			t.gains[p.K] = g
		}
	}
	return t, nil
}

// cellSignature identifies a cell's Markov chain up to provable
// equality: geometry and protocol pin the state space and maintenance
// kernel, µ and d pin every branch weight, and the Rule 1 gain cut pins
// the firing set — the only door through which ν enters the matrix. The
// initial distribution is a function of (C, ∆, µ) and the common
// distribution choice, so two cells with equal signatures have equal
// chains AND equal α: their Analyses are the same numbers.
type cellSignature struct {
	c, delta, k int
	mu, d       float64
	cut         int
}

// Signature implements chainmodel.Family.
func (Family) Signature(shared any, cell chainmodel.Cell) (any, error) {
	p := cell.(Params)
	g := shared.(*SweepTables).Gains(p.K)
	if g == nil {
		return nil, fmt.Errorf("no gain table for protocol k=%d", p.K)
	}
	return cellSignature{c: p.C, delta: p.Delta, k: p.K, mu: p.Mu, d: p.D, cut: g.CutIndex(p.Nu)}, nil
}

// laneKey is the warm-start lane identity: within a lane only d and the
// ν gain cut vary, and they vary smoothly in plan order.
type laneKey struct {
	c, delta, k int
	mu          float64
}

// LaneKey implements chainmodel.Family.
func (Family) LaneKey(cell chainmodel.Cell) any {
	p := cell.(Params)
	return laneKey{c: p.C, delta: p.Delta, k: p.K, mu: p.Mu}
}

// Build implements chainmodel.Family.
func (Family) Build(shared any, cell chainmodel.Cell, sc matrix.SolverConfig, buildPool *engine.Pool) (chainmodel.Instance, error) {
	p := cell.(Params)
	opts := []BuildOption{WithBuildPool(buildPool)}
	if shared != nil {
		t := shared.(*SweepTables)
		opts = append(opts, WithSpace(t.Space))
		if g := t.Gains(p.K); g != nil {
			opts = append(opts, WithRule1Gains(g))
		}
	}
	m, err := NewWithSolver(p, sc, opts...)
	if err != nil {
		return nil, err
	}
	return Instance{m}, nil
}

// Instance adapts a built Model to the chainmodel.Instance interface.
type Instance struct{ M *Model }

// NumStates implements chainmodel.Instance.
func (in Instance) NumStates() int { return in.M.space.Size() }

// NumTransient implements chainmodel.Instance.
func (in Instance) NumTransient() int { return in.M.space.TransientCount() }

// TransientState implements chainmodel.Instance.
func (in Instance) TransientState(i int) bool {
	return in.M.space.Classify(in.M.space.At(i)).Transient()
}

// Matrix implements chainmodel.Instance.
func (in Instance) Matrix() *matrix.CSR { return in.M.m }

// CleanClasses implements chainmodel.Instance: the absorbing classes a
// never-polluted cluster can die into, so the generic HitProbability is
// the paper model's pollution probability.
func (in Instance) CleanClasses() []string { return cleanClassNames() }

// Chain implements chainmodel.Instance.
func (in Instance) Chain(dist string) (*markov.Chain, error) {
	d, err := ParseDistributionName(dist)
	if err != nil {
		return nil, err
	}
	alpha, err := in.M.Initial(d)
	if err != nil {
		return nil, err
	}
	return in.M.Chain(alpha)
}
