package aptchain

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
)

// FamilyName is the APT campaign chain's registry name.
const FamilyName = "apt-compromise"

func init() { chainmodel.Register(Family{}) }

// Family is the APT campaign chain's implementation of the chainmodel
// interface: cells are Params, groups share one triangular state space
// per node count n, every parameter enters the matrix (so dedup only
// collapses exact duplicates), and warm-start lanes run along the
// stealth axis ρ at fixed (n, θ, φ, δ) — neighboring stealth levels
// perturb only the entrenched-detection rates, so their solution
// vectors seed each other well.
type Family struct{}

// Name implements chainmodel.Family.
func (Family) Name() string { return FamilyName }

// Description implements chainmodel.Family.
func (Family) Description() string {
	return "APT multi-stage compromise campaign over n nodes: infiltration θ, escalation φ, detection δ, stealth ρ; absorbing at full recovery and full compromise"
}

// Dists implements chainmodel.Family.
func (Family) Dists() []string { return []string{DistFoothold, DistBlitz} }

// ParseDist implements chainmodel.Family.
func (Family) ParseDist(s string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", DistFoothold:
		return DistFoothold, nil
	case DistBlitz:
		return DistBlitz, nil
	default:
		return "", fmt.Errorf("unknown distribution %q (want %q or %q)", s, DistFoothold, DistBlitz)
	}
}

// cellFields is the family's slice of an analyze request body.
type cellFields struct {
	N      int     `json:"n"`
	Theta  float64 `json:"theta"`
	Phi    float64 `json:"phi"`
	Rho    float64 `json:"rho"`
	Detect float64 `json:"detect"`
}

// ParseCell implements chainmodel.Family.
func (Family) ParseCell(raw json.RawMessage) (chainmodel.Cell, error) {
	var f cellFields
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("decoding cell: %w", err)
	}
	p := Params{N: f.N, Theta: f.Theta, Phi: f.Phi, Rho: f.Rho, Detect: f.Detect}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// planFields is the family's slice of a sweep request body.
type planFields struct {
	N      string `json:"n"`
	Theta  string `json:"theta"`
	Phi    string `json:"phi"`
	Rho    string `json:"rho"`
	Detect string `json:"detect"`
}

// ParsePlan implements chainmodel.Family: the cross product of the five
// axes in canonical order — n outermost (the group axis), then θ, φ, δ,
// and ρ innermost, so warm-start lanes walk the stealth axis in small
// steps. The ρ axis defaults to 0 (no stealth); every other axis is
// required.
func (Family) ParsePlan(raw json.RawMessage) ([]chainmodel.Cell, error) {
	var f planFields
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("decoding plan: %w", err)
	}
	axisInts := func(name, expr string) ([]int, error) {
		if expr == "" {
			return nil, fmt.Errorf("axis %s: axis is required", name)
		}
		vs, err := chainmodel.ParseInts(expr)
		if err != nil {
			return nil, fmt.Errorf("axis %s: %w", name, err)
		}
		return vs, nil
	}
	axisFloats := func(name, expr string) ([]float64, error) {
		if expr == "" {
			return nil, fmt.Errorf("axis %s: axis is required", name)
		}
		vs, err := chainmodel.ParseFloats(expr)
		if err != nil {
			return nil, fmt.Errorf("axis %s: %w", name, err)
		}
		return vs, nil
	}
	ns, err := axisInts("n", f.N)
	if err != nil {
		return nil, err
	}
	thetas, err := axisFloats("theta", f.Theta)
	if err != nil {
		return nil, err
	}
	phis, err := axisFloats("phi", f.Phi)
	if err != nil {
		return nil, err
	}
	detects, err := axisFloats("detect", f.Detect)
	if err != nil {
		return nil, err
	}
	rhos := []float64{0}
	if f.Rho != "" {
		if rhos, err = chainmodel.ParseFloats(f.Rho); err != nil {
			return nil, fmt.Errorf("axis rho: %w", err)
		}
	}
	size, err := chainmodel.GridSize(len(ns), len(thetas), len(phis), len(detects), len(rhos))
	if err != nil {
		return nil, err
	}
	cells := make([]chainmodel.Cell, 0, size)
	for _, n := range ns {
		for _, theta := range thetas {
			for _, phi := range phis {
				for _, detect := range detects {
					for _, rho := range rhos {
						p := Params{N: n, Theta: theta, Phi: phi, Rho: rho, Detect: detect}
						if err := p.Validate(); err != nil {
							return nil, fmt.Errorf("cell %v: %w", p, err)
						}
						cells = append(cells, p)
					}
				}
			}
		}
	}
	return cells, nil
}

// CellDTO implements chainmodel.Family.
func (Family) CellDTO(cell chainmodel.Cell) any {
	p := cell.(Params)
	return cellFields{N: p.N, Theta: p.Theta, Phi: p.Phi, Rho: p.Rho, Detect: p.Detect}
}

// CellKey implements chainmodel.Family.
func (Family) CellKey(cell chainmodel.Cell) string {
	p := cell.(Params)
	return fmt.Sprintf("n=%d|theta=%s|phi=%s|rho=%s|detect=%s",
		p.N,
		strconv.FormatFloat(p.Theta, 'x', -1, 64),
		strconv.FormatFloat(p.Phi, 'x', -1, 64),
		strconv.FormatFloat(p.Rho, 'x', -1, 64),
		strconv.FormatFloat(p.Detect, 'x', -1, 64))
}

// StateCount implements chainmodel.Family: |Ω| = (n+1)(n+2)/2,
// saturating instead of overflowing.
func (Family) StateCount(cell chainmodel.Cell) (int, error) {
	return chainmodel.TriangleCount(0, cell.(Params).N), nil
}

// GroupKey implements chainmodel.Family: the node count pins the state
// space.
func (Family) GroupKey(cell chainmodel.Cell) any { return cell.(Params).N }

// NewShared implements chainmodel.Family: one triangular space per n.
func (Family) NewShared(cells []chainmodel.Cell) (any, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("empty group")
	}
	return NewSpace(cells[0].(Params).N)
}

// Signature implements chainmodel.Family: every parameter enters the
// transition matrix directly, so only exact duplicates dedup.
func (Family) Signature(_ any, cell chainmodel.Cell) (any, error) {
	return cell.(Params), nil
}

// laneKey is the warm-start lane identity: within a lane only the
// stealth ρ varies.
type laneKey struct {
	n                  int
	theta, phi, detect float64
}

// LaneKey implements chainmodel.Family.
func (Family) LaneKey(cell chainmodel.Cell) any {
	p := cell.(Params)
	return laneKey{n: p.N, theta: p.Theta, phi: p.Phi, detect: p.Detect}
}

// Build implements chainmodel.Family.
func (Family) Build(shared any, cell chainmodel.Cell, sc matrix.SolverConfig, buildPool *engine.Pool) (chainmodel.Instance, error) {
	var sp *Space
	if shared != nil {
		sp = shared.(*Space)
	}
	return New(cell.(Params), sc, sp, buildPool)
}
