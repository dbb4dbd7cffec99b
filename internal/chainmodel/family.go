package chainmodel

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
)

// Cell is one parameter point of a family. Families choose their own
// concrete type; it must be a comparable value (the sweep planner and
// serving layer use cells and the keys derived from them in maps).
type Cell = any

// Family is one absorbing-chain model: a parameter space, a state
// space, and the sweep structure the amortized evaluator exploits. A
// family's methods must be safe for concurrent use; Build is called
// from evaluator goroutines.
type Family interface {
	// Name is the registry key ("targeted-attack", "apt-compromise").
	Name() string
	// Description is a one-line human summary.
	Description() string

	// Dists lists the family's named initial distributions; the first
	// is the default.
	Dists() []string
	// ParseDist canonicalizes an initial-distribution name; the empty
	// string selects the default. Unknown names are an error.
	ParseDist(s string) (string, error)

	// ParseCell extracts and validates one cell from a JSON request
	// body (the serving layer passes the whole /v1/analyze body; common
	// fields like "model", "distribution", "sojourns" and "solver" are
	// the caller's, a family reads only its own parameters).
	ParseCell(raw json.RawMessage) (Cell, error)
	// ParsePlan extracts and validates a grid of cells from a JSON
	// request body, enumerated in the family's canonical sweep order:
	// group key outermost, warm-start lane axis innermost.
	ParsePlan(raw json.RawMessage) ([]Cell, error)
	// CellDTO returns the JSON-marshalable representation of a cell for
	// responses.
	CellDTO(cell Cell) any
	// CellKey renders a cell canonically for cache keys: equal cells
	// must render equal, unequal cells unequal (hex float formatting,
	// not decimal rounding).
	CellKey(cell Cell) string
	// StateCount sizes a cell's state space without building it, so
	// request limits apply before any allocation. Counts past the
	// platform int saturate at math.MaxInt instead of wrapping.
	StateCount(cell Cell) (int, error)

	// GroupKey maps a cell to its shared-structure group: cells with
	// equal (comparable) keys share the immutable tables NewShared
	// builds (the paper model groups by cluster geometry (C, ∆)).
	GroupKey(cell Cell) any
	// NewShared builds one group's immutable shared tables from the
	// group's cells (state space, memoized kernels, gain tables). The
	// returned value is handed back to Signature and Build.
	NewShared(cells []Cell) (any, error)
	// Signature maps a cell to its chain-equality class: two cells of
	// one group with equal (comparable) signatures provably build the
	// same Markov chain AND the same initial distribution, so one
	// solve serves both (ν-thresholding dedup for the paper model).
	Signature(shared any, cell Cell) (any, error)
	// LaneKey maps a cell to its warm-start lane: consecutive
	// equivalence classes whose leaders have equal (comparable) lane
	// keys are evaluated sequentially, each seeding its iterative
	// solves from the previous chain's converged vectors. The axis
	// excluded from the lane key should be the family's "slow" axis,
	// enumerated innermost by ParsePlan.
	LaneKey(cell Cell) any
	// Build constructs the analyzable instance of one cell, reading the
	// group's shared tables and fanning matrix construction across
	// buildPool (nil builds serially; output is bit-identical either
	// way).
	Build(shared any, cell Cell, sc matrix.SolverConfig, buildPool *engine.Pool) (Instance, error)
}

// TriangleCount is (c+1)·(m+1)(m+2)/2: c+1 copies of a triangle of
// side m+1, the shape of both built-in families' state spaces. It never
// overflows: counts past the platform int saturate at math.MaxInt, so
// on 32-bit platforms a space of more than 2^31 states stays above every
// request limit instead of wrapping negative. Negative c or m count 0.
func TriangleCount(c, m int) int {
	if c < 0 || m < 0 {
		return 0
	}
	// uint64 holds every factor exactly; halve the even one of the two
	// consecutive triangle factors before multiplying.
	f, a, b := uint64(c)+1, uint64(m)+1, uint64(m)+2
	if a%2 == 0 {
		a /= 2
	} else {
		b /= 2
	}
	const limit = uint64(math.MaxInt)
	if a > limit/b {
		return math.MaxInt
	}
	if tri := a * b; tri <= limit/f {
		return int(f * tri)
	}
	return math.MaxInt
}

var (
	regMu sync.RWMutex
	reg   = make(map[string]Family)
)

// Register adds a family to the registry; it panics on a duplicate
// name. Families call it from an init function, so importing a model
// package (even blank) makes it servable.
func Register(f Family) {
	regMu.Lock()
	defer regMu.Unlock()
	name := f.Name()
	if _, dup := reg[name]; dup {
		panic(fmt.Sprintf("chainmodel: duplicate family %q", name))
	}
	reg[name] = f
}

// Lookup returns the named family. The empty name selects DefaultFamily.
func Lookup(name string) (Family, bool) {
	if name == "" {
		name = DefaultFamily
	}
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := reg[name]
	return f, ok
}

// DefaultFamily is the registry name the serving layer and CLIs fall
// back to when no model is named: the source paper's targeted-attack
// chain.
const DefaultFamily = "targeted-attack"

// Names lists the registered family names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Families lists the registered families in Names order.
func Families() []Family {
	names := Names()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Family, 0, len(names))
	for _, name := range names {
		out = append(out, reg[name])
	}
	return out
}
