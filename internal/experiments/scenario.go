package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
)

// Env carries the execution context shared by every scenario: the worker
// pool all sweeps and Monte-Carlo batches fan out on, the root seed for
// randomized experiments, the quick flag that shrinks slow grids for
// smoke runs, and the linear-solver backend for the closed-form
// analytics.
type Env struct {
	Pool  *engine.Pool
	Seed  int64
	Quick bool
	// Solver is the analytic linear-solver backend of every scenario
	// that solves closed forms: the paper's tables and figures, the
	// ablations and validations, and the sweeps. A non-empty Kind
	// overrides the scenario's default backend (dense for the paper
	// artifacts, bicgstab for S3/S4/S7, auto for S5); Tol and MaxIter
	// always apply.
	Solver matrix.SolverConfig
	// BuildPool supplies the workers of the row-parallel
	// transition-matrix construction of every scenario that builds
	// matrices; nil shares Pool (the CLIs' -buildworkers flag overrides it).
	// Construction output is bit-identical for any width.
	BuildPool *engine.Pool
}

// withDefaultKind resolves a scenario's solver: sc as given, with the
// scenario's default backend kind filled in when sc names none, so a
// tolerance or iteration cap alone never drops the default.
func withDefaultKind(sc matrix.SolverConfig, kind string) matrix.SolverConfig {
	if sc.Kind == "" {
		sc.Kind = kind
	}
	return sc
}

// pool returns the env's pool, defaulting to a serial one.
func (e Env) pool() *engine.Pool { return engine.Ensure(e.Pool) }

// buildPool returns the pool used for transition-matrix construction,
// sharing the scenario pool when no dedicated one is configured (nested
// engine.Pool.Run calls split the width instead of stacking).
func (e Env) buildPool() *engine.Pool {
	if e.BuildPool != nil {
		return e.BuildPool
	}
	return e.pool()
}

// Artifact is one named output of a scenario: a Table or a Figure.
type Artifact struct {
	Name   string
	Table  *Table
	Figure *Figure
}

// Text writes the artifact's aligned-text rendering.
func (a Artifact) Text(w io.Writer) error {
	if a.Table != nil {
		return a.Table.Render(w)
	}
	if a.Figure != nil {
		return a.Figure.RenderASCII(w, 72, 20)
	}
	return fmt.Errorf("experiments: artifact %q has neither table nor figure", a.Name)
}

// CSV writes the artifact as comma-separated values.
func (a Artifact) CSV(w io.Writer) error {
	if a.Table != nil {
		return a.Table.CSV(w)
	}
	if a.Figure != nil {
		return a.Figure.CSV(w)
	}
	return fmt.Errorf("experiments: artifact %q has neither table nor figure", a.Name)
}

// tableArtifacts wraps tables built by a generator into artifacts.
func tableArtifacts(name string, t *Table, err error) ([]Artifact, error) {
	if err != nil {
		return nil, err
	}
	return []Artifact{{Name: name, Table: t}}, nil
}

// Scenario is one registered experiment: a named, parameterized sweep
// over the model that produces renderable artifacts. Scenarios replace
// the former free-function-per-figure design — a sweep is data in the
// registry, selected and executed by the CLIs.
type Scenario struct {
	// Key is the stable selector used by -only/-scenario flags.
	Key string
	// Desc is a one-line human description.
	Desc string
	// Run produces the scenario's artifacts on the given environment.
	Run func(ctx context.Context, env Env) ([]Artifact, error)
}

var registry = struct {
	mu    sync.Mutex
	order []string
	byKey map[string]Scenario
}{byKey: make(map[string]Scenario)}

// Register adds a scenario to the global registry. It panics on an empty
// or duplicate key or nil Run, which are programming errors in an init
// block.
func Register(s Scenario) {
	if s.Key == "" || s.Run == nil {
		panic(fmt.Sprintf("experiments: scenario %+v needs a key and a Run function", s))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byKey[s.Key]; dup {
		panic(fmt.Sprintf("experiments: duplicate scenario key %q", s.Key))
	}
	registry.byKey[s.Key] = s
	registry.order = append(registry.order, s.Key)
}

// Find returns the scenario registered under key.
func Find(key string) (Scenario, bool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s, ok := registry.byKey[key]
	return s, ok
}

// Keys returns every registered key in registration order.
func Keys() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return append([]string(nil), registry.order...)
}

// Scenarios returns every registered scenario in registration order.
func Scenarios() []Scenario {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]Scenario, 0, len(registry.order))
	for _, key := range registry.order {
		out = append(out, registry.byKey[key])
	}
	return out
}

// Result is the outcome of one scenario execution.
type Result struct {
	Scenario  Scenario
	Artifacts []Artifact
	Err       error
}

// RunScenarios executes the scenarios named by keys concurrently on
// env.Pool and returns their results in input order. Scenario-internal
// sweeps fan out on the same pool (nested Run calls are safe). An unknown
// key fails the whole call before anything runs; individual scenario
// failures are reported per-Result so one failing experiment does not
// discard the others.
func RunScenarios(ctx context.Context, env Env, keys []string) ([]Result, error) {
	selected := make([]Scenario, len(keys))
	for i, key := range keys {
		s, ok := Find(key)
		if !ok {
			known := Keys()
			sort.Strings(known)
			return nil, fmt.Errorf("experiments: unknown scenario %q (known: %v)", key, known)
		}
		selected[i] = s
	}
	results := make([]Result, len(selected))
	err := env.pool().Run(ctx, len(selected), func(i int) error {
		arts, err := selected[i].Run(ctx, env)
		results[i] = Result{Scenario: selected[i], Artifacts: arts, Err: err}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
