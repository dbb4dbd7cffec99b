package experiments

import (
	"bytes"
	"context"
	"testing"

	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
)

// envScenarioContract describes how each registered scenario must react
// to the shared Env: whether it routes its analytics through Env.Solver
// (a bogus solver kind must then fail it), and — for all of them —
// that pool width and a dedicated build pool never change the rendered
// artifacts.
var envScenarioContract = map[string]struct {
	usesSolver bool
}{
	"fig1":     {usesSolver: false}, // census only, nothing to solve
	"fig2":     {usesSolver: false}, // builds matrices, never factors them
	"fig3":     {usesSolver: true},
	"table1":   {usesSolver: true},
	"table2":   {usesSolver: true},
	"fig4":     {usesSolver: true},
	"fig5":     {usesSolver: true},
	"ablk":     {usesSolver: true},
	"ablnu":    {usesSolver: true},
	"mc":       {usesSolver: true},
	"sys":      {usesSolver: false}, // agent-based simulation, no closed forms
	"lookup":   {usesSolver: false}, // DES lookup trials, no closed forms
	"nusweep":  {usesSolver: true},
	"stress9":  {usesSolver: true},
	"large":    {usesSolver: true},
	"huge":     {usesSolver: true},
	"colossal": {usesSolver: true},
	"apt":      {usesSolver: true},
	"swarm":    {usesSolver: true}, // cross-validation solves the analytic chain
}

// TestRegistryCoveredByEnvContract keeps the table in lockstep with the
// registry.
func TestRegistryCoveredByEnvContract(t *testing.T) {
	for _, key := range Keys() {
		if _, ok := envScenarioContract[key]; !ok {
			t.Errorf("scenario %q missing from the env contract table", key)
		}
	}
	for key := range envScenarioContract {
		if _, ok := Find(key); !ok {
			t.Errorf("env contract names unknown scenario %q", key)
		}
	}
}

// TestWithDefaultKind: a tolerance or iteration cap alone keeps the
// scenario's default backend and still reaches it; a named kind
// overrides the default.
func TestWithDefaultKind(t *testing.T) {
	for _, tc := range []struct {
		env  matrix.SolverConfig
		def  string
		want matrix.SolverConfig
	}{
		{matrix.SolverConfig{}, "auto", matrix.SolverConfig{Kind: "auto"}},
		{matrix.SolverConfig{Tol: 1e-6}, "auto", matrix.SolverConfig{Kind: "auto", Tol: 1e-6}},
		{matrix.SolverConfig{MaxIter: 50}, "bicgstab", matrix.SolverConfig{Kind: "bicgstab", MaxIter: 50}},
		{matrix.SolverConfig{Kind: "ilu", Tol: 1e-8}, "auto", matrix.SolverConfig{Kind: "ilu", Tol: 1e-8}},
		{matrix.SolverConfig{Kind: "dense"}, "bicgstab", matrix.SolverConfig{Kind: "dense"}},
		{matrix.SolverConfig{Tol: 1e-6}, "", matrix.SolverConfig{Tol: 1e-6}},
	} {
		if got := withDefaultKind(tc.env, tc.def); got != tc.want {
			t.Errorf("withDefaultKind(%+v, %q) = %+v, want %+v", tc.env, tc.def, got, tc.want)
		}
	}
}

// TestEveryScenarioHonorsSolver: scenarios that solve closed forms must
// route Env.Solver to every model they build — an invalid backend has
// to fail them, and has to be ignored by the purely structural or
// simulation-only ones.
func TestEveryScenarioHonorsSolver(t *testing.T) {
	env := Env{
		Pool:   engine.New(2),
		Seed:   1,
		Quick:  true,
		Solver: matrix.SolverConfig{Kind: "no-such-backend"},
	}
	for key, want := range envScenarioContract {
		s, ok := Find(key)
		if !ok {
			t.Fatalf("scenario %q not registered", key)
		}
		_, err := s.Run(context.Background(), env)
		if want.usesSolver && err == nil {
			t.Errorf("%s: ran to completion with a bogus Env.Solver — the solver is not plumbed through", key)
		}
		if !want.usesSolver && err != nil {
			t.Errorf("%s: failed under a bogus Env.Solver it should never consult: %v", key, err)
		}
	}
}

// TestEveryScenarioDeterministicAcrossPools: for every registered
// scenario, a wide pool plus a dedicated build pool must render the
// exact artifacts of a serial run — the worker plumbing may change
// speed, never output.
func TestEveryScenarioDeterministicAcrossPools(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry double run skipped in -short mode")
	}
	render := func(env Env, key string) string {
		s, ok := Find(key)
		if !ok {
			t.Fatalf("scenario %q not registered", key)
		}
		arts, err := s.Run(context.Background(), env)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		var buf bytes.Buffer
		for _, a := range arts {
			if err := a.Text(&buf); err != nil {
				t.Fatalf("%s: rendering: %v", key, err)
			}
		}
		return buf.String()
	}
	for key := range envScenarioContract {
		serial := render(Env{Pool: engine.New(1), Seed: 7, Quick: true}, key)
		wide := render(Env{
			Pool:      engine.New(6),
			BuildPool: engine.New(3),
			Seed:      7,
			Quick:     true,
		}, key)
		if serial != wide {
			t.Errorf("%s: artifacts differ between serial and wide-pool runs", key)
		}
	}
}
