package experiments

import (
	"context"
)

// This file registers the built-in scenarios: every table and figure of
// the paper's evaluation (E1-E7), this reproduction's ablations and
// validations (A1-A5), and the engine-enabled sweeps (S1-S7). Randomized
// scenarios take their root seed from Env.Seed (the CLIs' -seed flag);
// Env.Quick shrinks the slow grids for smoke runs.
//
// Env plumbing is uniform: every scenario that solves the closed forms
// honors Env.Solver (the CLIs' -solver/-tol flags; an empty Kind keeps
// each scenario's own default backend, which is the paper-exact dense
// path for E1-E7/A1-A5, bicgstab for S3/S4/S7 and auto for S5, while Tol
// and MaxIter always apply), every scenario that builds transition
// matrices honors Env.BuildPool (-buildworkers, sharing Env.Pool when
// unset), and every grid fans its cells across Env.Pool. The registry
// test asserts these properties scenario by scenario.

func init() {
	Register(Scenario{
		Key:  "fig1",
		Desc: "Figure 1: state-space partition census",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			t, err := Figure1(7, 7)
			return tableArtifacts("figure1", t, err)
		},
	})
	Register(Scenario{
		Key:  "fig2",
		Desc: "Figure 2: transition matrix construction",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultFigure2Config()
			cfg.BuildPool = env.buildPool()
			t, err := Figure2(ctx, env.Pool, cfg)
			return tableArtifacts("figure2", t, err)
		},
	})
	Register(Scenario{
		Key:  "fig3",
		Desc: "Figure 3: E(T_S^k), E(T_P^k) panels",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultFigure3Config()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			t, err := Figure3(ctx, env.Pool, cfg)
			return tableArtifacts("figure3", t, err)
		},
	})
	Register(Scenario{
		Key:  "table1",
		Desc: "Table I: E(T_S), E(T_P) at high survival",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultTable1Config()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			t, err := Table1(ctx, env.Pool, cfg)
			return tableArtifacts("table1", t, err)
		},
	})
	Register(Scenario{
		Key:  "table2",
		Desc: "Table II: successive sojourn times",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultTable2Config()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			t, err := Table2(ctx, env.Pool, cfg)
			return tableArtifacts("table2", t, err)
		},
	})
	Register(Scenario{
		Key:  "fig4",
		Desc: "Figure 4: absorption probabilities",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultFigure4Config()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			t, err := Figure4(ctx, env.Pool, cfg)
			return tableArtifacts("figure4", t, err)
		},
	})
	Register(Scenario{
		Key:  "fig5",
		Desc: "Figure 5: overlay safe/polluted proportions",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultFigure5Config()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.MaxEvents = 10000
				cfg.Samples = 20
			}
			safe, polluted, err := Figure5(ctx, env.Pool, cfg)
			if err != nil {
				return nil, err
			}
			return []Artifact{
				{Name: "figure5_safe", Figure: safe},
				{Name: "figure5_polluted", Figure: polluted},
			}, nil
		},
	})
	Register(Scenario{
		Key:  "ablk",
		Desc: "Ablation A2: all protocol_k",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultAblationKConfig()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			t, err := AblationK(ctx, env.Pool, cfg)
			return tableArtifacts("ablation_k", t, err)
		},
	})
	Register(Scenario{
		Key:  "ablnu",
		Desc: "Ablation A1: Rule 1 ν sensitivity",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultAblationNuConfig()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			t, err := AblationNu(ctx, env.Pool, cfg)
			return tableArtifacts("ablation_nu", t, err)
		},
	})
	Register(Scenario{
		Key:  "mc",
		Desc: "Validation A3: Monte-Carlo cross-check",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultValidationConfig()
			cfg.Seed = env.Seed
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.Runs = 2000
			}
			t, err := Validation(ctx, env.Pool, cfg)
			return tableArtifacts("validation_mc", t, err)
		},
	})
	Register(Scenario{
		Key:  "sys",
		Desc: "System A4: agent-based overlay simulation",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultSystemSimConfig()
			cfg.Seed = env.Seed
			if env.Quick {
				cfg.Events = 4000
			}
			t, err := SystemSim(ctx, env.Pool, cfg)
			return tableArtifacts("system_sim", t, err)
		},
	})
	Register(Scenario{
		Key:  "lookup",
		Desc: "Lookup A5: availability under attack",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultLookupConfig()
			cfg.Seed = env.Seed
			if env.Quick {
				cfg.Events = 2000
				cfg.Trials = 100
			}
			t, err := Lookup(ctx, env.Pool, cfg)
			return tableArtifacts("lookup_availability", t, err)
		},
	})
	Register(Scenario{
		Key:  "nusweep",
		Desc: "Sweep S1: dense ν response surface",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultNuSweepConfig()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.Nus = []float64{0.05, 0.20, 0.50}
				cfg.Ks = []int{2, 7}
			}
			t, err := NuSweep(ctx, env.Pool, cfg)
			return tableArtifacts("sweep_nu", t, err)
		},
	})
	Register(Scenario{
		Key:  "stress9",
		Desc: "Sweep S2: large-cluster stress (C=∆=9)",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultStressConfig()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.Mus = []float64{0.20}
				cfg.Ds = []float64{0.50, 0.90}
			}
			t, err := Stress(ctx, env.Pool, cfg)
			return tableArtifacts("sweep_stress", t, err)
		},
	})
	Register(Scenario{
		Key:  "large",
		Desc: "Sweep S3: large-cluster sparse analytics (C=∆ up to 25)",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultLargeClusterConfig()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.Sizes = []int{16}
			}
			t, err := LargeCluster(ctx, env.Pool, cfg)
			return tableArtifacts("sweep_large", t, err)
		},
	})
	Register(Scenario{
		Key:  "huge",
		Desc: "Sweep S4: huge-cluster parallel-build analytics (C=∆ up to 50)",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultHugeClusterConfig()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.Sizes = []int{40}
			}
			t, err := LargeCluster(ctx, env.Pool, cfg)
			return tableArtifacts("sweep_huge", t, err)
		},
	})
	Register(Scenario{
		Key:  "colossal",
		Desc: "Sweep S5: colossal-cluster preconditioned analytics (C=∆ up to 100)",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultColossalClusterConfig()
			// The scenario's own default is the auto backend (its point is
			// the mixing probe engaging ILU(0)); an explicit -solver still
			// overrides it, and -tol applies either way.
			cfg.Solver = withDefaultKind(env.Solver, cfg.Solver.Kind)
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.Sizes = []int{75}
			}
			t, err := LargeCluster(ctx, env.Pool, cfg)
			return tableArtifacts("sweep_colossal", t, err)
		},
	})
	Register(Scenario{
		Key:  "apt",
		Desc: "APT S7: second model family — multi-stage compromise campaign",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultAPTConfig()
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.Ns = []int{12}
				cfg.Thetas = []float64{0.5}
				cfg.Detects = []float64{0.6}
				cfg.Rhos = []float64{0, 0.5}
			}
			t, err := APTCampaign(ctx, env.Pool, cfg)
			return tableArtifacts("apt_campaign", t, err)
		},
	})
	Register(Scenario{
		Key:  "swarm",
		Desc: "Swarm S6: million-peer simulation grid + analytic cross-validation",
		Run: func(ctx context.Context, env Env) ([]Artifact, error) {
			cfg := DefaultSwarmConfig()
			cfg.Seed = env.Seed
			cfg.Solver = env.Solver
			cfg.BuildPool = env.buildPool()
			if env.Quick {
				cfg.Sizes = []int{2000, 5000}
				cfg.Events = 2000
				cfg.XValMus = []float64{0.20}
				cfg.XValReplicas = 30
				cfg.XValMaxEvents = 1 << 15
			}
			return Swarm(ctx, env.Pool, cfg)
		},
	})
}
