package experiments

import (
	"context"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/sweep"
)

// gridRows evaluates n independent blocks of table rows across the pool
// (nil means serial) and appends them to t in block order, so a parallel
// sweep renders identically to the serial loop it replaced. Block i must
// derive everything it needs from i alone.
func gridRows(ctx context.Context, pool *engine.Pool, t *Table, n int, f func(i int) ([][]string, error)) error {
	blocks := make([][][]string, n)
	err := engine.Ensure(pool).Run(ctx, n, func(i int) error {
		rows, err := f(i)
		if err != nil {
			return err
		}
		blocks[i] = rows
		return nil
	})
	if err != nil {
		return err
	}
	for _, block := range blocks {
		for _, row := range block {
			if err := t.AddRow(row...); err != nil {
				return err
			}
		}
	}
	return nil
}

// evaluatePaper runs paper-model cells, in the caller's row order,
// through sweep.EvaluateModel under one initial distribution: one state
// space and Rule 1 gain table per (C, ∆), provably identical chains
// solved once, and the distinct ones fanned across pool. There is no
// warm start, so every cell carries the numbers of a stand-alone build
// and analysis with the same solver, in plan order for any pool width.
func evaluatePaper(ctx context.Context, pool, buildPool *engine.Pool, solver matrix.SolverConfig,
	dist core.InitialDistribution, sojourns int, cells []chainmodel.Cell) (*sweep.ModelResultSet, error) {
	return sweep.EvaluateModel(ctx,
		sweep.ModelPlan{Family: core.Family{}, Cells: cells, Dist: dist.Name(), Sojourns: sojourns},
		sweep.ModelOptions{Pool: pool, BuildPool: buildPool, Solver: solver})
}
