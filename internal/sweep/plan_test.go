package sweep

import (
	"context"
	"reflect"
	"testing"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
)

// TestPlanCellsOrderAndSize: core.Grid, the paper model's plan
// enumerator, emits C outermost and ν innermost.
func TestPlanCellsOrderAndSize(t *testing.T) {
	cells, err := core.Grid([]int{7}, []int{7}, []int{1, 2}, []float64{0.1}, []float64{0.5, 0.9}, []float64{0.1})
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("size = %d, want 4", len(cells))
	}
	want := []chainmodel.Cell{
		core.Params{C: 7, Delta: 7, K: 1, Mu: 0.1, D: 0.5, Nu: 0.1},
		core.Params{C: 7, Delta: 7, K: 1, Mu: 0.1, D: 0.9, Nu: 0.1},
		core.Params{C: 7, Delta: 7, K: 2, Mu: 0.1, D: 0.5, Nu: 0.1},
		core.Params{C: 7, Delta: 7, K: 2, Mu: 0.1, D: 0.9, Nu: 0.1},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("Grid = %v, want %v", cells, want)
	}
}

func TestPlanValidateRejects(t *testing.T) {
	if _, err := core.Grid([]int{7}, []int{7}, []int{1}, []float64{0.1}, []float64{0.5}, nil); err == nil {
		t.Error("empty ν axis must be rejected")
	}
	// k > C
	if _, err := core.Grid([]int{7}, []int{7}, []int{9}, []float64{0.1}, []float64{0.5}, []float64{0.1}); err == nil {
		t.Error("invalid cell parameters must be rejected")
	}
	cells, err := core.Grid([]int{7}, []int{7}, []int{1}, []float64{0.1}, []float64{0.5}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	badDist := ModelPlan{Family: core.Family{}, Cells: cells, Dist: "gamma"}
	if _, err := EvaluateModel(context.Background(), badDist, ModelOptions{}); err == nil {
		t.Error("unknown distribution must be rejected")
	}
}
