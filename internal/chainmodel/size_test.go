package chainmodel_test

import (
	"encoding/json"
	"math"
	"math/big"
	"strings"
	"testing"

	"targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
)

// TestFamilyStateCount pins both families' state counts against an
// exact big-integer oracle, saturated at the platform int. C = ∆ = 1600
// and n = 60000 are the regression geometries: their counts fit a
// 32-bit int, but the intermediate products used to overflow there and
// wrap negative, sliding under every state limit.
func TestFamilyStateCount(t *testing.T) {
	// exact is (c+1)(m+1)(m+2)/2 in arbitrary precision, clamped to int.
	exact := func(c, m int64) int {
		v := big.NewInt(c + 1)
		v.Mul(v, big.NewInt(m+1))
		v.Mul(v, big.NewInt(m+2))
		v.Rsh(v, 1)
		if v.Cmp(big.NewInt(math.MaxInt)) > 0 {
			return math.MaxInt
		}
		return int(v.Int64())
	}
	paper, apt := core.Family{}, aptchain.Family{}
	cases := []struct {
		name string
		fam  chainmodel.Family
		cell chainmodel.Cell
		want int
	}{
		{"paper C=∆=7", paper, core.Params{C: 7, Delta: 7}, 288},
		{"paper C=∆=1600", paper, core.Params{C: 1600, Delta: 1600}, 2_053_124_001},
		{"paper C=∆=1700", paper, core.Params{C: 1700, Delta: 1700}, exact(1700, 1700)},
		{"paper C=∆=MaxInt32", paper, core.Params{C: math.MaxInt32, Delta: math.MaxInt32}, math.MaxInt},
		{"paper C=∆=MaxInt", paper, core.Params{C: math.MaxInt, Delta: math.MaxInt}, math.MaxInt},
		{"paper degenerate", paper, core.Params{C: -5, Delta: -5}, 0},
		{"apt n=6", apt, aptchain.Params{N: 6}, 28},
		{"apt n=60000", apt, aptchain.Params{N: 60000}, 1_800_090_001},
		{"apt n=100000", apt, aptchain.Params{N: 100_000}, exact(0, 100_000)},
		{"apt n=MaxInt32", apt, aptchain.Params{N: math.MaxInt32}, exact(0, math.MaxInt32)},
		{"apt n=MaxInt", apt, aptchain.Params{N: math.MaxInt}, math.MaxInt},
	}
	for _, tc := range cases {
		got, err := tc.fam.StateCount(tc.cell)
		if err != nil || got != tc.want {
			t.Errorf("%s: StateCount = (%d, %v), want %d", tc.name, got, err, tc.want)
		}
		if got < 0 {
			t.Errorf("%s: negative state count %d", tc.name, got)
		}
	}
}

// TestGridSize: the axis product is bounded before any cell list
// exists, without overflowing on 32-bit platforms.
func TestGridSize(t *testing.T) {
	if n, err := chainmodel.GridSize(2, 3, 4); n != 24 || err != nil {
		t.Errorf("GridSize(2,3,4) = (%d, %v), want 24", n, err)
	}
	if n, err := chainmodel.GridSize(1<<7, 1<<7); n != chainmodel.MaxGridCells || err != nil {
		t.Errorf("GridSize at the limit = (%d, %v), want %d", n, err, chainmodel.MaxGridCells)
	}
	const axis = chainmodel.MaxAxisPoints
	for _, lens := range [][]int{{1 << 7, 1 << 7, 2}, {axis, axis}, {axis, axis, axis, axis, axis}} {
		if n, err := chainmodel.GridSize(lens...); err == nil {
			t.Errorf("GridSize(%v) = %d, want an error", lens, n)
		}
	}
}

// TestParsePlanRejectsHugeGrid: both families refuse an axis product
// past MaxGridCells in ParsePlan, before the cell list is allocated
// (the APT body below used to exhaust a 3 GB address space there).
func TestParsePlanRejectsHugeGrid(t *testing.T) {
	bodies := map[chainmodel.Family]string{
		aptchain.Family{}: `{"n":"8","theta":"0.0001:1:0.0001","phi":"0.0001:1:0.0001","detect":"0.1","rho":"0"}`,
		core.Family{}:     `{"c":"7","delta":"7","k":"1","mu":"0.0001:1:0.0001","d":"0:0.9999:0.0001","nu":"0.1"}`,
	}
	for fam, body := range bodies {
		cells, err := fam.ParsePlan(json.RawMessage(body))
		if err == nil || !strings.Contains(err.Error(), "cell limit") {
			t.Errorf("%s: ParsePlan = (%d cells, %v), want the grid-limit error", fam.Name(), len(cells), err)
		}
	}
}
