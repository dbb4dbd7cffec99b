package chainmodel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MaxAxisPoints bounds the number of values a single axis expression
// may expand to. Axis expressions reach the parsers straight from
// untrusted HTTP requests, so the bound must hold before any
// allocation: a range like "1:4000000000" is rejected, not expanded.
const MaxAxisPoints = 100_000

// MaxGridCells bounds the cell count of any grid a family's ParsePlan
// enumerates. Each axis alone is bounded by MaxAxisPoints, but their
// product is not: five 10^4-point axes would ask for 10^20 cells. Plan
// parsers size the grid with GridSize before allocating the cell list.
// Grids arrive in request bodies, so the bound is kept near what a
// server evaluates per request (attackd's default is 4096 cells): a
// plan at the bound costs about 1 MB to enumerate, where 2^20 cells
// cost some 64 MB before any server-side limit could refuse them.
const MaxGridCells = 1 << 14

// GridSize returns the product of the axis lengths, rejecting a product
// above MaxGridCells without overflowing on any platform.
func GridSize(lens ...int) (int, error) {
	size := 1
	for _, n := range lens {
		if n > 0 && size > MaxGridCells/n {
			return 0, fmt.Errorf("chainmodel: grid exceeds the %d-cell limit", MaxGridCells)
		}
		size *= n
	}
	return size, nil
}

// ParseInts parses an integer axis: a comma-separated list ("7,9,12") or
// an inclusive lo:hi[:step] range ("4:8" is 4,5,6,7,8; "10:50:10" is
// 10,20,30,40,50). An axis may expand to at most MaxAxisPoints values.
func ParseInts(s string) ([]int, error) {
	parts, isRange, err := splitAxis(s)
	if err != nil {
		return nil, err
	}
	if isRange {
		lo, err1 := strconv.Atoi(parts[0])
		hi, err2 := strconv.Atoi(parts[1])
		step := 1
		var err3 error
		if len(parts) == 3 {
			step, err3 = strconv.Atoi(parts[2])
		}
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("chainmodel: bad integer range %q", s)
		}
		if step < 1 {
			return nil, fmt.Errorf("chainmodel: range %q needs a positive step", s)
		}
		if hi < lo {
			return nil, fmt.Errorf("chainmodel: range %q is empty (hi < lo)", s)
		}
		// Size the range in uint64 (hi−lo cannot overflow there for
		// hi ≥ lo) before allocating anything.
		count := (uint64(hi)-uint64(lo))/uint64(step) + 1
		if count > MaxAxisPoints {
			return nil, fmt.Errorf("chainmodel: range %q expands to %d values, limit is %d", s, count, MaxAxisPoints)
		}
		out := make([]int, 0, count)
		// Advance incrementally: v never exceeds hi, so the addition
		// cannot overflow even for ranges near the int extremes.
		for v, i := lo, uint64(0); ; v, i = v+step, i+1 {
			out = append(out, v)
			if i+1 == count {
				break
			}
		}
		return out, nil
	}
	if len(parts) > MaxAxisPoints {
		return nil, fmt.Errorf("chainmodel: axis %q lists %d values, limit is %d", s, len(parts), MaxAxisPoints)
	}
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("chainmodel: bad integer %q in axis %q", p, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a float axis: a comma-separated list
// ("0.1,0.2,0.5") or an inclusive lo:hi:step range ("0.5:0.9:0.1").
// Range points are computed as lo + i·step to keep them exactly
// reproducible; the endpoint is included with a hair of floating slack
// (step·1e-9 — enough to absorb accumulation error, never enough to
// emit a point past hi). An axis may expand to at most MaxAxisPoints
// values (so a denormal step cannot expand into an allocation bomb).
func ParseFloats(s string) ([]float64, error) {
	parts, isRange, err := splitAxis(s)
	if err != nil {
		return nil, err
	}
	if isRange {
		if len(parts) != 3 {
			return nil, fmt.Errorf("chainmodel: float range %q needs lo:hi:step", s)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		step, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("chainmodel: bad float range %q", s)
		}
		if step <= 0 || math.IsInf(step, 0) || math.IsNaN(step) ||
			math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsInf(hi, 0) || math.IsNaN(hi) {
			return nil, fmt.Errorf("chainmodel: range %q needs finite bounds and a positive step", s)
		}
		if hi < lo {
			return nil, fmt.Errorf("chainmodel: range %q is empty (hi < lo)", s)
		}
		var out []float64
		for i := 0; ; i++ {
			v := lo + float64(i)*step
			if v > hi+step*1e-9 {
				break
			}
			if len(out) >= MaxAxisPoints {
				return nil, fmt.Errorf("chainmodel: range %q expands past %d values", s, MaxAxisPoints)
			}
			out = append(out, v)
		}
		return out, nil
	}
	if len(parts) > MaxAxisPoints {
		return nil, fmt.Errorf("chainmodel: axis %q lists %d values, limit is %d", s, len(parts), MaxAxisPoints)
	}
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			// NaN passes every interval check downstream (it fails
			// neither v < lo nor v > hi), so non-finite values are
			// stopped at the parse boundary.
			return nil, fmt.Errorf("chainmodel: bad float %q in axis %q", p, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitAxis splits an axis expression into its parts and reports whether
// it uses the colon range syntax.
func splitAxis(s string) ([]string, bool, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, false, fmt.Errorf("chainmodel: empty axis")
	}
	if strings.Contains(s, ":") {
		if strings.Contains(s, ",") {
			return nil, false, fmt.Errorf("chainmodel: axis %q mixes list and range syntax", s)
		}
		parts := strings.Split(s, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, false, fmt.Errorf("chainmodel: range %q needs lo:hi or lo:hi:step", s)
		}
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts, true, nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf("chainmodel: empty axis %q", s)
	}
	return out, false, nil
}
