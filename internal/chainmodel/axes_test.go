package chainmodel

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestParseInts(t *testing.T) {
	tests := []struct {
		in   string
		want []int
	}{
		{"7", []int{7}},
		{"7,9,12", []int{7, 9, 12}},
		{" 7 , 9 ", []int{7, 9}},
		{"4:8", []int{4, 5, 6, 7, 8}},
		{"10:50:10", []int{10, 20, 30, 40, 50}},
		{"3:3", []int{3}},
	}
	for _, tt := range tests {
		got, err := ParseInts(tt.in)
		if err != nil {
			t.Errorf("ParseInts(%q): %v", tt.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("ParseInts(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	for _, bad := range []string{"", "x", "1,x", "5:1", "1:5:0", "1:2:3:4", "1,2:3"} {
		if _, err := ParseInts(bad); err == nil {
			t.Errorf("ParseInts(%q): want error", bad)
		}
	}
}

// TestParseIntsBoundsHostileRanges: axis expressions arrive straight
// from HTTP requests, so oversized and overflow-adjacent ranges must be
// rejected before any allocation — and must terminate.
func TestParseIntsBoundsHostileRanges(t *testing.T) {
	for _, bad := range []string{
		"1:4000000000",                               // ~4e9 values
		"0:9223372036854775807",                      // MaxInt64 endpoint (v += step would wrap)
		"-9223372036854775808:9223372036854775807:2", // full int range
	} {
		if _, err := ParseInts(bad); err == nil {
			t.Errorf("ParseInts(%q): want size-limit error", bad)
		}
	}
	// Extreme endpoints are fine when the expansion stays small. The
	// endpoint is the platform's MaxInt, so 32-bit builds check their
	// own wrap-around edge.
	got, err := ParseInts(fmt.Sprintf("%d:%d", math.MaxInt-2, math.MaxInt))
	if err != nil || len(got) != 3 || got[2] != math.MaxInt {
		t.Errorf("near-MaxInt range = %v, %v", got, err)
	}
}

func TestParseFloatsBoundsHostileRanges(t *testing.T) {
	for _, bad := range []string{
		"0:1:1e-300", // denormal step: ~1e300 values
		"0:1e300:1",
		"0:inf:1",
		"0:1:nan",
	} {
		if _, err := ParseFloats(bad); err == nil {
			t.Errorf("ParseFloats(%q): want error", bad)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := ParseFloats("0.1,0.2,0.5")
	if err != nil || !reflect.DeepEqual(got, []float64{0.1, 0.2, 0.5}) {
		t.Errorf("list parse = %v, %v", got, err)
	}
	got, err = ParseFloats("0.5:0.9:0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	if len(got) != len(want) {
		t.Fatalf("range parse = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("range point %d = %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", "x", "0.1,y", "0.9:0.1:0.1", "0.1:0.9:0", "0.1:0.9", "0.1:0.2:0.05:1", "nan", "0.1,inf"} {
		if _, err := ParseFloats(bad); err == nil {
			t.Errorf("ParseFloats(%q): want error", bad)
		}
	}
	// The endpoint slack absorbs accumulation error only — it must
	// never emit a point beyond hi.
	for in, wantLen := range map[string]int{"0.8:1:0.3": 1, "0:1:2": 1, "0:1:0.5": 3} {
		got, err := ParseFloats(in)
		if err != nil || len(got) != wantLen {
			t.Errorf("ParseFloats(%q) = %v, %v; want %d points", in, got, err, wantLen)
		}
		for _, v := range got {
			if v > 1 {
				t.Errorf("ParseFloats(%q) emitted %v past the endpoint", in, v)
			}
		}
	}
}
