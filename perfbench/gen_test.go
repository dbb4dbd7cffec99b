package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(42, 500, 2*time.Second)
	b := poissonSchedule(42, 500, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := poissonSchedule(43, 500, 2*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// About rate × span arrivals, strictly increasing, inside the span.
	if n := len(a); n < 900 || n > 1100 {
		t.Fatalf("got %d arrivals at 500/s over 2s, want about 1000", n)
	}
	for i, x := range a {
		if x.Index != i || x.Due < 0 || x.Due >= 2*time.Second || (i > 0 && x.Due < a[i-1].Due) {
			t.Fatalf("arrival %d = %+v out of order or span", i, x)
		}
	}
}

func TestHotRequestSequenceDeterministic(t *testing.T) {
	mix := newHotMix()
	draw := func(seed int64) []request {
		rng := newRand(seed, 1)
		out := make([]request, 200)
		for i := range out {
			out[i] = mix.draw(rng)
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Fatal("same seed drew different request sequences")
	}
}

func TestColdRequestsUniqueAndDeterministic(t *testing.T) {
	seq := func(seed int64) []request {
		var out []request
		for c := 0; c < 2; c++ {
			g := newColdGen(seed, c)
			for i := 0; i < 60; i++ {
				out = append(out, g.next())
			}
		}
		return out
	}
	a := seq(3)
	if !reflect.DeepEqual(a, seq(3)) {
		t.Fatal("same seed gave different cold sequences")
	}
	seen := map[string]bool{}
	for _, r := range a {
		if seen[r.body] {
			t.Fatalf("request repeated: %s", r.body)
		}
		seen[r.body] = true
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, // 1000 beyond p99
		{1000, 99},   // exactly 10 beyond p99
		{999, 95},    // 9 beyond p99
		{200, 95},    // 10 beyond p95
		{100, 90},    // 10 beyond p90
		{40, 75},     // 10 beyond p75
		{30, 100 * 20.0 / 30},
		{20, 50},
		{19, 100}, // no percentile at or above the median qualifies
		{10, 100},
		{1, 100},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 2*minBeyond && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, got), got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestOpenLoopTimesFromDue checks that a stall is charged to the
// requests queued behind it: with one connection and a first request
// that blocks, later requests' latencies include the wait even though
// their own service is instant, and nothing is dropped.
func TestOpenLoopTimesFromDue(t *testing.T) {
	sched := []arrival{{0, 0}, {1, 10 * time.Millisecond}, {2, 20 * time.Millisecond}}
	var calls atomic.Int32
	out := openLoop(sched, 1, func(a arrival) error {
		calls.Add(1)
		if a.Index == 0 {
			time.Sleep(100 * time.Millisecond)
			return errors.New("refused")
		}
		return nil
	})
	if calls.Load() != 3 || len(out) != 3 {
		t.Fatalf("sent %d of 3 requests", calls.Load())
	}
	if out[0].Err == nil {
		t.Error("the failed request's error was lost")
	}
	for _, s := range out[1:] {
		if s.ConnWait < 70*time.Millisecond || s.Latency < s.ConnWait {
			t.Errorf("arrival %d: conn wait %v, latency %v; want the stall counted from the due time", s.Index, s.ConnWait, s.Latency)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalogues and
// BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []catalogEntry) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i, e := range want {
			if got[i].Name != e.name || got[i].Unit != e.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), catalogue %s (%s)", kind, i, got[i].Name, got[i].Unit, e.name, e.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndCatalog)
	check("per_layer", spec.PerLayer, perLayerCatalog)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
