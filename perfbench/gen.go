package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's open-loop load generator. Arrivals are a
// seeded Poisson schedule fixed before the run starts; every request is
// timed from its due time, so a stall that delays later sends shows up in
// their latency instead of silently stretching the run. Requests that
// find every connection busy wait in a queue: nothing is shed.

// arrival is one scheduled request.
type arrival struct {
	// Index numbers the arrival in schedule order.
	Index int
	// Due is the offset from the phase start at which it is sent.
	Due time.Duration
}

// poissonSchedule returns the arrivals of a Poisson process at rate
// per second over span, drawn from seed. The same arguments give the
// same schedule.
func poissonSchedule(seed uint64, rate float64, span time.Duration) []arrival {
	if rate <= 0 || span <= 0 {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		out = append(out, arrival{Index: len(out), Due: due})
	}
}

// sample is one completed request as the generator saw it.
type sample struct {
	// Index is the arrival's index.
	Index int
	// Due is the arrival's due offset; Lag how late the scheduler
	// queued it; ConnWait the time from due to send (queueing for a
	// connection included); Latency the time from due to completion.
	Due, Lag, ConnWait, Latency time.Duration
	// Err is non-nil when the request failed or was refused.
	Err error
}

// openLoop sends the arrivals through at most conns concurrent senders.
// send performs one request; openLoop returns the samples in arrival
// order once every request has completed.
func openLoop(sched []arrival, conns int, send func(a arrival) error) []sample {
	if conns < 1 {
		conns = 1
	}
	type queued struct {
		a     arrival
		start time.Time
		lag   time.Duration
	}
	// The queue holds every arrival the senders have not picked up yet;
	// sized to the schedule, the scheduler never blocks on it.
	queue := make(chan queued, len(sched))
	out := make([]sample, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				due := q.start.Add(q.a.Due)
				sent := time.Now()
				err := send(q.a)
				done := time.Now()
				out[q.a.Index] = sample{
					Index:    q.a.Index,
					Due:      q.a.Due,
					Lag:      q.lag,
					ConnWait: sent.Sub(due),
					Latency:  done.Sub(due),
					Err:      err,
				}
			}
		}()
	}
	for _, a := range sched {
		due := start.Add(a.Due)
		// Sleeps end about a millisecond late on Linux whatever their
		// length, so arrivals leave in batches up to that late; the lag
		// is recorded and counted in every latency. Spinning instead
		// would take a core from the server on a 2-vCPU host.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- queued{a: a, start: start, lag: time.Since(due)}
	}
	close(queue)
	wg.Wait()
	return out
}

// tailPercentiles is the ladder latency_tail_ms climbs, up to p99.
var tailPercentiles = []float64{99, 95, 90, 75}

// minBeyond is the number of samples a reported tail percentile must
// have beyond it.
const minBeyond = 10

// tailPercentile picks the percentile latency_tail_ms reports for n
// samples: the highest percentile with at least minBeyond samples beyond
// it. That is the highest rung of tailPercentiles that qualifies; when
// none does, the rank that leaves exactly minBeyond samples beyond it.
// Below 2·minBeyond samples that rank would fall under the median, so
// the maximum (100) is reported instead.
func tailPercentile(n int) float64 {
	for _, q := range tailPercentiles {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	if n < 2*minBeyond {
		return 100
	}
	return 100 * float64(n-minBeyond) / float64(n)
}

// beyond counts the samples strictly above the nearest-rank q-th
// percentile of n samples.
func beyond(n int, q float64) int {
	return n - rankOf(n, q)
}

// rankOf is the 1-based nearest rank of the q-th percentile of n
// samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	// Guard the float product against landing a hair above an integer.
	if r > 1 && math.Abs(q/100*float64(n)-float64(r-1)) < 1e-9 {
		r--
	}
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank q-th percentile of xs (sorted in
// place); 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(len(xs), q)-1]
}

// median is percentile 50.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// latencyStats summarizes latencies in milliseconds: the median, the
// tail at tailPercentile and that percentile.
type latencyStats struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	Tail    float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_percentile"`
}

func summarize(ms []float64) latencyStats {
	xs := append([]float64(nil), ms...)
	q := tailPercentile(len(xs))
	return latencyStats{N: len(xs), P50: percentile(xs, 50), Tail: percentile(xs, q), TailPct: q}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
