package main

import (
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"
)

// llcBytes reads the size of the last-level cache from sysfs (the
// highest cache index of CPU 0); 0 when it cannot be read.
func llcBytes() int64 {
	var best int64
	for idx := 0; idx < 8; idx++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(idx) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// fallbackLLC is assumed when sysfs does not report a cache size.
const fallbackLLC = 32 << 20

// copyReps is the number of timed copies; the best one is reported.
const copyReps = 3

// copyBandwidth measures memory copy bandwidth on a working set of four
// times the last-level cache: one buffer whose first half is copied onto
// its second half. It reports the buffer and cache sizes in the notes and
// returns GB/s counting the bytes read plus the bytes written.
func copyBandwidth(rep *report) float64 {
	llc := llcBytes()
	if llc <= 0 {
		llc = fallbackLLC
	}
	working := 4 * llc
	buf := make([]float64, working/8)
	for i := range buf {
		buf[i] = float64(i)
	}
	half := len(buf) / 2
	best := time.Duration(1<<63 - 1)
	for r := 0; r < copyReps; r++ {
		t0 := time.Now()
		copy(buf[half:], buf[:half])
		best = min(best, time.Since(t0))
	}
	rep.notes["copy_working_set_bytes"] = working
	rep.notes["llc_bytes"] = llc
	return float64(2*half*8) / float64(best)
}

// newRand returns a PCG generator for one input stream of seed.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}
