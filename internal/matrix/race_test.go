//go:build race

package matrix

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so allocation counts of pooled code are
// not repeatable there.
const raceEnabled = true
