//go:build !race

package matrix

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
