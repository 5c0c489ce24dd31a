//go:build !race

package analog

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
