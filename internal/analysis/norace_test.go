//go:build !race

package analysis

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
