//go:build race

package analysis

// raceEnabled reports a race-detector build, under which escape
// analysis differs and allocation counts stop matching the compiled
// binary.
const raceEnabled = true
