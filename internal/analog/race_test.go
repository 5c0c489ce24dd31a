//go:build race

package analog

// raceEnabled reports a race-detector build, under which escape
// analysis differs and allocation counts stop matching the compiled
// binary.
const raceEnabled = true
