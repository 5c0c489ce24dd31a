//go:build race

package experiments

// raceEnabled reports a race-detector build, under which sync.Pool
// drops Puts at random and pooled allocation counts stop meaning
// anything.
const raceEnabled = true
