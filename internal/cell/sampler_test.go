package cell

import (
	"slices"
	"testing"

	"advdiag/internal/phys"
)

// TestSamplerMatchesAt drives a Sampler and Solution.At over the same
// timeline and demands bit-identical results, including the
// floor-at-zero of over-withdrawn species and out-of-order queries.
func TestSamplerMatchesAt(t *testing.T) {
	sol := NewSolution().
		Set("glucose", phys.MilliMolar(2)).
		Inject(10, "glucose", phys.MilliMolar(1)).
		Inject(20, "glucose", phys.MilliMolar(-5)). // floors at zero
		Inject(30, "glucose", phys.MilliMolar(2)).
		Inject(15, "lactate", phys.MilliMolar(1))

	times := []float64{0, 5, 9.999, 10, 10.5, 19, 20, 25, 30, 31, 100}
	for _, species := range []string{"glucose", "lactate", "unknown"} {
		sm := sol.Sampler(species)
		for _, tm := range times {
			if got, want := sm.At(tm), sol.At(species, tm); got != want {
				t.Fatalf("%s at t=%g: sampler %v, At %v", species, tm, got, want)
			}
		}
		// Rewind: a query before the previous one must still be exact.
		for i := len(times) - 1; i >= 0; i-- {
			tm := times[i]
			if got, want := sm.At(tm), sol.At(species, tm); got != want {
				t.Fatalf("%s rewound to t=%g: sampler %v, At %v", species, tm, got, want)
			}
		}
	}
}

// TestSamplerAllocFree pins the hot-path property the measurement loops
// rely on: advancing a sampler allocates nothing.
func TestSamplerAllocFree(t *testing.T) {
	sol := NewSolution().
		Set("glucose", phys.MilliMolar(2)).
		Inject(5, "glucose", phys.MilliMolar(1))
	sm := sol.Sampler("glucose")
	tm := 0.0
	if allocs := testing.AllocsPerRun(500, func() {
		tm += 0.05
		sm.At(tm)
	}); allocs != 0 {
		t.Fatalf("Sampler.At allocates %.0f objects per call, want 0", allocs)
	}
}

// TestSpeciesCache checks the incrementally maintained species list
// stays sorted, deduplicated, and isolated from caller mutation.
func TestSpeciesCache(t *testing.T) {
	sol := NewSolution().
		Set("lactate", 1).
		Set("glucose", 1).
		Inject(1, "aminopyrine", 1).
		Inject(2, "lactate", 1). // duplicate name via injection
		Set("glucose", 2)        // duplicate name via Set
	want := []string{"aminopyrine", "glucose", "lactate"}
	got := sol.Species()
	if len(got) != len(want) {
		t.Fatalf("Species() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Species() = %v, want %v", got, want)
		}
	}
	if all := slices.Collect(sol.AllSpecies()); !slices.Equal(all, want) {
		t.Fatalf("AllSpecies() = %v, want %v", all, want)
	}
	// The returned slice is a copy.
	got[0] = "mutated"
	if again := sol.Species(); again[0] != "aminopyrine" {
		t.Fatal("Species() must return a copy, caller mutation leaked")
	}
}
