package cell

import (
	"math"
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

// TestSamplerNext checks that Next names the time of the step At will
// apply next, is +Inf once no step is left or for a species with none,
// and is +Inf too for a species whose only injection came at a NaN time
// (Inject drops it), so a minimum over several samplers never turns NaN.
func TestSamplerNext(t *testing.T) {
	inf := math.Inf(1)
	sol := NewSolution().
		Set("glucose", phys.MilliMolar(2)).
		Inject(10, "glucose", phys.MilliMolar(1)).
		Inject(20, "glucose", phys.MilliMolar(-5)).
		Inject(20, "glucose", phys.MilliMolar(1)). // same time as the step before
		Inject(30, "glucose", phys.MilliMolar(2)).
		Inject(15, "lactate", phys.MilliMolar(1))

	sm := sol.Sampler("glucose")
	if got := sm.Next(); got != 10 {
		t.Fatalf("Next before any At = %g, want 10", got)
	}
	for _, c := range []struct{ at, next float64 }{
		{0, 10}, {9.999, 10}, {10, 20}, {19.5, 20}, {20, 30}, {29, 30}, {30, inf}, {100, inf},
	} {
		sm.At(c.at)
		if got := sm.Next(); got != c.next {
			t.Fatalf("Next after At(%g) = %g, want %g", c.at, got, c.next)
		}
	}
	// A rewind puts the cursor back in front of the first step.
	sm.At(5)
	if got := sm.Next(); got != 10 {
		t.Fatalf("Next after rewinding to 5 = %g, want 10", got)
	}

	unknown := sol.Sampler("unknown")
	unknown.At(0)
	if got := unknown.Next(); got != inf {
		t.Fatalf("unknown species: Next = %g, want +Inf", got)
	}

	nan := NewSolution().
		Set("glucose", phys.MilliMolar(1)).
		Inject(math.NaN(), "glucose", phys.MilliMolar(1))
	ns := nan.Sampler("glucose")
	for _, tm := range []float64{0, 1e9, inf} {
		c := ns.At(tm)
		if got := ns.Next(); got != inf {
			t.Fatalf("NaN step: Next after At(%g) = %g, want +Inf", tm, got)
		}
		if c != phys.MilliMolar(1) {
			t.Fatalf("NaN step: At(%g) = %v, want the initial 1 mM (the step is dropped)", tm, c)
		}
	}
	if got := min(ns.Next(), sm.Next()); got != 10 {
		t.Fatalf("min over a NaN-stepped and a live sampler = %g, want 10", got)
	}
}

// TestNaNInjectionDropped checks that Solution.At and a Sampler agree on
// a timeline with a NaN-time injection: the step is dropped, so both
// read the initial 1 mM before the valid step at t = 5 and 2 mM after
// it.
func TestNaNInjectionDropped(t *testing.T) {
	sol := NewSolution().
		Set("glucose", phys.MilliMolar(1)).
		Inject(math.NaN(), "glucose", phys.MilliMolar(1)).
		Inject(5, "glucose", phys.MilliMolar(1))
	sm := sol.Sampler("glucose")
	for _, c := range []struct {
		at   float64
		want phys.Concentration
	}{{0, phys.MilliMolar(1)}, {6, phys.MilliMolar(2)}} {
		if got := sol.At("glucose", c.at); got != c.want {
			t.Fatalf("Solution.At(%g) = %v, want %v", c.at, got, c.want)
		}
		if got := sm.At(c.at); got != c.want {
			t.Fatalf("Sampler.At(%g) = %v, want %v", c.at, got, c.want)
		}
	}
}
