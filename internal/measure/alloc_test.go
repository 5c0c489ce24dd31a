package measure

import (
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
)

// The allocation-regression suite pins the tentpole property of the
// measurement layer: the per-timestep loops allocate nothing, so a
// run's allocation count is a small constant independent of its
// duration. Rather than asserting a brittle absolute number, each test
// compares a short and a long run of the same protocol — any per-step
// allocation shows up as a difference that scales with the step count.

// crossTalkCell builds a two-electrode shared chamber with a
// direct-oxidizer interferent, exercising every per-step source the CA
// loop has (target membrane lag, neighbour cross-talk, interferents).
func crossTalkCell(t *testing.T) *cell.Cell {
	t.Helper()
	glu := assayFor(t, "glucose", enzyme.Chronoamperometry)
	lac := assayFor(t, "lactate", enzyme.Chronoamperometry)
	sol := cell.NewSolution().
		Set("glucose", phys.MilliMolar(2)).
		Set("lactate", phys.MilliMolar(1)).
		Set("dopamine", phys.MilliMolar(0.05))
	return cell.NewSingleChamber(sol,
		electrode.NewWorking("WE1", electrode.CNT, glu),
		electrode.NewWorking("WE2", electrode.CNT, lac),
		electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
}

func caAllocs(t *testing.T, eng *Engine, duration float64) float64 {
	t.Helper()
	chain := analog.NewNanoChain(nil, eng.RNG())
	return testing.AllocsPerRun(8, func() {
		if _, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: duration}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRunCAAllocsDurationIndependent(t *testing.T) {
	eng, err := NewEngine(crossTalkCell(t), 7)
	if err != nil {
		t.Fatal(err)
	}
	short := caAllocs(t, eng, 30) // 301 steps
	long := caAllocs(t, eng, 120) // 1201 steps
	// 900 extra steps may not add allocations beyond measurement jitter.
	if long-short > 2 {
		t.Fatalf("RunCA allocations scale with duration: %.1f at 30 s vs %.1f at 120 s", short, long)
	}
	// And the constant itself stays small: 7 objects for the result and
	// its series (the samplers are held by value), plus 2 of headroom;
	// never per-step garbage.
	if long > 9 {
		t.Fatalf("RunCA allocates %.1f objects per run, want ≤ 9", long)
	}
}

func cvAllocs(t *testing.T, eng *Engine, proto CyclicVoltammetry, basis *CVBasis) float64 {
	t.Helper()
	chain := analog.NewNanoChain(nil, eng.RNG())
	return testing.AllocsPerRun(5, func() {
		var err error
		if basis != nil {
			_, err = eng.RunCVWithBasis("WE1", chain, proto, basis)
		} else {
			_, err = eng.RunCV("WE1", chain, proto)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
}

func cypCVCell(t *testing.T) *cell.Cell {
	t.Helper()
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	sol := cell.NewSolution().
		Set("benzphetamine", phys.MilliMolar(1)).
		Set("aminopyrine", phys.MilliMolar(4))
	return cell.NewSingleChamber(sol,
		electrode.NewWorking("WE1", electrode.Bare, a),
		electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
}

func TestRunCVAllocsCycleIndependent(t *testing.T) {
	eng, err := NewEngine(cypCVCell(t), 7)
	if err != nil {
		t.Fatal(err)
	}
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	var peaks []phys.Voltage
	for _, b := range a.CYP.Bindings {
		peaks = append(peaks, b.PeakPotential)
	}
	start, vertex := CVWindowFor(peaks...)
	one := CyclicVoltammetry{Start: start, Vertex: vertex, Cycles: 1}
	two := CyclicVoltammetry{Start: start, Vertex: vertex, Cycles: 2}

	short := cvAllocs(t, eng, one, nil)
	long := cvAllocs(t, eng, two, nil)
	// Doubling the sweep doubles the step count; the per-run constant
	// (result series, solvers, film bumps) must not follow it.
	if long-short > 2 {
		t.Fatalf("RunCV allocations scale with cycles: %.1f at 1 cycle vs %.1f at 2", short, long)
	}

	// The basis path must hold the same property while skipping the
	// solver construction entirely.
	chain := analog.NewNanoChain(nil, eng.RNG())
	basisOne, err := eng.CVFluxBasis("WE1", one, chain)
	if err != nil {
		t.Fatal(err)
	}
	basisTwo, err := eng.CVFluxBasis("WE1", two, chain)
	if err != nil {
		t.Fatal(err)
	}
	shortB := cvAllocs(t, eng, one, basisOne)
	longB := cvAllocs(t, eng, two, basisTwo)
	if longB-shortB > 2 {
		t.Fatalf("RunCVWithBasis allocations scale with cycles: %.1f vs %.1f", shortB, longB)
	}
	if longB >= long {
		t.Fatalf("basis path must allocate less than simulation (%.1f vs %.1f)", longB, long)
	}
}

// TestRunCAUnknownSpeciesError pins the satellite bugfix: an unknown
// species in the chamber solution fails the run up front instead of
// being silently skipped on every timestep.
func TestRunCAUnknownSpeciesError(t *testing.T) {
	a := assayFor(t, "glucose", enzyme.Chronoamperometry)
	sol := cell.NewSolution().
		Set("glucose", phys.MilliMolar(2)).
		Set("unobtainium", phys.MilliMolar(1))
	c := cell.NewSingleChamber(sol,
		electrode.NewWorking("WE1", electrode.CNT, a),
		electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, err := NewEngine(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	chain := analog.NewNanoChain(nil, eng.RNG())
	if _, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: 10}); err == nil {
		t.Fatal("RunCA accepted a solution with an unknown species")
	}
}

// TestRunCVBasisMatchesSimulation checks the linearity substitution
// every CV run relies on: a run on a basis computed through its chain
// reproduces the per-binding simulation of referenceRunCV to solver
// tolerance (same noise stream, same protocol).
func TestRunCVBasisMatchesSimulation(t *testing.T) {
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	var peaks []phys.Voltage
	for _, b := range a.CYP.Bindings {
		peaks = append(peaks, b.PeakPotential)
	}
	start, vertex := CVWindowFor(peaks...)
	proto := CyclicVoltammetry{Start: start, Vertex: vertex}

	engSim, err := NewEngine(cypCVCell(t), 99)
	if err != nil {
		t.Fatal(err)
	}
	engBas, err := NewEngine(cypCVCell(t), 99)
	if err != nil {
		t.Fatal(err)
	}
	chain := analog.NewNanoChain(nil, engBas.RNG())
	basis, err := engBas.CVFluxBasis("WE1", proto, chain)
	if err != nil {
		t.Fatal(err)
	}

	simRes, err := referenceRunCV(engSim, "WE1", analog.NewNanoChain(nil, engSim.RNG()), proto)
	if err != nil {
		t.Fatal(err)
	}
	basRes, err := engBas.RunCVWithBasis("WE1", chain, proto, basis)
	if err != nil {
		t.Fatal(err)
	}

	// Compare raw traces (pre-quantization): the faradaic term differs
	// only by float re-association — well under 1% of the cathodic
	// peak.
	peak := 0.0
	for _, v := range simRes.Raw.Values {
		if -v > peak {
			peak = -v
		}
	}
	if peak <= 0 {
		t.Fatal("no cathodic peak in simulated run")
	}
	for i := range simRes.Raw.Values {
		diff := simRes.Raw.Values[i] - basRes.Raw.Values[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.01*peak {
			t.Fatalf("sample %d: basis %.4g vs sim %.4g differs by %.2f%% of peak",
				i, basRes.Raw.Values[i], simRes.Raw.Values[i], 100*diff/peak)
		}
	}

	// Mismatched protocol or electrode must be rejected.
	if _, err := engBas.RunCVWithBasis("WE1", analog.NewNanoChain(nil, engBas.RNG()),
		CyclicVoltammetry{Start: start + 0.1, Vertex: vertex}, basis); err == nil {
		t.Fatal("basis accepted for a different protocol")
	}
}
