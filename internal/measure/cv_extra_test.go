package measure

import (
	"math"
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
)

func benzCell(t *testing.T, concMM float64) *cell.Cell {
	t.Helper()
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	we := electrode.NewWorking("WE1", electrode.Bare, a)
	sol := cell.NewSolution().Set("benzphetamine", phys.MilliMolar(concMM))
	return cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
}

func TestRunCVMultiCycle(t *testing.T) {
	eng, _ := NewEngine(benzCell(t, 1), 3)
	chain := analog.NewPicoChain(nil, eng.RNG())
	start, vertex := CVWindowFor(phys.MilliVolts(-250))
	res, err := eng.RunCV("WE1", chain, CyclicVoltammetry{
		Start: start, Vertex: vertex, Cycles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The voltammogram covers one (the final) cycle even with two swept.
	proto := CyclicVoltammetry{Start: start, Vertex: vertex, Cycles: 1}.WithDefaults()
	wantSamples := int(2*math.Abs(float64(start-vertex))/float64(proto.Rate)/proto.SampleInterval) + 1
	if math.Abs(float64(res.Voltammogram.Len()-wantSamples)) > 3 {
		t.Fatalf("voltammogram %d samples, want ≈%d (one cycle)", res.Voltammogram.Len(), wantSamples)
	}
	// Total recorded trace covers both cycles.
	if res.Potential.Len() < 2*wantSamples-4 {
		t.Fatalf("potential trace %d samples for two cycles", res.Potential.Len())
	}
}

func TestRunCVBlankElectrodeBackgroundOnly(t *testing.T) {
	blank := electrode.NewBlankWorking("WEB")
	sol := cell.NewSolution()
	c := cell.NewSingleChamber(sol, blank, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, _ := NewEngine(c, 5)
	chain := analog.NewPicoChain(nil, eng.RNG())
	res, err := eng.RunCV("WEB", chain, CyclicVoltammetry{Start: 0, Vertex: phys.MilliVolts(-500)})
	if err != nil {
		t.Fatal(err)
	}
	// No faradaic peaks: the current is capacitive + noise, well below
	// a nanoampere everywhere.
	for i, y := range res.Voltammogram.Y {
		if math.Abs(y) > 3e-9 {
			t.Fatalf("blank CV sample %d carries %.3g A", i, y)
		}
	}
}

func TestRunCVRejectsOxidaseElectrode(t *testing.T) {
	eng, _ := NewEngine(glucoseCell(t, 1), 1)
	chain := analog.NewPicoChain(nil, eng.RNG())
	if _, err := eng.RunCV("WE1", chain, CyclicVoltammetry{Start: 0, Vertex: phys.MilliVolts(-500)}); err == nil {
		t.Fatal("cyclic voltammetry on an oxidase electrode must fail")
	}
}

func TestCVTemplatesRejectsBlankAndOxidase(t *testing.T) {
	eng, _ := NewEngine(glucoseCell(t, 1), 1)
	if _, _, err := eng.CVTemplates("WE1", CyclicVoltammetry{Start: 0, Vertex: phys.MilliVolts(-500)}); err == nil {
		t.Fatal("templates for an oxidase electrode must fail")
	}
}

func TestRunCVAbsentSubstrateGivesNoTemplatePeak(t *testing.T) {
	// Benzphetamine electrode with NOTHING in solution: the fitted
	// amplitudes on a later decomposition would be ≈0; here we check the
	// raw faradaic signal is flat.
	eng, _ := NewEngine(benzCell(t, 0), 9)
	chain := analog.NewPicoChain(nil, eng.RNG())
	chain.Noise = nil
	start, vertex := CVWindowFor(phys.MilliVolts(-250))
	res, err := eng.RunCV("WE1", chain, CyclicVoltammetry{Start: start, Vertex: vertex, NoFilmBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	// Only the flat capacitive background remains on the forward branch.
	half := res.Voltammogram.Len() / 2
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 10; i < half; i++ {
		y := res.Voltammogram.Y[i]
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	if hi-lo > 0.3e-9 {
		t.Fatalf("no-substrate forward branch varies by %.3g A", hi-lo)
	}
}

func TestAgedElectrodeLosesSignal(t *testing.T) {
	a := assayFor(t, "glucose", enzyme.Chronoamperometry)
	run := func(ageDays float64) float64 {
		we := electrode.NewWorking("WE1", electrode.CNT, a)
		we.Func.AgeSeconds = ageDays * 24 * 3600
		sol := cell.NewSolution().Set("glucose", phys.MilliMolar(2))
		c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
		eng, err := NewEngine(c, 7)
		if err != nil {
			t.Fatal(err)
		}
		chain := analog.NewNanoChain(nil, eng.RNG())
		chain.Noise = nil
		res, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: 60})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.SteadyCurrent())
	}
	fresh := run(0)
	aged := run(5) // one stability τ
	ratio := aged / fresh
	if math.Abs(ratio-math.Exp(-1)) > 0.08 {
		t.Fatalf("5-day-aged signal ratio %.3f, want ≈1/e", ratio)
	}
}

// TestCVBasisGridMatchesRunGrid: a basis computed through the run's
// potentiostat lends runCV its sweep-grid tables (potentials and film
// bump shapes); a basis computed without one makes runCV evaluate them
// for the run. Given the same faradaic trace, the two must produce
// bit-identical runs.
func TestCVBasisGridMatchesRunGrid(t *testing.T) {
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	var peaks []phys.Voltage
	for _, b := range a.CYP.Bindings {
		peaks = append(peaks, b.PeakPotential)
	}
	start, vertex := CVWindowFor(peaks...)
	proto := CyclicVoltammetry{Start: start, Vertex: vertex}

	run := func(chainBasis bool) *CVResult {
		eng, err := NewEngine(cypCVCell(t), 5)
		if err != nil {
			t.Fatal(err)
		}
		chain := analog.NewNanoChain(nil, eng.RNG())
		withChain, err := eng.CVFluxBasis("WE1", proto, chain)
		if err != nil {
			t.Fatal(err)
		}
		basis := withChain
		if !chainBasis {
			if basis, err = eng.CVFluxBasis("WE1", proto, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := basis.grid.drivenBy(chain.Pstat); got != chainBasis {
			t.Fatalf("basis grid drivenBy(run potentiostat) = %v, want %v", got, chainBasis)
		}
		far, err := eng.CVFaradaicSum("WE1", proto, withChain, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunCVShared("WE1", chain, proto, basis, far)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shared, own := run(true), run(false)
	for name, pair := range map[string][2][]float64{
		"potential": {shared.Potential.Values, own.Potential.Values},
		"raw":       {shared.Raw.Values, own.Raw.Values},
		"recorded":  {shared.Recorded.Values, own.Recorded.Values},
	} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s[%d]: basis grid %g, run grid %g", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}
