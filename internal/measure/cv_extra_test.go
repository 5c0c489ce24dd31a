package measure

import (
	"math"
	"strings"
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
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
	chain := analog.NewNanoChain(nil, eng.RNG())
	if _, _, err := eng.CVTemplates("WE1", CyclicVoltammetry{Start: 0, Vertex: phys.MilliVolts(-500)}, chain); err == nil {
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

// TestCVBasisGridMatchesRunGrid: runCV reads its sweep-grid tables
// (potentials and film bump shapes) from the basis. A basis computed
// through another chain with the same potentiostat must therefore give
// runs bit-identical to one computed through the run's own chain, and a
// chain whose potentiostat differs from the basis' must be refused.
func TestCVBasisGridMatchesRunGrid(t *testing.T) {
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	var peaks []phys.Voltage
	for _, b := range a.CYP.Bindings {
		peaks = append(peaks, b.PeakPotential)
	}
	start, vertex := CVWindowFor(peaks...)
	proto := CyclicVoltammetry{Start: start, Vertex: vertex}

	run := func(ownChain bool) *CVResult {
		eng, err := NewEngine(cypCVCell(t), 5)
		if err != nil {
			t.Fatal(err)
		}
		chain := analog.NewNanoChain(nil, eng.RNG())
		basisChain := chain
		if !ownChain {
			basisChain = analog.NewPicoChain(nil, mathx.NewRNG(1))
		}
		basis, err := eng.CVFluxBasis("WE1", proto, basisChain)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunCVWithBasis("WE1", chain, proto, basis)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	own, other := run(true), run(false)
	for name, pair := range map[string][2][]float64{
		"potential": {own.Potential.Values, other.Potential.Values},
		"raw":       {own.Raw.Values, other.Raw.Values},
		"recorded":  {own.Recorded.Values, other.Recorded.Values},
		"current":   {own.Current.Values, other.Current.Values},
	} {
		if i := firstBitDiff(pair[0], pair[1]); i >= 0 {
			t.Fatalf("%s[%d]: own-chain basis %g, other-chain basis %g", name, i, pair[0][i], pair[1][i])
		}
	}

	eng, err := NewEngine(cypCVCell(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	chain := analog.NewNanoChain(nil, eng.RNG())
	basis, err := eng.CVFluxBasis("WE1", proto, chain)
	if err != nil {
		t.Fatal(err)
	}
	offset := *chain.Pstat
	offset.Offset += phys.MilliVolts(1)
	chain.Pstat = &offset
	if _, err := eng.RunCVWithBasis("WE1", chain, proto, basis); err == nil {
		t.Fatal("basis accepted for a chain with another potentiostat")
	}
	if _, err := eng.CVFluxBasis("WE1", proto, nil); err == nil {
		t.Fatal("CVFluxBasis accepted a nil chain")
	}
}

// TestCVBasisServesSameIsoform: a basis depends on its electrode only
// through the isoform it simulated, so a replica carrying the same
// isoform runs on it bit for bit as on its own basis, while an
// electrode with another isoform is refused, naming both electrodes.
func TestCVBasisServesSameIsoform(t *testing.T) {
	cyp2b4 := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	cyp2e1 := assayFor(t, "p-nitrophenol", enzyme.CyclicVoltammetry)
	var peaks []phys.Voltage
	for _, b := range cyp2b4.CYP.Bindings {
		peaks = append(peaks, b.PeakPotential)
	}
	start, vertex := CVWindowFor(peaks...)
	proto := CyclicVoltammetry{Start: start, Vertex: vertex}
	run := func(basisWE string) (*CVResult, *Engine, *CVBasis) {
		sol := cell.NewSolution().Set("benzphetamine", phys.MilliMolar(1)).Set("aminopyrine", phys.MilliMolar(4))
		c := cell.NewSingleChamber(sol,
			electrode.NewWorking("WE1", electrode.Bare, cyp2b4),
			electrode.NewWorking("WE2", electrode.Bare, cyp2b4),
			electrode.NewWorking("WE3", electrode.Bare, cyp2e1),
			electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
		eng, err := NewEngine(c, 11)
		if err != nil {
			t.Fatal(err)
		}
		chain := analog.NewNanoChain(nil, eng.RNG())
		basis, err := eng.CVFluxBasis(basisWE, proto, chain)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunCVWithBasis("WE2", chain, proto, basis)
		if err != nil {
			t.Fatal(err)
		}
		return res, eng, basis
	}
	own, _, _ := run("WE2")
	shared, eng, basis := run("WE1")
	for i, v := range own.Recorded.Values {
		if math.Float64bits(v) != math.Float64bits(shared.Recorded.Values[i]) {
			t.Fatalf("recorded[%d]: own basis %g, WE1's basis %g", i, v, shared.Recorded.Values[i])
		}
	}
	_, err := eng.RunCVWithBasis("WE3", analog.NewNanoChain(nil, eng.RNG()), proto, basis)
	if err == nil || !strings.Contains(err.Error(), "WE1") || !strings.Contains(err.Error(), "WE3") {
		t.Fatalf("WE1's CYP2B4 basis on the CYP2E1 electrode WE3: err %v, want a refusal naming both", err)
	}
}
