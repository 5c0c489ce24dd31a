package measure

import (
	"math"
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
	"advdiag/internal/phys"
	"advdiag/internal/trace"
)

func assayFor(t testing.TB, target string, tech enzyme.Technique) enzyme.Assay {
	t.Helper()
	for _, a := range enzyme.AssaysFor(target) {
		if a.Technique == tech {
			return a
		}
	}
	t.Fatalf("no %v assay for %s", tech, target)
	return enzyme.Assay{}
}

func glucoseCell(t *testing.T, concMM float64) *cell.Cell {
	t.Helper()
	a := assayFor(t, "glucose", enzyme.Chronoamperometry)
	we := electrode.NewWorking("WE1", electrode.CNT, a)
	sol := cell.NewSolution().Set("glucose", phys.MilliMolar(concMM))
	return cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
}

func TestRunCASteadyStateMatchesKinetics(t *testing.T) {
	eng, err := NewEngine(glucoseCell(t, 2), 42)
	if err != nil {
		t.Fatal(err)
	}
	chain := analog.NewNanoChain(nil, eng.RNG())
	res, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: 150})
	if err != nil {
		t.Fatal(err)
	}
	a := assayFor(t, "glucose", enzyme.Chronoamperometry)
	wantJ := a.Oxidase.CurrentDensity(phys.MilliMolar(2), res.Applied, enzyme.CNTGain)
	want := wantJ * float64(electrode.ReferenceArea)
	got := float64(res.SteadyCurrent())
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("steady current %.4g, kinetic prediction %.4g", got, want)
	}
}

func TestRunCAUsesTableIPotential(t *testing.T) {
	eng, _ := NewEngine(glucoseCell(t, 1), 1)
	chain := analog.NewNanoChain(nil, eng.RNG())
	res, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Default potential = glucose oxidase +550 mV (within the
	// potentiostat's sub-mV control error).
	if math.Abs(res.Applied.MilliVolts()-550) > 1 {
		t.Fatalf("applied %g mV, want ≈550", res.Applied.MilliVolts())
	}
}

func TestRunCAMembraneTransient(t *testing.T) {
	// After an injection the surface concentration approaches the bulk
	// with τ ≈ 13 s. Because of the Michaelis–Menten curvature the
	// current fraction at t0+τ is slightly above 1−e⁻¹ in concentration
	// terms; compare against the model's own prediction.
	a := assayFor(t, "glucose", enzyme.Chronoamperometry)
	we := electrode.NewWorking("WE1", electrode.CNT, a)
	sol := cell.NewSolution().Inject(5, "glucose", phys.MilliMolar(2))
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, _ := NewEngine(c, 7)
	chain := analog.NewNanoChain(nil, eng.RNG())
	chain.Noise = nil
	res, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: 150})
	if err != nil {
		t.Fatal(err)
	}
	iss := float64(res.SteadyCurrent())
	atTau := res.Current.At(5 + electrode.DefaultMembraneTau)
	csTau := 2 * (1 - math.Exp(-1)) // surface concentration at τ
	wantFrac := a.Oxidase.CurrentDensity(phys.Concentration(csTau), res.Applied, enzyme.CNTGain) /
		a.Oxidase.CurrentDensity(phys.MilliMolar(2), res.Applied, enzyme.CNTGain)
	frac := atTau / iss
	if math.Abs(frac-wantFrac) > 0.12 {
		t.Fatalf("I(τ)/Iss = %g, want ≈%g", frac, wantFrac)
	}
}

func TestRunCABlankNeedsPotential(t *testing.T) {
	blank := electrode.NewBlankWorking("WEB")
	sol := cell.NewSolution()
	c := cell.NewSingleChamber(sol, blank, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, _ := NewEngine(c, 1)
	chain := analog.NewNanoChain(nil, eng.RNG())
	if _, err := eng.RunCA("WEB", chain, Chronoamperometry{Duration: 5}); err == nil {
		t.Fatal("blank electrode without explicit potential must fail")
	}
	if _, err := eng.RunCA("WEB", chain, Chronoamperometry{Potential: phys.MilliVolts(650), Duration: 5}); err != nil {
		t.Fatalf("blank with potential: %v", err)
	}
}

func TestRunCARejectsCVElectrode(t *testing.T) {
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	we := electrode.NewWorking("WE1", electrode.Bare, a)
	sol := cell.NewSolution().Set("benzphetamine", 1)
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, _ := NewEngine(c, 1)
	chain := analog.NewNanoChain(nil, eng.RNG())
	if _, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: 5}); err == nil {
		t.Fatal("chronoamperometry on a CYP electrode must fail")
	}
}

func TestCrosstalkSmallButPresent(t *testing.T) {
	// Two co-chambered oxidase electrodes: the glucose electrode must
	// see a small parasitic current from the lactate electrode's H₂O₂.
	ag := assayFor(t, "glucose", enzyme.Chronoamperometry)
	al := assayFor(t, "lactate", enzyme.Chronoamperometry)
	weG := electrode.NewWorking("WEG", electrode.CNT, ag)
	weL := electrode.NewWorking("WEL", electrode.CNT, al)
	mk := func(lactateMM float64) float64 {
		sol := cell.NewSolution().Set("lactate", phys.MilliMolar(lactateMM))
		c := cell.NewSingleChamber(sol, weG, weL, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
		eng, err := NewEngine(c, 5)
		if err != nil {
			t.Fatal(err)
		}
		chain := analog.NewNanoChain(nil, eng.RNG())
		chain.Noise = nil
		res, err := eng.RunCA("WEG", chain, Chronoamperometry{Duration: 60})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.SteadyCurrent())
	}
	without := mk(0)
	with := mk(2)
	leak := with - without
	if leak <= 0 {
		t.Fatalf("no cross-talk current detected (%.3g vs %.3g)", with, without)
	}
	// The paper's argument: the leak is small. Compare against the
	// lactate electrode's own signal at 2 mM.
	ownJ := al.Oxidase.CurrentDensity(phys.MilliMolar(2), al.Oxidase.Applied, enzyme.CNTGain)
	own := ownJ * float64(electrode.ReferenceArea)
	if leak/own > 0.05 {
		t.Fatalf("cross-talk %.1f%% of neighbour signal: too large", 100*leak/own)
	}
}

func TestDirectOxidizerInterference(t *testing.T) {
	// Dopamine raises the blank current at an enzyme-free electrode —
	// the paper's caveat about CDS (§II-C).
	mk := func(dopamineMM float64) float64 {
		blank := electrode.NewBlankWorking("WEB")
		sol := cell.NewSolution().Set("dopamine", phys.MilliMolar(dopamineMM))
		c := cell.NewSingleChamber(sol, blank, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
		eng, _ := NewEngine(c, 9)
		chain := analog.NewNanoChain(nil, eng.RNG())
		chain.Noise = nil
		res, err := eng.RunCA("WEB", chain, Chronoamperometry{Potential: phys.MilliVolts(650), Duration: 30})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.SteadyCurrent())
	}
	if raised := mk(0.5) - mk(0); raised <= 0 {
		t.Fatal("dopamine must add current at a bare electrode")
	}
}

func TestApplyCDSRemovesCommonMode(t *testing.T) {
	a := assayFor(t, "glucose", enzyme.Chronoamperometry)
	we := electrode.NewWorking("WE1", electrode.CNT, a)
	blank := electrode.NewBlankWorking("WEB")
	sol := cell.NewSolution().Set("glucose", phys.MilliMolar(1))
	c := cell.NewSingleChamber(sol, we, blank, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, _ := NewEngine(c, 21)
	chain := analog.NewOxidaseChain(nil, eng.RNG())
	chain.Readout.OutputOffset = phys.MilliVolts(5) // deliberate offset
	sig, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: 30})
	if err != nil {
		t.Fatal(err)
	}
	chain2 := analog.NewOxidaseChain(nil, eng.RNG())
	chain2.Readout.OutputOffset = phys.MilliVolts(5)
	bl, err := eng.RunCA("WEB", chain2, Chronoamperometry{Potential: a.Oxidase.Applied, Duration: 30})
	if err != nil {
		t.Fatal(err)
	}
	cds, err := ApplyCDS(sig.Recorded, bl.Recorded)
	if err != nil {
		t.Fatal(err)
	}
	// The 5 mV offset must vanish from the corrected trace: compare the
	// corrected steady level with the raw one.
	rawSteady := mathx.Mean(sig.Recorded.Tail(0.2))
	cdsSteady := mathx.Mean(cds.Tail(0.2))
	if math.Abs(rawSteady-cdsSteady-0) < 0.004 {
		t.Fatalf("CDS did not remove the offset: raw %g, cds %g", rawSteady, cdsSteady)
	}
}

func TestApplyCDSRejectsMisaligned(t *testing.T) {
	s1, _ := trace.NewSeries(0, 0.1, 10, "V")
	s2, _ := trace.NewSeries(0, 0.2, 10, "V")
	if _, err := ApplyCDS(s1, s2); err == nil {
		t.Fatal("misaligned traces must fail")
	}
}

func TestRunCVPeakAtTableIIPotential(t *testing.T) {
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	we := electrode.NewWorking("WE1", electrode.Bare, a)
	sol := cell.NewSolution().Set("benzphetamine", phys.MilliMolar(1))
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, _ := NewEngine(c, 42)
	chain := analog.NewPicoChain(nil, eng.RNG())
	start, vertex := CVWindowFor(a.Binding.PeakPotential)
	res, err := eng.RunCV("WE1", chain, CyclicVoltammetry{Start: start, Vertex: vertex})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the cathodic minimum on the forward (first) branch.
	vg := res.Voltammogram
	minI, minV := 0.0, 0.0
	for i := 0; i < vg.Len(); i++ {
		if i > 0 && vg.X[i] > vg.X[i-1] {
			break // vertex reached
		}
		if vg.Y[i] < minI {
			minI, minV = vg.Y[i], vg.X[i]
		}
	}
	if math.Abs(minV*1e3-(-250)) > 15 {
		t.Fatalf("cathodic peak at %.0f mV (%.3g A), want −250 ± 15", minV*1e3, minI)
	}
}

func TestRunCVSweepRateGuard(t *testing.T) {
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	we := electrode.NewWorking("WE1", electrode.Bare, a)
	sol := cell.NewSolution().Set("benzphetamine", phys.MilliMolar(1))
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, _ := NewEngine(c, 1)
	chain := analog.NewPicoChain(nil, eng.RNG())
	proto := CyclicVoltammetry{Start: 0, Vertex: phys.MilliVolts(-500), Rate: phys.MilliVoltsPerSecond(500)}
	if _, err := eng.RunCV("WE1", chain, proto); err == nil {
		t.Fatal("500 mV/s without AllowFastSweep must fail")
	}
	proto.AllowFastSweep = true
	if _, err := eng.RunCV("WE1", chain, proto); err != nil {
		t.Fatalf("AllowFastSweep run failed: %v", err)
	}
}

func TestCVTemplatesLinearity(t *testing.T) {
	// The voltammogram of a 2 mM sample must equal 2× the unit template
	// (noise-free chain) up to capacitive background.
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	we := electrode.NewWorking("WE1", electrode.Bare, a)
	sol := cell.NewSolution().Set("benzphetamine", phys.MilliMolar(0.2)) // well below Km
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, _ := NewEngine(c, 1)
	start, vertex := CVWindowFor(a.Binding.PeakPotential)
	proto := CyclicVoltammetry{Start: start, Vertex: vertex}
	grid, templates, err := eng.CVTemplates("WE1", proto)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Len() == 0 {
		t.Fatal("empty template grid")
	}
	tpl, ok := templates["benzphetamine"]
	if !ok {
		t.Fatal("missing benzphetamine template")
	}
	if len(tpl) != grid.Len() {
		t.Fatalf("template length %d vs grid %d", len(tpl), grid.Len())
	}
	// Peak of the unit template ≈ θ·RS prediction.
	peak := 0.0
	for _, v := range tpl {
		if -v > peak {
			peak = -v
		}
	}
	want := float64(a.Binding.PeakSensitivityAt(proto.WithDefaults().Rate, 1)) * float64(electrode.ReferenceArea)
	if math.Abs(peak-want)/want > 0.05 {
		t.Fatalf("unit template peak %.4g vs θ·RS %.4g", peak, want)
	}
}

func TestCVWindowFor(t *testing.T) {
	start, vertex := CVWindowFor(phys.MilliVolts(-250), phys.MilliVolts(-400))
	if math.Abs(start.MilliVolts()-0) > 1e-9 {
		t.Fatalf("start %g mV, want 0", start.MilliVolts())
	}
	if math.Abs(vertex.MilliVolts()-(-650)) > 1e-9 {
		t.Fatalf("vertex %g mV, want −650", vertex.MilliVolts())
	}
}

func TestProtocolDefaults(t *testing.T) {
	ca := Chronoamperometry{}.WithDefaults()
	if ca.Duration != 60 || ca.SampleInterval != 0.1 {
		t.Fatalf("CA defaults: %+v", ca)
	}
	cv := CyclicVoltammetry{Start: 0, Vertex: -0.5}.WithDefaults()
	if cv.Rate != phys.MilliVoltsPerSecond(20) || cv.Cycles != 1 {
		t.Fatalf("CV defaults: %+v", cv)
	}
	// One sample per millivolt at the default rate.
	if math.Abs(cv.SampleInterval-0.05) > 1e-12 {
		t.Fatalf("CV sample interval %g", cv.SampleInterval)
	}
}
