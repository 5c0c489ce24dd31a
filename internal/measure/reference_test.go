package measure

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/echem"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
	"advdiag/internal/species"
	"advdiag/internal/trace"
)

// referenceRunCA is RunCA with the pass-1 loop that evaluates every
// source on every sample: one Sampler.At call and one Michaelis–Menten
// term per source per sample, summed in source order. It is the oracle
// RunCA's segment-constant pass 1 must reproduce bit for bit.
func referenceRunCA(e *Engine, weName string, chain *analog.Chain, proto Chronoamperometry) (*CAResult, error) {
	proto = proto.WithDefaults()
	if err := proto.Validate(); err != nil {
		return nil, err
	}
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	we, err := e.Cell.FindWE(weName)
	if err != nil {
		return nil, err
	}
	ch, err := e.Cell.ChamberOf(weName)
	if err != nil {
		return nil, err
	}
	var ox *enzyme.Oxidase
	if !we.Func.IsBlank() {
		if we.Func.Assay.Technique != enzyme.Chronoamperometry {
			return nil, fmt.Errorf("reference: %s is not an oxidase electrode", weName)
		}
		ox = we.Func.Assay.Oxidase
	}
	target := proto.Potential
	if target == 0 {
		if ox == nil {
			return nil, fmt.Errorf("reference: blank electrode %s needs a potential", weName)
		}
		target = ox.Applied
	}
	wave := analog.DCSource{Level: target, Hold: proto.Duration}
	actual := chain.ApplyPotential(wave.VoltageAt(0))

	dt := proto.SampleInterval
	n := int(proto.Duration/dt) + 1
	newSeries := func(unit string) *trace.Series {
		return &trace.Series{Start: 0, Dt: dt, Unit: unit, Values: make([]float64, n)}
	}
	raw, rec, cur := newSeries("A"), newSeries("V"), newSeries("A")

	chain.Reset(dt)
	dl := we.DoubleLayer()
	gain := we.Gain() * we.Func.StabilityFactor()
	area := float64(we.Area)
	sigma := 0.0
	if ox != nil {
		sigma = ox.BlankSigmaAt(gain)
	} else {
		sigma = blankFloorSigma * gain
	}
	noise := e.rng.Split()
	runOffset := noise.NormScaled(sigma)

	var targetSampler *cell.Sampler
	etaOx, membStep := 0.0, 0.0
	if ox != nil {
		s := ch.Solution.Sampler(ox.Target.Name)
		targetSampler = &s
		etaOx = echem.SigmoidEfficiency(actual, ox.EHalf, ox.N)
		membStep = 1 - math.Exp(-dt/we.Func.MembraneTau)
	}
	rxHalf := hydrogenPeroxideHalfWave
	if ox != nil {
		rxHalf = ox.EHalf
	}
	type crosstalk struct {
		ox      *enzyme.Oxidase
		sampler *cell.Sampler
		gain    float64
		factor  float64
	}
	var crosstalks []crosstalk
	for _, nb := range ch.Electrodes {
		if nb.Role != electrode.Working || nb.Name == weName {
			continue
		}
		if nb.Func.IsBlank() || nb.Func.Assay.Technique != enzyme.Chronoamperometry {
			continue
		}
		nox := nb.Func.Assay.Oxidase
		s := ch.Solution.Sampler(nox.Target.Name)
		crosstalks = append(crosstalks, crosstalk{
			ox:      nox,
			sampler: &s,
			gain:    nb.Gain(),
			factor: e.Cell.Crosstalk * float64(nox.N) * phys.Faraday *
				echem.SigmoidEfficiency(actual, rxHalf, nox.N),
		})
	}
	type interferent struct {
		sampler *cell.Sampler
		coeff   float64
	}
	var interferents []interferent
	for name := range ch.Solution.AllSpecies() {
		sp, err := species.Lookup(name)
		if err != nil {
			return nil, err
		}
		if !sp.DirectOxidizer {
			continue
		}
		s := ch.Solution.Sampler(name)
		interferents = append(interferents, interferent{
			sampler: &s,
			coeff:   sp.DirectResponse * echem.SigmoidEfficiency(actual, sp.OxidationPotential, sp.Electrons),
		})
	}

	cs := 0.0
	if ox != nil && proto.BaselinePhase <= 0 {
		cs = float64(targetSampler.At(0))
	}
	charging := true

	noise.NormFill(rec.Values)
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		j := 0.0
		if ox != nil {
			cb := float64(targetSampler.At(t))
			if t < proto.BaselinePhase {
				cb = 0
			}
			cs += (cb - cs) * membStep
			j += float64(ox.N) * phys.Faraday * ox.TurnoverRate(phys.Concentration(cs), gain) * etaOx
		}
		for k := range crosstalks {
			x := &crosstalks[k]
			j += x.factor * x.ox.TurnoverRate(x.sampler.At(t), x.gain)
		}
		for k := range interferents {
			in := &interferents[k]
			j += in.coeff * float64(in.sampler.At(t))
		}
		j += runOffset + sigma*rec.Values[i]

		i0 := phys.Current(j * area)
		if charging {
			ic := dl.ChargingCurrent(actual, t+dt/2)
			charging = ic != 0
			i0 += ic
		}
		raw.Values[i] = float64(i0)
	}
	chain.DigitizeRun(raw.Values, rec.Values, cur.Values)

	return &CAResult{WE: weName, Applied: actual, Baseline: proto.BaselinePhase,
		Raw: raw, Recorded: rec, Current: cur}, nil
}

// sameBits reports the first sample at which two traces differ in any
// bit (NaN payloads and the sign of zero included), or −1.
func sameBits(a, b *trace.Series) int {
	if len(a.Values) != len(b.Values) {
		return 0
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return i
		}
	}
	return -1
}

// TestRunCAMatchesReference runs RunCA and the per-sample reference on
// randomized cells and demands bit-identical Raw, Recorded and Current
// traces. The cells cover 0–4 co-chambered oxidases, with and without
// direct-oxidizer interferents, blank working electrodes at an explicit
// potential, injections before 0, on a sample time, between samples,
// after the run and twice on one species, negative deltas that floor at
// zero, NaN and ±Inf injection times, and baseline phases at 0, on a
// sample, between samples and past the run's end.
func TestRunCAMatchesReference(t *testing.T) {
	oxTargets := []string{"glucose", "lactate", "glutamate", "cholesterol"}
	oxAssays := make([]enzyme.Assay, len(oxTargets))
	for k, name := range oxTargets {
		oxAssays[k] = assayFor(t, name, enzyme.Chronoamperometry)
	}
	cypAssay := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	// Species a solution may hold: the oxidase targets, the two direct
	// oxidizers and a CYP substrate that only the CV electrode sees.
	pool := append(append([]string(nil), oxTargets...), "dopamine", "etoposide", "benzphetamine")

	rng := rand.New(rand.NewPCG(24, 1))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for c := 0; c < cases; c++ {
		dt := []float64{0.1, 0.05, 0.25, 0.3}[rng.IntN(4)]
		duration := float64(2+rng.IntN(30)) + rng.Float64()
		n := int(duration/dt) + 1

		// sampleTime picks one of the interesting instants of the run.
		sampleTime := func() float64 {
			i := rng.IntN(n)
			switch rng.IntN(10) {
			case 0:
				return -1 - 10*rng.Float64() // before the run
			case 1, 2:
				return float64(i) * dt // exactly on a sample
			case 3, 4:
				return (float64(i) + 0.1 + 0.8*rng.Float64()) * dt // between samples
			case 5:
				return duration + 1 + rng.Float64() // after the run
			case 6:
				return math.NaN()
			case 7:
				return math.Inf(1)
			case 8:
				return math.Inf(-1)
			default:
				return 0
			}
		}

		sol := cell.NewSolution()
		for _, name := range pool {
			if rng.IntN(3) > 0 {
				sol.Set(name, phys.MilliMolar(4*rng.Float64()))
			}
		}
		if rng.IntN(3) == 0 {
			sol.Set("dopamine", phys.MilliMolar(0.2*rng.Float64()))
		}
		var injections []cell.Injection
		inject := func(tm float64, name string, delta phys.Concentration) {
			sol.Inject(tm, name, delta)
			injections = append(injections, cell.Injection{Time: tm, Species: name, Delta: delta})
		}
		for k := rng.IntN(7); k > 0; k-- {
			name := pool[rng.IntN(len(pool))]
			delta := phys.MilliMolar(3 * rng.Float64())
			if rng.IntN(3) == 0 {
				delta = -delta * 4 // over-withdrawal floors at zero
			}
			inject(sampleTime(), name, delta)
			if rng.IntN(4) == 0 { // the same species twice
				inject(sampleTime(), name, phys.MilliMolar(rng.Float64()))
			}
		}

		// The measured WE: an oxidase electrode or a blank one at an
		// explicit potential, then 0–4 co-chambered oxidase neighbours
		// and sometimes a blank and a CYP neighbour, which add no
		// cross-talk.
		blankWE := rng.IntN(5) == 0
		var els []*electrode.Electrode
		if blankWE {
			els = append(els, electrode.NewBlankWorking("WE0"))
		} else {
			els = append(els, electrode.NewWorking("WE0", electrode.Nanostructure(rng.IntN(2)), oxAssays[rng.IntN(len(oxAssays))]))
		}
		nNeighbours := rng.IntN(5)
		for k := 0; k < nNeighbours; k++ {
			els = append(els, electrode.NewWorking(fmt.Sprintf("WE%d", k+1),
				electrode.Nanostructure(rng.IntN(2)), oxAssays[rng.IntN(len(oxAssays))]))
		}
		if rng.IntN(4) == 0 {
			els = append(els, electrode.NewBlankWorking("WEB"), electrode.NewWorking("WEC", electrode.Bare, cypAssay))
		}
		els = append(els, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
		cl := cell.NewSingleChamber(sol, els...)
		if rng.IntN(4) == 0 {
			cl.Crosstalk = 0.05 * rng.Float64()
		}

		proto := Chronoamperometry{Duration: duration, SampleInterval: dt}
		switch rng.IntN(5) {
		case 0:
			proto.BaselinePhase = 0
		case 1:
			proto.BaselinePhase = float64(rng.IntN(n)) * dt // on a sample
		case 2:
			proto.BaselinePhase = (float64(rng.IntN(n)) + 0.1 + 0.8*rng.Float64()) * dt // between samples
		case 3:
			proto.BaselinePhase = duration + 1 + 5*rng.Float64() // past the end
		case 4:
			proto.BaselinePhase = -rng.Float64() // negative: single-phase
		}
		if blankWE || rng.IntN(4) == 0 {
			proto.Potential = phys.MilliVolts(300 + 500*rng.Float64())
		}

		seed := rng.Uint64()
		label := fmt.Sprintf("case %d (dt %g, %g s, baseline %g, %d neighbours, blank %v, injections %v)",
			c, dt, duration, proto.BaselinePhase, nNeighbours, blankWE, injections)
		run := func(f func(*Engine, string, *analog.Chain, Chronoamperometry) (*CAResult, error)) *CAResult {
			eng, err := NewEngine(cl, seed)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := f(eng, "WE0", analog.NewNanoChain(nil, eng.RNG()), proto)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return res
		}
		got := run((*Engine).RunCA)
		want := run(referenceRunCA)
		for _, tr := range []struct {
			name      string
			got, want *trace.Series
		}{{"Raw", got.Raw, want.Raw}, {"Recorded", got.Recorded, want.Recorded}, {"Current", got.Current, want.Current}} {
			if i := sameBits(tr.got, tr.want); i >= 0 {
				t.Fatalf("%s: %s differs at sample %d of %d: RunCA %v, reference %v",
					label, tr.name, i, len(tr.want.Values), tr.got.Values[i], tr.want.Values[i])
			}
		}
	}
}
