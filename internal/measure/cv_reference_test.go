package measure

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/diffusion"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
	"advdiag/internal/phys"
	"advdiag/internal/trace"
)

// referenceRunCV is RunCV as it ran before every CV run went through a
// flux basis: one diffusion solver per binding whose substrate is
// present, each simulated at the binding's effective concentration and
// stepped on the chain-applied potential, their currents summed sample
// by sample. It is the oracle of TestRunCVMatchesReference and the
// producer of testdata/cv_cyp2b4.golden.
func referenceRunCV(e *Engine, weName string, chain *analog.Chain, proto CyclicVoltammetry) (*CVResult, error) {
	defer e.acquire()()
	proto = proto.WithDefaults()
	if err := proto.Validate(); err != nil {
		return nil, err
	}
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	if !proto.AllowFastSweep {
		if err := analog.CheckSweepRate(proto.Rate); err != nil {
			return nil, err
		}
	}
	we, err := e.Cell.FindWE(weName)
	if err != nil {
		return nil, err
	}
	ch, err := e.Cell.ChamberOf(weName)
	if err != nil {
		return nil, err
	}
	var cyp *enzyme.CYP
	if !we.Func.IsBlank() {
		if we.Func.Assay.Technique != enzyme.CyclicVoltammetry {
			return nil, fmt.Errorf("measure: %s carries a %s assay; cyclic voltammetry needs a CYP", weName, we.Func.Assay.Technique)
		}
		cyp = we.Func.Assay.CYP
	}

	sweep := analog.TriangleSweep{Start: proto.Start, Vertex: proto.Vertex, Rate: proto.Rate, Cycles: proto.Cycles}
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	dt := proto.SampleInterval
	total := sweep.Duration()
	n := int(total/dt) + 1

	type activeBinding struct {
		b   *enzyme.Binding
		sim *diffusion.CoupleSim
	}
	gain := we.Gain() * we.Func.StabilityFactor()
	grid := newCVGrid(sweep, dt, n, chain.Pstat, cyp)
	var active []activeBinding
	if cyp != nil {
		for _, b := range cyp.Bindings {
			conc := ch.Solution.At(b.Substrate.Name, 0)
			if conc <= 0 {
				continue
			}
			sim, err := diffusion.New(diffusion.Config{
				Kinetics:  b.Kinetics(),
				Diffusion: b.Substrate.Diffusion,
				BulkO:     b.EffectiveConcentration(conc),
				TotalTime: total,
				Dt:        dt,
			})
			if err != nil {
				return nil, fmt.Errorf("measure: CV solver for %s: %w", b.Substrate.Name, err)
			}
			active = append(active, activeBinding{b: b, sim: sim})
		}
	}

	pot, err := e.newSeries(0, dt, n, "V")
	if err != nil {
		return nil, err
	}
	raw, err := e.newSeries(0, dt, n, "A")
	if err != nil {
		return nil, err
	}
	rec, err := e.newSeries(0, dt, n, "V")
	if err != nil {
		return nil, err
	}
	cur, err := e.newSeries(0, dt, n, "A")
	if err != nil {
		return nil, err
	}

	chain.Reset(dt)
	dl := we.DoubleLayer()
	area := float64(we.Area)
	var sigma float64
	if cyp != nil {
		sigma = we.Func.Assay.Binding.BlankSigmaAt(gain)
	} else {
		sigma = blankFloorSigma * gain
	}
	noise := e.rng.Split()

	type bump struct {
		amp   float64
		shape []float64
	}
	var bumps []bump
	if cyp != nil && !proto.NoFilmBackground {
		for k, b := range cyp.Bindings {
			bumps = append(bumps, bump{
				amp:   noise.NormScaled(b.BlankSigmaAt(gain)) * area,
				shape: grid.shapes[k],
			})
		}
	}

	noise.NormFill(rec.Values)
	prevE := grid.applied[0]
	for i := 0; i < n; i++ {
		eAct := grid.applied[i]
		var iF phys.Current
		for k := range active {
			ab := &active[k]
			flux := ab.sim.Step(eAct)
			iF += phys.Current(ab.b.Theta * gain * float64(diffusion.Current(ab.b.N, we.Area, flux)))
		}
		dEdt := float64(eAct-prevE) / dt
		iCap := phys.Current(float64(dl.C) * dEdt)
		prevE = eAct

		iN := phys.Current(sigma * rec.Values[i] * area)
		i0 := iF + iCap + iN
		for k := range bumps {
			i0 += phys.Current(bumps[k].amp * bumps[k].shape[i])
		}
		pot.Values[i] = float64(grid.prog[i])
		raw.Values[i] = float64(i0)
	}
	chain.DigitizeRun(raw.Values, rec.Values, cur.Values)

	first := finalCycleFirstIndex(n, dt, total-2*sweep.HalfPeriod())
	vg := e.newXY("V", "A")
	vg.X = append(vg.X, pot.Values[first:n]...)
	vg.Y = append(vg.Y, cur.Values[first:n]...)
	return &CVResult{WE: weName, Rate: proto.Rate, Potential: pot, Raw: raw,
		Recorded: rec, Current: cur, Voltammogram: vg}, nil
}

// CVTemplates is CVTemplatesFromBasis over a basis driven through
// chain, as runtime.NewCVCalib builds its templates.
// testdata/cv_templates_cyp2b4.golden pins it.
func (e *Engine) CVTemplates(weName string, proto CyclicVoltammetry, chain *analog.Chain) (*trace.XY, map[string][]float64, error) {
	basis, err := e.CVFluxBasis(weName, proto, chain)
	if err != nil {
		return nil, nil, err
	}
	return e.CVTemplatesFromBasis(basis)
}

// firstBitDiff returns the first index at which a and b differ in any
// bit, or −1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestRunCVMatchesReference runs RunCV (a flux basis through the run's
// chain, then RunCVWithBasis) and the per-binding-solver reference on
// randomized cells. Potential, Recorded, Current and the voltammogram
// must be bit-identical; Raw, where the basis scales a unit flux trace
// instead of simulating at the sample's concentration, must agree
// within 1e-9 of the run's largest |Raw|, and bit for bit on blank
// electrodes. The cells cover every isoform on bare and CNT electrodes,
// fresh, aged and polymer-stabilized films, no substrate up to every
// substrate of the isoform, one and two cycles, with and without the
// film background, fast sweeps up to 500 mV/s, the three chain
// classes, and blank electrodes.
func TestRunCVMatchesReference(t *testing.T) {
	cyps := enzyme.CYPs()
	chains := []func(*analog.Mux, *mathx.RNG) *analog.Chain{analog.NewNanoChain, analog.NewPicoChain, analog.NewCYPChain}
	rng := rand.New(rand.NewPCG(28, 1))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for c := 0; c < cases; c++ {
		cyp := cyps[rng.IntN(len(cyps))]
		b0 := cyp.Bindings[rng.IntN(len(cyp.Bindings))]
		blankWE := rng.IntN(8) == 0

		var we *electrode.Electrode
		if blankWE {
			we = electrode.NewBlankWorking("WE0")
		} else {
			a := enzyme.Assay{Probe: cyp.Isoform, Technique: enzyme.CyclicVoltammetry, Target: b0.Substrate, CYP: cyp, Binding: b0}
			we = electrode.NewWorking("WE0", electrode.Nanostructure(rng.IntN(2)), a)
			switch rng.IntN(3) {
			case 1: // aged
				we.Func.AgeSeconds = 3 * electrode.DefaultStabilityTau * rng.Float64()
			case 2: // aged under a polymer coating
				we.Func.AgeSeconds = 3 * electrode.DefaultStabilityTau * rng.Float64()
				we.Func.PolymerStabilized = true
			}
		}

		// From no substrate up to every substrate of the isoform, at
		// concentrations from trace to saturating.
		sol := cell.NewSolution()
		var peaks []phys.Voltage
		present := map[string]float64{}
		for _, b := range cyp.Bindings {
			peaks = append(peaks, b.PeakPotential)
			if rng.IntN(3) > 0 {
				mm := math.Pow(10, -3+4*rng.Float64())
				sol.Set(b.Substrate.Name, phys.MilliMolar(mm))
				present[b.Substrate.Name] = mm
			}
		}
		if rng.IntN(4) == 0 {
			peaks = []phys.Voltage{b0.PeakPotential}
		}
		start, vertex := CVWindowFor(peaks...)
		proto := CyclicVoltammetry{Start: start, Vertex: vertex, Cycles: 1 + rng.IntN(2),
			NoFilmBackground: rng.IntN(2) == 0}
		if rng.IntN(3) == 0 {
			proto.AllowFastSweep = true
			proto.Rate = phys.MilliVoltsPerSecond(20 + 480*rng.Float64())
		}
		newChain := chains[rng.IntN(len(chains))]
		cl := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))

		seed := rng.Uint64()
		label := fmt.Sprintf("case %d (%s on %s, blank %v, stability %.3g, mM %v, proto %+v)",
			c, cyp.Isoform, we.Nano, blankWE, we.Func.StabilityFactor(), present, proto)
		run := func(f func(*Engine, string, *analog.Chain, CyclicVoltammetry) (*CVResult, error)) *CVResult {
			eng, err := NewEngine(cl, seed)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := f(eng, "WE0", newChain(nil, eng.RNG()), proto)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return res
		}
		got := run((*Engine).RunCV)
		want := run(referenceRunCV)
		for _, tr := range []struct {
			name      string
			got, want []float64
		}{
			{"Potential", got.Potential.Values, want.Potential.Values},
			{"Recorded", got.Recorded.Values, want.Recorded.Values},
			{"Current", got.Current.Values, want.Current.Values},
			{"Voltammogram.X", got.Voltammogram.X, want.Voltammogram.X},
			{"Voltammogram.Y", got.Voltammogram.Y, want.Voltammogram.Y},
		} {
			if i := firstBitDiff(tr.got, tr.want); i >= 0 {
				t.Fatalf("%s: %s differs at sample %d of %d", label, tr.name, i, len(tr.want))
			}
		}
		if blankWE {
			if i := firstBitDiff(got.Raw.Values, want.Raw.Values); i >= 0 {
				t.Fatalf("%s: blank-electrode Raw differs at sample %d", label, i)
			}
			continue
		}
		tol := 1e-9 * mathx.MaxAbs(want.Raw.Values)
		for i, v := range want.Raw.Values {
			if d := math.Abs(got.Raw.Values[i] - v); !(d <= tol) {
				t.Fatalf("%s: Raw[%d] = %g, reference %g (|Δ| %g > %g)", label, i, got.Raw.Values[i], v, d, tol)
			}
		}
	}
}
