package measure

import (
	"fmt"
	"math"
	"sync/atomic"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/diffusion"
	"advdiag/internal/echem"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
	"advdiag/internal/phys"
	"advdiag/internal/species"
	"advdiag/internal/trace"
)

// Engine executes measurement protocols on one cell. It owns the random
// source so repeated runs draw fresh but reproducible noise.
//
// Concurrency contract: an Engine (and the *mathx.RNG it owns) belongs
// to exactly one goroutine. Concurrent runners — the parallel
// design-space explorer, the experiments.RunAll pool — must build one
// Engine per goroutine, each with its own seed, rather than share one;
// NewEngine is cheap. Driving the same Engine from two goroutines
// would interleave the RNG stream (destroying reproducibility even
// where it doesn't corrupt state), so the protocol entry points detect
// concurrent misuse and panic.
type Engine struct {
	Cell *cell.Cell
	rng  *mathx.RNG
	// busy flags an in-flight protocol run; see acquire.
	busy atomic.Bool
	// arena, when set, supplies the per-run trace buffers (see Arena).
	arena *Arena

	// Engine-owned scratch reused across protocol runs (an engine is
	// single-goroutine, so no locking): the precomputed per-run source
	// tables the measurement loops iterate. Nothing here survives a run
	// — results never alias these slices.
	crosstalks   []caCrosstalk
	interferents []caInterferent
}

// caCrosstalk is one precomputed co-chambered oxidase source: the
// classification, efficiency sigmoid and constant factors that the old
// RunCA loop re-derived on every timestep.
type caCrosstalk struct {
	ox      *enzyme.Oxidase
	sampler cell.Sampler
	gain    float64
	// factor folds crosstalk coefficient × n × F × the receiving
	// electrode's potential efficiency (constant at fixed potential).
	factor float64
	// term is the source's current density, factor × the neighbour's
	// Michaelis–Menten turnover, as of RunCA's last refresh.
	term float64
}

// caInterferent is one precomputed direct-oxidizer source present in
// the chamber solution.
type caInterferent struct {
	sampler cell.Sampler
	// coeff folds the direct-response slope × the potential efficiency
	// sigmoid at the run's fixed applied potential.
	coeff float64
	// term is coeff × the interferent's concentration as of RunCA's
	// last refresh.
	term float64
}

// NewEngine builds an engine over c with a deterministic seed. Two
// engines over the same cell with the same seed produce bit-identical
// measurement streams.
func NewEngine(c *cell.Cell, seed uint64) (*Engine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Engine{Cell: c, rng: mathx.NewRNG(seed)}, nil
}

// RNG exposes the engine's random source (for chains that need split
// noise streams). The returned RNG is part of the engine's
// single-goroutine state — do not hand it to another goroutine.
func (e *Engine) RNG() *mathx.RNG { return e.rng }

// acquire marks one protocol run in flight and returns its release. It
// enforces the single-goroutine ownership contract: two overlapping
// runs mean two goroutines share this engine, which silently
// interleaves the noise stream, so fail loudly instead.
func (e *Engine) acquire() func() {
	if !e.busy.CompareAndSwap(false, true) {
		panic("measure: Engine driven from two goroutines at once; build one Engine per goroutine (NewEngine is cheap)")
	}
	return func() { e.busy.Store(false) }
}

// CAResult is the outcome of one chronoamperometric run.
type CAResult struct {
	// WE names the measured electrode.
	WE string
	// Applied is the actual cell potential established.
	Applied phys.Voltage
	// Baseline is the two-phase protocol's baseline duration (0 for
	// single-phase runs).
	Baseline float64
	// Raw is the true faradaic+background current at the electrode (A).
	Raw *trace.Series
	// Recorded is the digitized readout voltage (V).
	Recorded *trace.Series
	// Current is the current estimate recovered from Recorded through
	// the nominal transimpedance (A) — what the digital side sees.
	Current *trace.Series
}

// SteadyCurrent returns the mean recovered current over the final fifth
// of the run.
func (r *CAResult) SteadyCurrent() phys.Current {
	return phys.Current(mathx.Mean(r.Current.Tail(0.2)))
}

// SteadyVoltage returns the mean recorded voltage over the final fifth
// of the run.
func (r *CAResult) SteadyVoltage() phys.Voltage {
	return phys.Voltage(mathx.Mean(r.Recorded.Tail(0.2)))
}

// StepCurrent returns the baseline-subtracted response of a two-phase
// (BaselinePhase > 0) run: the mean recovered current over the final
// fifth minus the mean over the settled part of the baseline phase.
// For single-phase runs it equals SteadyCurrent.
func (r *CAResult) StepCurrent() phys.Current {
	if r.Baseline <= 0 {
		return r.SteadyCurrent()
	}
	// Skip the double-layer charging spike at the start of the baseline.
	base := r.Current.Window(r.Baseline*0.3, r.Baseline*0.95)
	return phys.Current(mathx.Mean(r.Current.Tail(0.2)) - mathx.Mean(base))
}

// RunCA performs chronoamperometry on the named working electrode
// through the given chain.
//
// The physical model: the probe's applied potential is established by
// the potentiostat; substrate reaches the enzyme layer through the
// membrane with a first-order lag; Michaelis–Menten turnover produces
// H₂O₂ oxidized with the probe's potential efficiency; co-chambered
// oxidase electrodes leak a small cross-talk current; the double layer
// adds a decaying charging spike after the initial potential step;
// blank noise and direct-oxidizer interferents add to the current; the
// chain multiplexes, amplifies, band-limits and quantizes the result.
//
//advdiag:hotpath
func (e *Engine) RunCA(weName string, chain *analog.Chain, proto Chronoamperometry) (*CAResult, error) {
	defer e.acquire()()
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
			//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
			return nil, fmt.Errorf("measure: %s carries a %s assay; chronoamperometry needs an oxidase", weName, we.Func.Assay.Technique)
		}
		ox = we.Func.Assay.Oxidase
	}

	target := proto.Potential
	if target == 0 {
		if ox == nil {
			//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
			return nil, fmt.Errorf("measure: blank electrode %s needs an explicit CA potential", weName)
		}
		target = ox.Applied
	}
	// The fixed-potential generator of the paper's Fig. 2 feeds the
	// potentiostat, which establishes the actual cell potential.
	wave := analog.DCSource{Level: target, Hold: proto.Duration}
	actual := chain.ApplyPotential(wave.VoltageAt(0))

	dt := proto.SampleInterval
	n := int(proto.Duration/dt) + 1
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
	// Nanostructure gain degraded by film aging (enzyme leaching /
	// denaturation — paper §I long-term monitoring, §III polymers).
	gain := we.Gain() * we.Func.StabilityFactor()
	area := float64(we.Area)
	sigma := 0.0
	if ox != nil {
		sigma = ox.BlankSigmaAt(gain)
	} else {
		// A bare blank still shows background fluctuation; use the
		// smallest oxidase blank density as representative.
		sigma = blankFloorSigma * gain
	}
	noise := e.rng.Split()
	// The blank background has two parts: a run-to-run offset (electrode
	// state, residual surface species — it does NOT average away within
	// a run and sets the eq. 5 blank scatter) and per-sample
	// fluctuation. Both carry the calibrated σ.
	runOffset := noise.NormScaled(sigma)

	// Precompute every per-step source once: the target's membrane
	// relaxation constants, the cross-talk neighbours (co-chambered
	// oxidase electrodes), and the direct-oxidizer interferents. The
	// potential is fixed for the whole run, so each source's efficiency
	// sigmoid collapses to a constant, and each concentration timeline
	// becomes an O(1) sampler — the per-timestep loop below touches no
	// map and allocates nothing. An unknown species in the chamber
	// solution fails here, before the instrument is touched, instead of
	// being silently skipped on every timestep.
	var targetSampler cell.Sampler
	nF, etaOx, membStep := 0.0, 0.0, 0.0
	if ox != nil {
		targetSampler = ch.Solution.Sampler(ox.Target.Name)
		nF = float64(ox.N) * phys.Faraday
		etaOx = echem.SigmoidEfficiency(actual, ox.EHalf, ox.N)
		// Exact first-order membrane relaxation over dt.
		membStep = 1 - math.Exp(-dt/we.Func.MembraneTau)
	}
	// Cross-talk: a fixed fraction of each co-chambered oxidase
	// neighbour's H₂O₂ production appears here. The leaked H₂O₂
	// oxidizes with the *receiving* electrode's half-wave (it is a
	// surface property of the electrode that collects it).
	rxHalf := hydrogenPeroxideHalfWave
	if ox != nil {
		rxHalf = ox.EHalf
	}
	// Iterate the chamber's own electrode list (declaration order, like
	// Cell.Neighbours) instead of materializing a neighbour slice per
	// run.
	e.crosstalks = e.crosstalks[:0]
	for _, nb := range ch.Electrodes {
		if nb.Role != electrode.Working || nb.Name == weName {
			continue
		}
		if nb.Func.IsBlank() || nb.Func.Assay.Technique != enzyme.Chronoamperometry {
			continue
		}
		nox := nb.Func.Assay.Oxidase
		e.crosstalks = append(e.crosstalks, caCrosstalk{
			ox:      nox,
			sampler: ch.Solution.Sampler(nox.Target.Name),
			gain:    nb.Gain(),
			factor: e.Cell.Crosstalk * float64(nox.N) * phys.Faraday *
				echem.SigmoidEfficiency(actual, rxHalf, nox.N),
		})
	}
	// Direct-oxidizer interferents react at any electrode.
	e.interferents = e.interferents[:0]
	for name := range ch.Solution.AllSpecies() {
		sp, err := species.Lookup(name)
		if err != nil {
			//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
			return nil, fmt.Errorf("measure: chamber %s solution: %w", ch.Name, err)
		}
		if !sp.DirectOxidizer {
			continue
		}
		e.interferents = append(e.interferents, caInterferent{
			sampler: ch.Solution.Sampler(name),
			coeff:   sp.DirectResponse * echem.SigmoidEfficiency(actual, sp.OxidationPotential, sp.Electrons),
		})
	}

	// Surface concentration state behind the membrane: equilibrated
	// with the sample for single-phase runs, buffer-clean for two-phase
	// runs.
	cs := 0.0
	if ox != nil && proto.BaselinePhase <= 0 {
		cs = float64(targetSampler.At(0))
	}
	// The charging spike (dE/Rs)·exp(−t/RsC) decays with RsC of
	// 0.05–0.25 ms on the platform's electrodes, so at the default
	// 0.1 s sampling it underflows to exactly zero by the third sample.
	// Its magnitude never grows with t, so once a sample's term is zero
	// every later one is too and the loop stops evaluating it.
	charging := true

	// Pass 1 computes the cell current. The blank-noise draws, one per
	// sample, come as one block into rec, which pass 2 then overwrites.
	//
	// Every source concentration is piecewise constant: it moves only at
	// an injection or, for the target, at the end of the baseline phase.
	// So the loop refreshes the bulk target concentration cb and each
	// source's cached term only once t reaches the earliest such event,
	// and in between adds the cached terms in the same order as a
	// per-sample evaluation would, which keeps every sum bit-identical.
	noise.NormFill(rec.Values)
	cb := 0.0
	event := math.Inf(-1) // refresh on the first sample
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		if t >= event {
			event = math.Inf(1)
			if ox != nil {
				cb = float64(targetSampler.At(t))
				event = targetSampler.Next()
				if t < proto.BaselinePhase {
					cb = 0 // buffer-only phase of the two-phase protocol
					event = min(event, proto.BaselinePhase)
				}
			}
			for k := range e.crosstalks {
				x := &e.crosstalks[k]
				x.term = x.factor * x.ox.TurnoverRate(x.sampler.At(t), x.gain)
				event = min(event, x.sampler.Next())
			}
			for k := range e.interferents {
				in := &e.interferents[k]
				in.term = in.coeff * float64(in.sampler.At(t))
				event = min(event, in.sampler.Next())
			}
		}
		j := 0.0 // current density, A/m²
		if ox != nil {
			cs += (cb - cs) * membStep
			j += nF * ox.TurnoverRate(phys.Concentration(cs), gain) * etaOx
		}
		for k := range e.crosstalks {
			j += e.crosstalks[k].term
		}
		for k := range e.interferents {
			j += e.interferents[k].term
		}
		// Stochastic blank background: run offset plus sample noise.
		j += runOffset + sigma*rec.Values[i]

		i0 := phys.Current(j * area)
		// Double-layer charging from the initial potential step.
		if charging {
			ic := dl.ChargingCurrent(actual, t+dt/2)
			charging = ic != 0
			i0 += ic
		}

		raw.Values[i] = float64(i0)
	}
	// Pass 2: the acquisition chain digitizes the whole run.
	chain.DigitizeRun(raw.Values, rec.Values, cur.Values)

	return &CAResult{WE: weName, Applied: actual, Baseline: proto.BaselinePhase,
		Raw: raw, Recorded: rec, Current: cur}, nil
}

// hydrogenPeroxideHalfWave is the H₂O₂ oxidation half-wave at a bare
// gold electrode (the paper's +650 mV working point minus the plateau
// margin).
var hydrogenPeroxideHalfWave = phys.MilliVolts(612)

// blankFloorSigma is the smallest registered oxidase blank noise
// density, used for bare blank electrodes. The oxidase registry is
// fixed once package enzyme is initialized, so the value is computed
// once.
var blankFloorSigma = minBlankSigma()

func minBlankSigma() float64 {
	sigma := math.Inf(1)
	for _, o := range enzyme.Oxidases() {
		if o.BlankSigma > 0 && o.BlankSigma < sigma {
			sigma = o.BlankSigma
		}
	}
	if math.IsInf(sigma, 1) {
		return 0
	}
	return sigma
}

// CVResult is the outcome of one cyclic-voltammetry run.
type CVResult struct {
	// WE names the measured electrode.
	WE string
	// Rate is the sweep rate used.
	Rate phys.SweepRate
	// Potential is the programmed potential vs time (V).
	Potential *trace.Series
	// Raw is the true cell current vs time (A).
	Raw *trace.Series
	// Recorded is the digitized readout voltage vs time (V).
	Recorded *trace.Series
	// Current is the recovered current vs time (A).
	Current *trace.Series
	// Voltammogram is the recovered current vs potential for the final
	// full cycle (the curve the paper's Fig. for CV would plot).
	Voltammogram *trace.XY
}

// RunCV performs cyclic voltammetry on the named working electrode.
//
// Every binding of the electrode's CYP isoform whose substrate is
// present in the chamber contributes a diffusion-limited faradaic
// current scaled by the binding's catalytic efficiency; the double
// layer contributes C·dE/dt; blank noise adds on top; the chain
// digitizes the sum.
//
// RunCV is CVFluxBasis through the run's own chain followed by
// RunCVWithBasis: the diffusion problem is linear in bulk
// concentration, so each binding's unit flux trace scaled by the
// sample's effective concentration is its faradaic current. Paths that
// run one electrode protocol on many samples compute the basis once and
// call RunCVWithBasis (or RunCVShared) directly.
func (e *Engine) RunCV(weName string, chain *analog.Chain, proto CyclicVoltammetry) (*CVResult, error) {
	basis, err := e.CVFluxBasis(weName, proto, chain)
	if err != nil {
		return nil, err
	}
	return e.RunCVWithBasis(weName, chain, proto, basis)
}

// RunCVWithBasis is RunCV on a precomputed basis (see CVFluxBasis),
// which must have been computed for the same electrode and protocol.
// The faradaic term is the basis' unit flux traces summed by
// CVFaradaicSum; noise, film background, double layer and digitization
// follow: RunCVWithBasis is CVFaradaicSum followed by RunCVShared.
//
//advdiag:hotpath
func (e *Engine) RunCVWithBasis(weName string, chain *analog.Chain, proto CyclicVoltammetry, basis *CVBasis) (*CVResult, error) {
	if basis == nil {
		//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
		return nil, fmt.Errorf("measure: RunCVWithBasis needs a basis (see CVFluxBasis)")
	}
	faradaic, err := e.CVFaradaicSum(weName, proto, basis, nil)
	if err != nil {
		return nil, err
	}
	return e.runCV(weName, chain, proto, basis, faradaic)
}

// RunCVShared is RunCVWithBasis with the summed faradaic trace passed
// in (see CVFaradaicSum). Replicated electrodes of one sample share the
// same active bindings, concentrations and factors, so the scaling pass
// — the only per-binding work of the basis mode — is computed once per
// construction and reused across the replicas.
//
//advdiag:hotpath
func (e *Engine) RunCVShared(weName string, chain *analog.Chain, proto CyclicVoltammetry, basis *CVBasis, faradaic []float64) (*CVResult, error) {
	if basis == nil {
		//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
		return nil, fmt.Errorf("measure: RunCVShared needs a basis")
	}
	if faradaic == nil {
		//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
		return nil, fmt.Errorf("measure: RunCVShared needs a faradaic trace (use CVFaradaicSum)")
	}
	return e.runCV(weName, chain, proto, basis, faradaic)
}

// CVFaradaicSum computes the summed basis-mode faradaic current trace
// for one electrode and sample: dst[i] = Σ_active factor_b · flux_b[i],
// accumulated in binding order. It is the one place the basis mode
// scales and sums the bindings. dst is reused when large enough. The
// engine's RNG is untouched — the active-binding set is a pure function
// of the solution and the basis.
//
//advdiag:hotpath
func (e *Engine) CVFaradaicSum(weName string, proto CyclicVoltammetry, basis *CVBasis, dst []float64) ([]float64, error) {
	if basis == nil {
		//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
		return nil, fmt.Errorf("measure: CVFaradaicSum needs a basis")
	}
	proto = proto.WithDefaults()
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
			//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
			return nil, fmt.Errorf("measure: %s carries a %s assay; cyclic voltammetry needs a CYP", weName, we.Func.Assay.Technique)
		}
		cyp = we.Func.Assay.CYP
	}
	if err := basis.check(weName, cyp, proto); err != nil {
		return nil, err
	}
	sweep := analog.TriangleSweep{Start: proto.Start, Vertex: proto.Vertex, Rate: proto.Rate, Cycles: proto.Cycles}
	dt := proto.SampleInterval
	n := int(sweep.Duration()/dt) + 1
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	if cyp == nil {
		return dst, nil
	}
	gain := we.Gain() * we.Func.StabilityFactor()
	for _, b := range cyp.Bindings {
		conc := ch.Solution.At(b.Substrate.Name, 0)
		if conc <= 0 {
			continue
		}
		tr := basis.flux[b.Substrate.Name]
		if len(tr) < n {
			//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
			return nil, fmt.Errorf("measure: basis for %s lacks a %s trace", weName, b.Substrate.Name)
		}
		ceff := b.EffectiveConcentration(conc)
		factor := b.Theta * gain * float64(diffusion.Current(b.N, we.Area, float64(ceff)))
		for i := 0; i < n; i++ {
			dst[i] += factor * tr[i]
		}
	}
	return dst, nil
}

// runCV is the one CV run: the given faradaic trace (CVFaradaicSum
// over basis) plus double-layer charging, blank noise and film
// background, digitized by the chain.
//
//advdiag:hotpath
func (e *Engine) runCV(weName string, chain *analog.Chain, proto CyclicVoltammetry, basis *CVBasis, faradaic []float64) (*CVResult, error) {
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
	var cyp *enzyme.CYP
	if !we.Func.IsBlank() {
		if we.Func.Assay.Technique != enzyme.CyclicVoltammetry {
			//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
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

	// Nanostructure gain degraded by film aging: it scales the blank
	// noise and the film bumps (CVFaradaicSum applies the same product
	// to the basis factors).
	gain := we.Gain() * we.Func.StabilityFactor()

	// The sweep grid's potentials and bump shapes come from the basis,
	// which must have been driven by this chain's potentiostat.
	if err := basis.check(weName, cyp, proto); err != nil {
		return nil, err
	}
	grid := basis.grid
	if grid.pstat != *chain.Pstat {
		//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
		return nil, fmt.Errorf("measure: basis for %s was driven by potentiostat %+v, %s's chain has %+v", basis.we, grid.pstat, weName, *chain.Pstat)
	}
	if len(faradaic) < n {
		//advdiag:allow hot-fmt cold validation path: fires once per rejected call, never per timestep
		return nil, fmt.Errorf("measure: faradaic trace for %s has %d samples, run needs %d", weName, len(faradaic), n)
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
	// The blank current-density noise is a property of the electrode's
	// enzyme film, present whether or not substrate is in solution.
	var sigma float64
	if cyp != nil {
		sigma = we.Func.Assay.Binding.BlankSigmaAt(gain)
	} else {
		sigma = blankFloorSigma * gain
	}
	noise := e.rng.Split()

	// Run-to-run film background: the immobilized protein film shows a
	// variable pseudo-capacitive redox background centred near each
	// binding's peak potential (surface-adsorbed species, film state).
	// This is what limits the *blank scatter* of voltammetric assays —
	// white per-sample noise alone would average away in the template
	// fit and yield unrealistically low LODs. One random-amplitude
	// Gaussian bump per binding, drawn per run with the binding's
	// calibrated blank σ.
	type bump struct {
		amp   float64   // A
		shape []float64 // exp(−x²) at every sample (cvGrid.shapes)
	}
	var bumps []bump
	if cyp != nil && !proto.NoFilmBackground {
		bumps = make([]bump, 0, len(cyp.Bindings))
		for k, b := range cyp.Bindings {
			bumps = append(bumps, bump{
				amp:   noise.NormScaled(b.BlankSigmaAt(gain)) * area,
				shape: grid.shapes[k],
			})
		}
	}

	// Pass 1 computes the cell current; the blank-noise draws come as
	// one block into rec, as in RunCA.
	noise.NormFill(rec.Values)
	prevE := grid.applied[0]
	for i := 0; i < n; i++ {
		eAct := grid.applied[i]
		// Double-layer charging tracks dE/dt.
		dEdt := float64(eAct-prevE) / dt
		iCap := phys.Current(float64(dl.C) * dEdt)
		prevE = eAct

		iN := phys.Current(sigma * rec.Values[i] * area)
		i0 := phys.Current(faradaic[i]) + iCap + iN
		for k := range bumps {
			i0 += phys.Current(bumps[k].amp * bumps[k].shape[i])
		}

		pot.Values[i] = float64(grid.prog[i])
		raw.Values[i] = float64(i0)
	}
	// Pass 2: the acquisition chain digitizes the whole run.
	chain.DigitizeRun(raw.Values, rec.Values, cur.Values)

	// Voltammogram: the final full cycle.
	first := finalCycleFirstIndex(n, dt, total-2*sweep.HalfPeriod())
	vg := e.newXY("V", "A")
	vg.X = append(vg.X, pot.Values[first:n]...)
	vg.Y = append(vg.Y, cur.Values[first:n]...)
	return &CVResult{
		WE:           weName,
		Rate:         proto.Rate,
		Potential:    pot,
		Raw:          raw,
		Recorded:     rec,
		Current:      cur,
		Voltammogram: vg,
	}, nil
}

// ApplyCDS performs correlated double sampling: it subtracts the blank
// electrode's recorded trace from the sensing electrode's, removing
// correlated offsets and drift (paper §II-C). Both series must share
// the time base.
func ApplyCDS(signal, blank *trace.Series) (*trace.Series, error) {
	if signal.Len() != blank.Len() || signal.Dt != blank.Dt {
		return nil, fmt.Errorf("measure: CDS traces are not aligned (%d@%g vs %d@%g)",
			signal.Len(), signal.Dt, blank.Len(), blank.Dt)
	}
	out := &trace.Series{Start: signal.Start, Dt: signal.Dt, Unit: signal.Unit,
		Values: make([]float64, signal.Len())}
	for i := range out.Values {
		out.Values[i] = signal.Values[i] - blank.Values[i]
	}
	return out, nil
}
