package runtime

import (
	"fmt"
	"hash/fnv"
	"math"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/core"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
	"advdiag/internal/signalproc"
)

// DefaultMonitorDurationSeconds is the protocol-default monitoring
// duration selected by a zero duration (the paper's Fig. 3 runs are a
// minute-scale window).
const DefaultMonitorDurationSeconds = 60.0

// Injection is one concentration step added to the measurement chamber
// during continuous monitoring. The public advdiag.InjectionEvent
// converts from it field-for-field.
type Injection struct {
	// AtSeconds is the injection time from the start of monitoring.
	AtSeconds float64
	// DeltaMM is the concentration step in mM.
	DeltaMM float64
}

// ValidateInjections rejects injection lists no real protocol could
// execute: non-finite or negative injection times, non-finite
// concentration steps, and injections scheduled past the end of the
// trace. durationSeconds is the effective trace length (callers resolve
// a zero duration to the protocol default before validating).
func ValidateInjections(durationSeconds float64, injections []Injection) error {
	for i, inj := range injections {
		if math.IsNaN(inj.AtSeconds) || math.IsInf(inj.AtSeconds, 0) {
			return fmt.Errorf("advdiag: injection %d at t=%g s is not a finite time", i, inj.AtSeconds)
		}
		if inj.AtSeconds < 0 {
			return fmt.Errorf("advdiag: injection %d at t=%g s is before the trace starts", i, inj.AtSeconds)
		}
		if inj.AtSeconds > durationSeconds {
			return fmt.Errorf("advdiag: injection %d at t=%g s is past the %g s trace end", i, inj.AtSeconds, durationSeconds)
		}
		if math.IsNaN(inj.DeltaMM) || math.IsInf(inj.DeltaMM, 0) {
			return fmt.Errorf("advdiag: injection %d steps by %g mM, not a finite concentration", i, inj.DeltaMM)
		}
	}
	return nil
}

// MonitorAnalysis is the transient analysis of one monitoring trace.
// When the trace holds more than one injection, every field describes
// the FIRST injection's segment only (the trace truncated at the second
// injection time); the recorded series always covers the full run.
type MonitorAnalysis struct {
	// T90Seconds is the 90 % steady-state response time after the first
	// injection; TransientSeconds the time of maximum dV/dt.
	T90Seconds, TransientSeconds float64
	// BaselineMicroAmps and SteadyMicroAmps are the pre-stimulus and
	// settled levels of the analyzed segment.
	BaselineMicroAmps, SteadyMicroAmps float64
	// Settled reports whether the analyzed segment reached a flat
	// steady state.
	Settled bool
}

// stepThreshold is the fraction of the trace tail averaged for the
// steady-state level in AnalyzeStep (the historical Monitor contract).
const stepThreshold = 0.2

// AnalyzeMonitorTrace runs the shared transient analysis every
// monitoring surface (Sensor.Monitor, Executor.RunMonitor) applies to a
// recorded trace (times ascending):
//
//   - no injection and no stimulus time: a flat baseline run — the
//     trace mean reports as both baseline and steady level, no
//     transient analysis is attempted, Settled is true;
//   - no injection but a positive stimulusSeconds (two-phase protocols:
//     the sample is introduced at the baseline-phase end): step
//     analysis anchored at the stimulus;
//   - one or more injections: step analysis anchored at the first
//     injection, with the analyzed segment truncated at the second
//     injection (the analysis contract of MonitorAnalysis).
//
//advdiag:hotpath
func AnalyzeMonitorTrace(times, microAmps []float64, stimulusSeconds float64, injections []Injection) (MonitorAnalysis, error) {
	if len(injections) == 0 && stimulusSeconds <= 0 {
		mean := 0.0
		for _, v := range microAmps {
			mean += v
		}
		if len(microAmps) > 0 {
			mean /= float64(len(microAmps))
		}
		return MonitorAnalysis{
			BaselineMicroAmps: mean,
			SteadyMicroAmps:   mean,
			Settled:           true,
		}, nil
	}
	stim := stimulusSeconds
	aTimes, aCurs := times, microAmps
	if len(injections) > 0 {
		stim = injections[0].AtSeconds
		// The step analysis characterizes the FIRST injection, so
		// truncate the analysed segment at the second injection (if
		// any).
		if len(injections) > 1 {
			cut := len(times)
			for i, tv := range times {
				if tv >= injections[1].AtSeconds {
					cut = i
					break
				}
			}
			aTimes, aCurs = times[:cut], microAmps[:cut]
		}
	}
	step, err := signalproc.AnalyzeStep(aTimes, aCurs, stim, stepThreshold)
	if err != nil {
		return MonitorAnalysis{}, err
	}
	return MonitorAnalysis{
		T90Seconds:        step.T90,
		TransientSeconds:  step.TTransient,
		BaselineMicroAmps: step.Baseline,
		SteadyMicroAmps:   step.Steady,
		Settled:           step.Settled,
	}, nil
}

// MonitorSpec describes one continuous chronoamperometric acquisition
// on a platform electrode — the execution-layer twin of the public
// monitor request.
type MonitorSpec struct {
	// Target is the monitored metabolite; the platform must serve it
	// with a chronoamperometric (oxidase) electrode.
	Target string
	// ConcentrationMM is the concentration presented in the chamber
	// (introduced after the baseline phase under a two-phase protocol).
	// Zero with injections models a Fig. 3 injection experiment.
	ConcentrationMM float64
	// DurationSeconds is the trace length; zero selects the protocol
	// default (DefaultMonitorDurationSeconds).
	DurationSeconds float64
	// BaselineSeconds, when positive, runs the two-phase protocol: the
	// target is withheld until this time, and the baseline-subtracted
	// step current feeds the calibration estimate.
	BaselineSeconds float64
	// Injections are concentration steps during the run.
	Injections []Injection
	// AgeHours is the film age at acquisition time: sensitivity decays
	// as exp(−age/τ) — the drift long-term campaigns track.
	AgeHours float64
	// Polymer applies the paper's §III polymer stabilization (slows the
	// decay by electrode.PolymerStabilityGain).
	Polymer bool
}

// effectiveDuration resolves the zero-duration default.
func (s MonitorSpec) effectiveDuration() float64 {
	if s.DurationSeconds == 0 {
		return DefaultMonitorDurationSeconds
	}
	return s.DurationSeconds
}

// Validate checks the spec against the runtime input contract, so a
// spec that validates is a spec the execution engine will accept on
// any platform that monitors the target.
func (s MonitorSpec) Validate() error {
	if s.Target == "" {
		return fmt.Errorf("advdiag: monitor spec names no target")
	}
	if err := validateEntry(s.Target, s.ConcentrationMM); err != nil {
		return err
	}
	if math.IsNaN(s.DurationSeconds) || math.IsInf(s.DurationSeconds, 0) {
		return fmt.Errorf("advdiag: monitoring duration %g s is not finite", s.DurationSeconds)
	}
	if s.DurationSeconds < 0 {
		return fmt.Errorf("advdiag: negative monitoring duration %g s", s.DurationSeconds)
	}
	dur := s.effectiveDuration()
	const dt = measure.DefaultCASampleInterval
	if dur < dt {
		return fmt.Errorf("advdiag: monitoring duration %g s is shorter than the %g s sample interval", dur, dt)
	}
	if math.IsNaN(s.BaselineSeconds) || math.IsInf(s.BaselineSeconds, 0) || s.BaselineSeconds < 0 {
		return fmt.Errorf("advdiag: baseline phase %g s is not a valid duration", s.BaselineSeconds)
	}
	if s.BaselineSeconds >= dur {
		return fmt.Errorf("advdiag: baseline phase %g s swallows the whole %g s trace", s.BaselineSeconds, dur)
	}
	if math.IsNaN(s.AgeHours) || math.IsInf(s.AgeHours, 0) || s.AgeHours < 0 {
		return fmt.Errorf("advdiag: film age %g h is not a valid age", s.AgeHours)
	}
	if err := ValidateInjections(dur, s.Injections); err != nil {
		return err
	}
	// A stimulus (an injection or the baseline-phase end) triggers the
	// step analysis, which needs signalproc.MinStepSamples samples in
	// the analysed segment: the whole trace of int(dur/dt)+1 samples,
	// cut before the second injection when there is one. The recorded
	// times are i·dt, so the cut keeps enough samples exactly when
	// sample MinStepSamples−1 still lies before the second injection.
	if len(s.Injections) == 0 && s.BaselineSeconds <= 0 {
		return nil
	}
	if int(dur/dt)+1 < signalproc.MinStepSamples {
		return fmt.Errorf("advdiag: a %g s trace holds fewer than the %d samples the step analysis needs", dur, signalproc.MinStepSamples)
	}
	if len(s.Injections) > 1 && !(float64(signalproc.MinStepSamples-1)*dt < s.Injections[1].AtSeconds) {
		return fmt.Errorf("advdiag: second injection at t=%g s leaves fewer than the %d samples the step analysis needs", s.Injections[1].AtSeconds, signalproc.MinStepSamples)
	}
	return nil
}

// MonitorTrace is one executed monitoring acquisition: the recorded
// series, its transient analysis, and the calibration view of the step.
type MonitorTrace struct {
	// TimesSeconds and CurrentsMicroAmps are the full recorded series.
	TimesSeconds, CurrentsMicroAmps []float64
	// Analysis is the transient analysis (first-injection segment under
	// multiple injections — see MonitorAnalysis).
	Analysis MonitorAnalysis
	// StepMicroAmps is the baseline-subtracted step current: the
	// settled two-phase step under a baseline phase, otherwise the
	// analyzed segment's steady−baseline difference.
	StepMicroAmps float64
	// EstimatedMM inverts StepMicroAmps through the electrode's factory
	// calibration (the platform's Michaelis–Menten constants).
	// As the film ages the estimate drifts low — the signal long-term
	// campaigns recalibrate away.
	EstimatedMM float64
}

// monitorScratch is the reusable per-goroutine state of monitor
// ticks: one rig per chronoamperometric electrode plan and the trace
// arena the rigs' engines record into. Like panelScratch it only
// recycles allocations — every tick rebuilds the rig's solution, film
// state, noise stream and chain in place — so a tick on a reused
// scratch is bit-identical to one on a fresh scratch.
type monitorScratch struct {
	rigs  map[string]*monitorRig
	arena measure.Arena
}

// monitorRig is an isolated three-electrode cell around one planned
// working electrode (the monitored patient occupies one chamber, not
// the whole panel), with its engine and acquisition chain. The rig's
// electrode is a private copy built from the plan, so per-tick film
// state never touches the platform's shared electrode objects.
type monitorRig struct {
	sol   *cell.Solution
	we    *electrode.Electrode
	eng   *measure.Engine
	chain *analog.Chain
}

// rig returns the scratch's rig for the electrode plan, building it on
// first use.
func (s *monitorScratch) rig(e *Executor, ep core.ElectrodePlan) (*monitorRig, error) {
	if r := s.rigs[ep.Name]; r != nil {
		return r, nil
	}
	r := &monitorRig{sol: cell.NewSolution(), we: electrode.NewWorking(ep.Name, ep.Nano, ep.Assays[0])}
	c := cell.NewSingleChamber(r.sol, r.we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, err := measure.NewEngine(c, 0)
	if err != nil {
		return nil, err
	}
	eng.SetArena(&s.arena)
	chain, err := e.inner.ChainFor(ep.Name, eng.RNG())
	if err != nil {
		return nil, err
	}
	r.eng, r.chain = eng, chain
	if s.rigs == nil {
		s.rigs = make(map[string]*monitorRig)
	}
	s.rigs[ep.Name] = r
	return r, nil
}

// RunMonitor executes one continuous monitoring acquisition on the
// platform's chronoamperometric electrode for spec.Target: the
// electrode's isolated cell is filled with the spec's solution, the
// film is aged to spec.AgeHours, and the trace is recorded and
// analyzed. Calibration state comes from the shared table; the noise
// stream is seeded by the caller (schedulers derive it from campaign
// identity via MonitorSeed), so two calls with the same spec and seed
// are byte-identical on any goroutine, worker, or shard.
//
// The cell, engine, chain and trace buffers come from a pooled
// scratch; the returned series are fresh copies that the caller owns
// (see the README's buffer-retention contract).
//
//advdiag:hotpath
func (e *Executor) RunMonitor(spec MonitorSpec, seed uint64) (MonitorTrace, error) {
	s, _ := e.monitors.Get().(*monitorScratch)
	if s == nil {
		s = &monitorScratch{}
	}
	out, err := e.monitorWith(s, spec, seed)
	e.monitors.Put(s)
	return out, err
}

// monitorWith is the monitor kernel: RunMonitor's body over a reusable
// scratch. See RunMonitor for the execution contract.
//
//advdiag:hotpath
func (e *Executor) monitorWith(s *monitorScratch, spec MonitorSpec, seed uint64) (MonitorTrace, error) {
	if err := spec.Validate(); err != nil {
		return MonitorTrace{}, err
	}
	i, err := e.monitorElectrode(spec.Target)
	if err != nil {
		return MonitorTrace{}, err
	}
	table, err := e.calibration()
	if err != nil {
		return MonitorTrace{}, err
	}
	ep, cal := e.inner.Candidate.Electrodes[i], table[i]
	r, err := s.rig(e, ep)
	if err != nil {
		return MonitorTrace{}, err
	}

	r.sol.Reset()
	if spec.ConcentrationMM > 0 {
		r.sol.Set(spec.Target, phys.MilliMolar(spec.ConcentrationMM))
	}
	for _, inj := range spec.Injections {
		r.sol.Inject(inj.AtSeconds, spec.Target, phys.MilliMolar(inj.DeltaMM))
	}
	r.we.Func.PolymerStabilized = spec.Polymer
	r.we.Func.AgeSeconds = spec.AgeHours * 3600
	r.eng.Reseed(seed)
	// Replays the exact RNG draws chain construction consumes, so the
	// noise streams match a chain built on a fresh engine at seed.
	r.chain.Rebind(r.eng.RNG())
	s.arena.Reset()
	res, err := r.eng.RunCA(ep.Name, r.chain, measure.Chronoamperometry{
		Duration:      spec.DurationSeconds,
		BaselinePhase: spec.BaselineSeconds,
	})
	if err != nil {
		return MonitorTrace{}, err
	}

	// res aliases the arena; only these two fresh copies leave.
	cur := res.Current
	out := MonitorTrace{
		TimesSeconds:      make([]float64, cur.Len()),
		CurrentsMicroAmps: make([]float64, cur.Len()),
	}
	for i, v := range cur.Values {
		out.TimesSeconds[i] = cur.Time(i)
		out.CurrentsMicroAmps[i] = v * 1e6
	}
	out.Analysis, err = AnalyzeMonitorTrace(out.TimesSeconds, out.CurrentsMicroAmps, spec.BaselineSeconds, spec.Injections)
	if err != nil {
		return MonitorTrace{}, err
	}
	if spec.BaselineSeconds > 0 {
		out.StepMicroAmps = res.StepCurrent().MicroAmps()
	} else {
		out.StepMicroAmps = out.Analysis.SteadyMicroAmps - out.Analysis.BaselineMicroAmps
	}
	out.EstimatedMM = cal.invertCA(phys.Current(out.StepMicroAmps * 1e-6)).MilliMolar()
	return out, nil
}

// monitorElectrode finds the index of the chronoamperometric electrode
// plan serving the target; continuous monitoring is the oxidase use
// case, so CV electrodes never qualify.
func (e *Executor) monitorElectrode(target string) (int, error) {
	for i, ep := range e.inner.Candidate.Electrodes {
		if ep.Blank || ep.Technique != enzyme.Chronoamperometry {
			continue
		}
		for _, a := range ep.Assays {
			if a.Target.Name == target {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("advdiag: platform has no chronoamperometric electrode monitoring %q", target)
}

// MonitorSeed derives the deterministic noise seed of one campaign
// tick from the base seed and the tick's identity (campaign ID, tick
// index) alone. Scheduler results are therefore byte-identical at any
// worker or shard count and under any submission interleaving: unlike
// panel streams, a campaign tick's noise never depends on the
// fleet-wide acceptance order.
func MonitorSeed(base uint64, campaignID string, tick int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(campaignID))
	return mathx.Mix64((base ^ mathx.Mix64(h.Sum64())) + mathx.SplitmixGamma*(uint64(tick)+1))
}
