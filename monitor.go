package advdiag

import (
	"fmt"
	"math"

	"advdiag/internal/cell"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
	rt "advdiag/internal/runtime"
)

// InjectionEvent is a concentration step added to the measurement
// chamber during continuous monitoring (paper Fig. 3: "injection of the
// target molecule").
type InjectionEvent struct {
	// AtSeconds is the injection time from the start of monitoring.
	AtSeconds float64
	// DeltaMM is the concentration step in mM.
	DeltaMM float64
}

// MonitorResult is a continuous-monitoring trace with its transient
// analysis.
//
// The recorded series always covers the full run, but the analysis
// fields characterize the FIRST injection only: with more than one
// injection, the analyzed segment is the trace truncated at the second
// injection time, and every analysis field below describes that segment
// — not the whole trace.
type MonitorResult struct {
	// TimesSeconds and CurrentsMicroAmps are the recorded series over
	// the full run, injections included.
	TimesSeconds, CurrentsMicroAmps []float64
	// T90Seconds is the 90 % steady-state response time after the first
	// injection (the paper's Fig. 3 shows ≈30 s for glucose), within
	// the first-injection segment.
	T90Seconds float64
	// TransientSeconds is the time of maximum dV/dt after the first
	// injection (the paper's "transient response time"), within the
	// first-injection segment.
	TransientSeconds float64
	// BaselineMicroAmps and SteadyMicroAmps are the pre-injection and
	// settled levels of the first-injection segment — SteadyMicroAmps is
	// NOT the level the full trace ends at when later injections step
	// the concentration again.
	BaselineMicroAmps, SteadyMicroAmps float64
	// Settled reports whether the first-injection segment reached a flat
	// steady state before the second injection (or the trace end);
	// later segments are not analyzed.
	Settled bool
	// StepMicroAmps is the baseline-subtracted step current: the
	// settled two-phase step when the acquisition ran a baseline phase
	// (service monitor requests), otherwise the analyzed segment's
	// steady−baseline difference.
	StepMicroAmps float64
	// EstimatedMM inverts StepMicroAmps through the electrode's factory
	// calibration. Only service runs (Lab/Fleet monitor requests) set
	// it; a hand-held Sensor.Monitor reports 0 — the Sensor carries no
	// platform calibration cache.
	EstimatedMM float64
}

// Fingerprint folds every numeric field and series of the result into
// one 64-bit value (FNV-1a over exact float64 bit patterns), so two
// monitor runs are byte-identical exactly when their fingerprints
// match. The serving layers diff remote and local runs with it.
func (m *MonitorResult) Fingerprint() uint64 {
	h := newFingerprinter()
	h.series(m.TimesSeconds)
	h.series(m.CurrentsMicroAmps)
	h.float(m.T90Seconds)
	h.float(m.TransientSeconds)
	h.float(m.BaselineMicroAmps)
	h.float(m.SteadyMicroAmps)
	h.flag(m.Settled)
	h.float(m.StepMicroAmps)
	h.float(m.EstimatedMM)
	return uint64(h)
}

// Monitor runs a continuous chronoamperometric measurement with the
// given injections, reproducing the paper's Fig. 3 experiment. Only
// chronoamperometric (oxidase) sensors support monitoring.
//
// An empty injection list is a valid baseline-only run: the sensor
// records its blank/drift trace over the full duration (useful for
// characterizing noise floors and long-term drift), the baseline and
// steady levels both report the trace mean, and no transient analysis
// is attempted (T90 and the transient time stay zero, Settled is
// true).
//
// With more than one injection, the analysis fields of the result
// describe the first-injection segment only (the trace truncated at
// the second injection) — see MonitorResult for the exact contract.
//
// Only a non-finite or negative duration is an error; zero means the
// protocol's default duration (60 s). Injections are validated against
// the effective duration: non-finite or negative injection times,
// non-finite concentration steps, and injections scheduled past the
// trace end are rejected instead of flowing silently into the solver.
//
// Monitor is a thin adapter over the shared runtime analysis
// (internal/runtime.AnalyzeMonitorTrace): the Sensor owns the cell and
// the noise stream, the runtime owns validation and the transient
// analysis, so the hand-held sensor and the Fleet's monitor campaigns
// cannot drift apart.
func (s *Sensor) Monitor(durationSeconds float64, injections ...InjectionEvent) (*MonitorResult, error) {
	if s.Technique() != "chronoamperometry" {
		return nil, fmt.Errorf("advdiag: continuous monitoring needs an oxidase sensor, %s uses %s", s.target, s.Technique())
	}
	if math.IsNaN(durationSeconds) || math.IsInf(durationSeconds, 0) {
		return nil, fmt.Errorf("advdiag: monitoring duration %g s is not finite", durationSeconds)
	}
	if durationSeconds < 0 {
		return nil, fmt.Errorf("advdiag: negative monitoring duration %g s", durationSeconds)
	}
	effective := durationSeconds
	if effective == 0 {
		effective = rt.DefaultMonitorDurationSeconds
	}
	rinj := make([]rt.Injection, len(injections))
	for i, inj := range injections {
		rinj[i] = rt.Injection{AtSeconds: inj.AtSeconds, DeltaMM: inj.DeltaMM}
	}
	if err := rt.ValidateInjections(effective, rinj); err != nil {
		return nil, err
	}
	sol := cell.NewSolution()
	for _, inj := range injections {
		sol.Inject(inj.AtSeconds, s.target, phys.MilliMolar(inj.DeltaMM))
	}
	eng, chain, we, err := s.build(sol)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunCA(we, chain, measure.Chronoamperometry{Duration: durationSeconds})
	if err != nil {
		return nil, err
	}
	times := res.Current.Times()
	curs := make([]float64, res.Current.Len())
	for i, v := range res.Current.Values {
		curs[i] = v * 1e6
	}
	an, err := rt.AnalyzeMonitorTrace(times, curs, 0, rinj)
	if err != nil {
		return nil, err
	}
	return &MonitorResult{
		TimesSeconds:      times,
		CurrentsMicroAmps: curs,
		T90Seconds:        an.T90Seconds,
		TransientSeconds:  an.TransientSeconds,
		BaselineMicroAmps: an.BaselineMicroAmps,
		SteadyMicroAmps:   an.SteadyMicroAmps,
		Settled:           an.Settled,
		StepMicroAmps:     an.SteadyMicroAmps - an.BaselineMicroAmps,
	}, nil
}

// Voltammogram is a recorded current-vs-potential curve with its
// detected reduction peaks.
type Voltammogram struct {
	// PotentialsMV and CurrentsMicroAmps are the final-cycle curve.
	PotentialsMV, CurrentsMicroAmps []float64
	// Peaks are the detected reduction peaks.
	Peaks []VoltammetricPeak
}

// VoltammetricPeak is one detected reduction peak.
type VoltammetricPeak struct {
	// PotentialMV is the peak position (the electrochemical signature
	// identifying the molecule).
	PotentialMV float64
	// HeightMicroAmps is the baseline-corrected cathodic height (tracks
	// concentration).
	HeightMicroAmps float64
}

// RunVoltammetry performs one cyclic voltammetry on a CYP sensor with
// the given sample concentrations (mM by species name; the sensor's
// isoform responds to every substrate it binds). The window brackets
// the isoform's known peaks.
func (s *Sensor) RunVoltammetry(sample map[string]float64) (*Voltammogram, error) {
	if s.Technique() != "cyclic voltammetry" {
		return nil, fmt.Errorf("advdiag: %s uses %s, not cyclic voltammetry", s.target, s.Technique())
	}
	sol := cell.NewSolution()
	for name, mm := range sample {
		sol.Set(name, phys.MilliMolar(mm))
	}
	var peaks []phys.Voltage
	for _, b := range s.assay.CYP.Bindings {
		peaks = append(peaks, b.PeakPotential)
	}
	res, heights, err := s.measureCV(sol, peaks...)
	if err != nil {
		return nil, err
	}
	out := &Voltammogram{}
	for i := range res.Voltammogram.X {
		out.PotentialsMV = append(out.PotentialsMV, res.Voltammogram.X[i]*1e3)
		out.CurrentsMicroAmps = append(out.CurrentsMicroAmps, res.Voltammogram.Y[i]*1e6)
	}
	// Each binding's height comes from the template decomposition;
	// positions come from direct detection when the peak stands on its
	// own, falling back to the template's known potential for shoulders.
	for _, b := range s.assay.CYP.Bindings {
		height := heights[b.Substrate.Name]
		// Report only substrates with a meaningful fitted signal
		// (above ~3× the per-sample blank noise current).
		floor := 3 * b.BlankSigmaAt(1) * 0.23e-6
		if height < floor {
			continue
		}
		pk := VoltammetricPeak{PotentialMV: b.PeakPotential.MilliVolts(), HeightMicroAmps: height * 1e6}
		if det, err := peakNearBinding(res, b.PeakPotential); err == nil {
			pk.PotentialMV = det.PotentialMV
		}
		out.Peaks = append(out.Peaks, pk)
	}
	return out, nil
}
