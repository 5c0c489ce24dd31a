package advdiag

import (
	"fmt"

	"advdiag/internal/analog"
	"advdiag/internal/analysis"
	"advdiag/internal/cell"
	"advdiag/internal/core"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
	rt "advdiag/internal/runtime"
)

// Sensor is a single functionalized working electrode with its
// three-electrode cell and acquisition chain — the simplest structure of
// the paper's §II ("a single sensor, made of 3 electrodes").
type Sensor struct {
	target  string
	assay   enzyme.Assay
	nano    electrode.Nanostructure
	nanoSet bool
	// readout is the catalog readout the explorer would choose for this
	// electrode (core.SingleReadout), fixed at construction.
	readout core.ReadoutClass
	seed    uint64
	chopper bool
	// rng persists across measurements so repeated blanks draw fresh
	// (but reproducible) noise — required for a meaningful blank σ.
	rng *mathx.RNG
	// cv holds the voltammetric calibrations, one per CV window, and fit
	// is the template fit's reused scratch.
	cv  map[[2]phys.Voltage]*rt.CVCalib
	fit analysis.FitScratch
}

// SensorOption customizes a Sensor.
type SensorOption func(*Sensor)

// WithProbe selects a specific probe by name ("glucose oxidase",
// "CYP2B4", ...) when a target has several registered options.
func WithProbe(name string) SensorOption {
	return func(s *Sensor) {
		for _, a := range enzyme.AssaysFor(s.target) {
			if a.Probe == name {
				s.assay = a
				return
			}
		}
	}
}

// WithSeed fixes the noise seed (default 1).
func WithSeed(seed uint64) SensorOption {
	return func(s *Sensor) { s.seed = seed }
}

// WithBareElectrode disables the nanostructuring of the cited electrode
// construction (lower sensitivity — the paper's §III remark).
func WithBareElectrode() SensorOption {
	return func(s *Sensor) { s.nano, s.nanoSet = electrode.Bare, true }
}

// WithNanostructuredElectrode forces a carbon-nanotube electrode even
// when the cited construction was bare.
func WithNanostructuredElectrode() SensorOption {
	return func(s *Sensor) { s.nano, s.nanoSet = electrode.CNT, true }
}

// WithChopper enables chopper stabilization in the readout, suppressing
// flicker noise (paper §II-C).
func WithChopper() SensorOption {
	return func(s *Sensor) { s.chopper = true }
}

// NewSensor builds a sensor for the named target molecule using the
// first registered probe (oxidases take precedence by registry order
// for metabolites; CYPs for drugs).
func NewSensor(target string, opts ...SensorOption) (*Sensor, error) {
	assays := enzyme.AssaysFor(target)
	if len(assays) == 0 {
		return nil, fmt.Errorf("advdiag: no registered probe senses %q", target)
	}
	s := &Sensor{target: target, assay: assays[0], seed: 1, cv: map[[2]phys.Voltage]*rt.CVCalib{}}
	for _, opt := range opts {
		opt(s)
	}
	if !s.nanoSet {
		s.nano = core.CitedNano(s.assay)
	}
	var err error
	if s.readout, err = core.SingleReadout(s.assay, s.nano); err != nil {
		return nil, err
	}
	s.rng = mathx.NewRNG(s.seed)
	return s, nil
}

// Probe returns the probe name in use.
func (s *Sensor) Probe() string { return s.assay.Probe }

// Technique returns "chronoamperometry" or "cyclic voltammetry".
func (s *Sensor) Technique() string { return s.assay.Technique.String() }

// build assembles the cell and engine for a given sample concentration
// profile.
func (s *Sensor) build(sol *cell.Solution) (*measure.Engine, *analog.Chain, string, error) {
	we := electrode.NewWorking("WE1", s.nano, s.assay)
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, err := measure.NewEngine(c, s.rng.Uint64())
	if err != nil {
		return nil, nil, "", err
	}
	chain := s.readout.NewChain(nil, eng.RNG())
	if s.chopper {
		chain.Noise.EnableChopper(true)
	}
	return eng, chain, "WE1", nil
}

// MeasureSteadyState measures one sample at the given concentration
// (mM) and returns the steady-state current in µA (chronoamperometric
// sensors) or the baseline-corrected reduction-peak current in µA
// (voltammetric sensors).
func (s *Sensor) MeasureSteadyState(concMM float64) (float64, error) {
	sol := cell.NewSolution().Set(s.target, phys.MilliMolar(concMM))
	switch s.assay.Technique {
	case enzyme.Chronoamperometry:
		eng, chain, we, err := s.build(sol)
		if err != nil {
			return 0, err
		}
		res, err := eng.RunCA(we, chain, measure.Chronoamperometry{Duration: 120})
		if err != nil {
			return 0, err
		}
		return res.SteadyCurrent().MicroAmps(), nil
	case enzyme.CyclicVoltammetry:
		_, heights, err := s.measureCV(sol, s.assay.Binding.PeakPotential)
		if err != nil {
			return 0, err
		}
		return heights[s.target] * 1e6, nil
	}
	return 0, fmt.Errorf("advdiag: unsupported technique")
}

// measureCV runs one cyclic voltammetry of sol over the window bracketing
// peaks and quantifies it by template decomposition: each substrate's
// fitted amplitude times its unit template's peak height is its
// baseline-corrected cathodic peak current (A), keyed by substrate.
// The window's calibration is computed on first use from this
// measurement's engine and chain; it draws no noise, so the sensor's
// noise stream does not move.
func (s *Sensor) measureCV(sol *cell.Solution, peaks ...phys.Voltage) (*measure.CVResult, map[string]float64, error) {
	eng, chain, we, err := s.build(sol)
	if err != nil {
		return nil, nil, err
	}
	start, vertex := measure.CVWindowFor(peaks...)
	window := [2]phys.Voltage{start, vertex}
	cal := s.cv[window]
	if cal == nil {
		if cal, err = rt.NewCVCalib(eng, we, chain, peaks...); err != nil {
			return nil, nil, err
		}
		s.cv[window] = cal
	}
	res, err := eng.RunCVWithBasis(we, chain, cal.Proto, cal.Basis)
	if err != nil {
		return nil, nil, err
	}
	fit, err := cal.Plan.Fit(res.Voltammogram, &s.fit)
	if err != nil {
		return nil, nil, err
	}
	heights := make(map[string]float64, len(cal.UnitPeak))
	for name, peak := range cal.UnitPeak {
		heights[name] = fit.Amplitude(name) * peak
	}
	return res, heights, nil
}

// FOMReport is a Table III row measured on this sensor.
type FOMReport struct {
	// Target and Probe identify the assay.
	Target, Probe string
	// SensitivityPaper is the calibration slope in µA/(mM·cm²).
	SensitivityPaper float64
	// LODMicroMolar is the eq. (5) detection limit in µM.
	LODMicroMolar float64
	// LinearLoMM and LinearHiMM bound the detected linear range in mM.
	LinearLoMM, LinearHiMM float64
	// R2 is the linear-fit quality over the linear range.
	R2 float64
}

// String renders the report like a Table III row.
func (r FOMReport) String() string {
	return fmt.Sprintf("%-14s %-18s S=%6.3g µA/(mM·cm²)  LOD=%6.3g µM  linear %.3g–%.3g mM (R²=%.4f)",
		r.Target, r.Probe, r.SensitivityPaper, r.LODMicroMolar, r.LinearLoMM, r.LinearHiMM, r.R2)
}

// Calibrate measures the sensor at the given concentrations (mM) plus
// repeated blanks and extracts the figures of merit the paper's
// Table III reports.
func (s *Sensor) Calibrate(concsMM []float64) (FOMReport, error) {
	if len(concsMM) < 4 {
		return FOMReport{}, fmt.Errorf("advdiag: calibration needs ≥4 concentrations")
	}
	concs := make([]phys.Concentration, len(concsMM))
	for i, c := range concsMM {
		concs[i] = phys.MilliMolar(c)
	}
	const (
		nBlanks    = 12
		replicates = 16
	)
	cal, err := analysis.Calibrate(concs, nBlanks, replicates, "A", func(c phys.Concentration) (float64, error) {
		uA, err := s.MeasureSteadyState(c.MilliMolar())
		if err != nil {
			return 0, err
		}
		return uA * 1e-6, nil
	})
	if err != nil {
		return FOMReport{}, err
	}
	rep, err := cal.Analyze(electrode.ReferenceArea, 1)
	if err != nil {
		return FOMReport{}, err
	}
	return FOMReport{
		Target:           s.target,
		Probe:            s.assay.Probe,
		SensitivityPaper: rep.Sensitivity.Paper(),
		LODMicroMolar:    rep.LOD.MicroMolar(),
		LinearLoMM:       rep.LinearLo.MilliMolar(),
		LinearHiMM:       rep.LinearHi.MilliMolar(),
		R2:               rep.R2,
	}, nil
}
