// Package measure runs electrochemical measurements: it couples the
// cell model (enzyme kinetics, diffusion, double layer, cross-talk) to
// one analog acquisition chain and executes chronoamperometry or cyclic
// voltammetry protocols, producing digitized traces.
package measure

import (
	"fmt"

	"advdiag/internal/phys"
)

// DefaultCASampleInterval is the chronoamperometric recording interval
// in seconds that a zero Chronoamperometry.SampleInterval selects.
const DefaultCASampleInterval = 0.1

// Chronoamperometry holds the working electrode at a fixed potential
// and records the current transient (oxidase readout, paper §I-B).
type Chronoamperometry struct {
	// Potential is the applied potential; zero means "use the probe's
	// Table I applied potential".
	Potential phys.Voltage
	// Duration is the total measurement time in seconds.
	Duration float64
	// SampleInterval is the recording interval; zero defaults to
	// DefaultCASampleInterval.
	SampleInterval float64
	// BaselinePhase, when positive, runs a two-phase protocol: the
	// electrode's own target is withheld (buffer only) until this time,
	// then the sample is introduced. The step between the settled phases
	// (CAResult.StepCurrent) cancels run-to-run baseline offsets and
	// co-present interferent currents — the zeroing procedure real
	// instruments perform before introducing the sample.
	BaselinePhase float64
}

// WithDefaults fills unset fields.
func (p Chronoamperometry) WithDefaults() Chronoamperometry {
	if p.SampleInterval <= 0 {
		p.SampleInterval = DefaultCASampleInterval
	}
	if p.Duration <= 0 {
		p.Duration = 60
	}
	return p
}

// Validate checks the protocol.
func (p Chronoamperometry) Validate() error {
	p = p.WithDefaults()
	if p.Duration < p.SampleInterval {
		return fmt.Errorf("measure: CA duration %g s shorter than sample interval %g s", p.Duration, p.SampleInterval)
	}
	return nil
}

// CyclicVoltammetry sweeps the potential linearly between Start and
// Vertex and back, recording current vs potential (CYP readout).
type CyclicVoltammetry struct {
	// Start is the initial potential; for reduction scans it sits above
	// (more positive than) every expected peak.
	Start phys.Voltage
	// Vertex is the turning potential, below every expected peak.
	Vertex phys.Voltage
	// Rate is the sweep rate; zero defaults to the paper's 20 mV/s.
	Rate phys.SweepRate
	// Cycles is the number of full triangles; zero defaults to 1.
	Cycles int
	// SampleInterval is the recording interval; zero defaults to the
	// time of a 1 mV potential step at the chosen rate.
	SampleInterval float64
	// AllowFastSweep skips the cell sweep-rate check (used by the
	// sweep-rate ablation experiment).
	AllowFastSweep bool
	// NoFilmBackground disables the run-to-run film background bumps —
	// for ablation experiments that isolate electrode kinetics.
	NoFilmBackground bool
}

// WithDefaults fills unset fields.
func (p CyclicVoltammetry) WithDefaults() CyclicVoltammetry {
	if p.Rate <= 0 {
		p.Rate = phys.MilliVoltsPerSecond(20)
	}
	if p.Cycles <= 0 {
		p.Cycles = 1
	}
	if p.SampleInterval <= 0 {
		p.SampleInterval = 0.001 / float64(p.Rate) // one sample per mV
	}
	return p
}

// Validate checks the protocol.
func (p CyclicVoltammetry) Validate() error {
	p = p.WithDefaults()
	if p.Start == p.Vertex {
		return fmt.Errorf("measure: degenerate CV window")
	}
	return nil
}

// CVWindowFor returns a CV window bracketing the given peak potentials
// with the standard 250 mV margins on both sides (cathodic-first scan:
// start above the peaks, vertex below).
func CVWindowFor(peaks ...phys.Voltage) (start, vertex phys.Voltage) {
	if len(peaks) == 0 {
		return phys.MilliVolts(100), phys.MilliVolts(-800)
	}
	hi, lo := peaks[0], peaks[0]
	for _, p := range peaks[1:] {
		if p > hi {
			hi = p
		}
		if p < lo {
			lo = p
		}
	}
	return hi + phys.MilliVolts(250), lo - phys.MilliVolts(250)
}

// FilmBumpWidth is the potential width (volts) of the enzyme film's
// variable pseudo-capacitive background bump around each binding's
// formal potential. The quantification side fits nuisance columns of
// the same shape (analysis.GaussianColumn).
const FilmBumpWidth = 0.060
