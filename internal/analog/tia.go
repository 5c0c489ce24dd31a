package analog

import (
	"fmt"
	"math"

	"advdiag/internal/phys"
)

// TIA is the transimpedance amplifier converting the working-electrode
// current to a voltage (paper Fig. 1): V = −I·Rf, with output
// saturation, a single-pole bandwidth limit, and input-referred current
// noise handled by the enclosing Chain.
type TIA struct {
	// Feedback is the transimpedance Rf.
	Feedback phys.Resistance
	// Saturation is the output swing limit (±Saturation).
	Saturation phys.Voltage
	// BandwidthHz is the −3 dB bandwidth of the stage.
	BandwidthHz float64
	// OutputOffset is the output-referred offset voltage.
	OutputOffset phys.Voltage

	// filter state (one-pole IIR, configured by Reset).
	state       float64
	alpha       float64
	initialized bool
}

// Validate checks the parameters.
func (t *TIA) Validate() error {
	if t.Feedback <= 0 {
		return fmt.Errorf("analog: TIA feedback must be positive")
	}
	if t.Saturation <= 0 {
		return fmt.Errorf("analog: TIA saturation must be positive")
	}
	if t.BandwidthHz <= 0 {
		return fmt.Errorf("analog: TIA bandwidth must be positive")
	}
	return nil
}

// Reset clears the filter state and fixes the sampling interval used for
// the bandwidth pole.
func (t *TIA) Reset(dt float64) {
	t.state = 0
	t.initialized = false
	if dt <= 0 || t.BandwidthHz <= 0 {
		t.alpha = 1
		return
	}
	// One-pole low-pass: alpha = dt/(tau+dt), tau = 1/(2π·f3dB).
	tau := 1 / (2 * math.Pi * t.BandwidthHz)
	t.alpha = dt / (tau + dt)
	if t.alpha > 1 {
		t.alpha = 1
	}
}

// Convert processes one current sample into the output voltage,
// applying the transimpedance, saturation and the bandwidth pole.
func (t *TIA) Convert(i phys.Current) phys.Voltage {
	t.state = tiaStep(float64(i), float64(t.Feedback), float64(t.Saturation), t.alpha, t.state, t.initialized)
	t.initialized = true
	return phys.Voltage(t.state) + t.OutputOffset
}

// tiaStep is one sample of the stage, shared by Convert and
// Chain.DigitizeRun: the transimpedance −i·rf clamped to ±sat, then the
// one-pole filter, which a first sample (primed false) initializes. It
// returns the new filter state, the output before OutputOffset.
func tiaStep(i, rf, sat, alpha, state float64, primed bool) float64 {
	v := -i * rf
	if v > sat {
		v = sat
	}
	if v < -sat {
		v = -sat
	}
	if !primed {
		return v
	}
	return state + alpha*(v-state)
}

// FullScaleCurrent returns the current magnitude that saturates the
// output: Saturation/Feedback.
func (t *TIA) FullScaleCurrent() phys.Current {
	return phys.Current(float64(t.Saturation) / float64(t.Feedback))
}

// Saturated reports whether |i| exceeds the linear input range.
func (t *TIA) Saturated(i phys.Current) bool {
	if i < 0 {
		i = -i
	}
	return i > t.FullScaleCurrent()
}

// Readout classes from the paper (§II-C): oxidase channels need
// ±10 µA range with 10 nA resolution; CYP channels ±100 µA with 100 nA.

// NewOxidaseTIA returns the catalog oxidase readout: Rf = 100 kΩ so
// ±10 µA maps to ±1 V.
func NewOxidaseTIA() *TIA {
	return &TIA{Feedback: 100e3, Saturation: 1.0, BandwidthHz: 100}
}

// NewCYPTIA returns the catalog CYP readout: Rf = 10 kΩ so ±100 µA maps
// to ±1 V.
func NewCYPTIA() *TIA {
	return &TIA{Feedback: 10e3, Saturation: 1.0, BandwidthHz: 100}
}
