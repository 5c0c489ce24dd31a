package analog

import (
	"fmt"

	"advdiag/internal/mathx"
	"advdiag/internal/phys"
)

// Chain is one assembled acquisition channel (paper Fig. 2): voltage
// generator → potentiostat → cell → multiplexer → transimpedance
// readout → ADC, with the channel's input-referred noise model.
//
// The cell itself is simulated elsewhere; Chain turns the cell's
// faradaic current into the digitized voltage the platform records.
type Chain struct {
	// Pstat is the potential control loop.
	Pstat *Potentiostat
	// Mux is the electrode multiplexer (nil when each electrode has a
	// dedicated readout).
	Mux *Mux
	// Readout is the transimpedance stage.
	Readout *TIA
	// Converter is the ADC.
	Converter *ADC
	// Noise is the input-referred current noise of the channel (nil for
	// an ideal chain).
	Noise *NoiseModel

	// Per-run ADC constants, fixed by Reset: the quantization step and
	// the largest code.
	lsb, maxCode float64
}

// NewOxidaseChain assembles the catalog chain for oxidase channels:
// ±10 µA readout, 12-bit ADC, white noise floor ≈2 nA per sample with a
// 10 nA flicker component (before chopping).
func NewOxidaseChain(mux *Mux, rng *mathx.RNG) *Chain {
	return &Chain{
		Pstat:     DefaultPotentiostat(),
		Mux:       mux,
		Readout:   NewOxidaseTIA(),
		Converter: DefaultADC(),
		Noise:     NewNoiseModel(2e-9, 10e-9, rng),
	}
}

// NewCYPChain assembles the paper-spec chain for CYP channels: ±100 µA
// readout, 12-bit ADC, white noise floor ≈20 nA with a 100 nA flicker
// component (before chopping). This class suits the cm²-scale electrodes
// of the cited CYP references; the platform's 0.23 mm² electrodes need
// the nano or pico classes below.
func NewCYPChain(mux *Mux, rng *mathx.RNG) *Chain {
	return &Chain{
		Pstat:     DefaultPotentiostat(),
		Mux:       mux,
		Readout:   NewCYPTIA(),
		Converter: DefaultADC(),
		Noise:     NewNoiseModel(20e-9, 100e-9, rng),
	}
}

// NewNanoChain assembles a high-gain chain for nA-scale currents:
// Rf = 1 MΩ (±1 µA full scale, ≈0.5 nA per LSB), 0.2 nA white and 1 nA
// flicker noise.
func NewNanoChain(mux *Mux, rng *mathx.RNG) *Chain {
	return &Chain{
		Pstat:     DefaultPotentiostat(),
		Mux:       mux,
		Readout:   &TIA{Feedback: 1e6, Saturation: 1.0, BandwidthHz: 100},
		Converter: DefaultADC(),
		Noise:     NewNoiseModel(0.2e-9, 1e-9, rng),
	}
}

// NewPicoChain assembles an electrometer-grade chain for sub-nA
// currents: Rf = 10 MΩ (±100 nA full scale, ≈50 pA per LSB), 20 pA
// white and 60 pA flicker noise. The multiplexed CYP channels of the
// 0.23 mm² platform land here.
func NewPicoChain(mux *Mux, rng *mathx.RNG) *Chain {
	return &Chain{
		Pstat:     DefaultPotentiostat(),
		Mux:       mux,
		Readout:   &TIA{Feedback: 10e6, Saturation: 1.0, BandwidthHz: 30},
		Converter: DefaultADC(),
		Noise:     NewNoiseModel(20e-12, 60e-12, rng),
	}
}

// Validate checks every stage.
func (c *Chain) Validate() error {
	if c.Pstat == nil || c.Readout == nil || c.Converter == nil {
		return fmt.Errorf("analog: chain missing a stage")
	}
	if err := c.Pstat.Validate(); err != nil {
		return err
	}
	if c.Mux != nil {
		if err := c.Mux.Validate(); err != nil {
			return err
		}
	}
	if err := c.Readout.Validate(); err != nil {
		return err
	}
	return c.Converter.Validate()
}

// Reset prepares the chain for a run sampled at interval dt. It also
// fixes the ADC's step and code range for the run, so Reset must
// precede Digitize and follow any change to Converter.
func (c *Chain) Reset(dt float64) {
	c.Readout.Reset(dt)
	c.lsb = float64(c.Converter.LSB())
	c.maxCode = c.Converter.maxCode()
}

// Rebind re-derives the chain's per-run random state from rng exactly
// as the chain constructors would (NewNoiseModel's two Split draws plus
// the flicker row fill), reusing every allocation. Every other stage is
// either pure (potentiostat, mux, ADC) or reset per run (TIA, via
// Reset), so a rebound chain behaves bit-identically to a newly
// constructed one consuming the same rng.
func (c *Chain) Rebind(rng *mathx.RNG) {
	if c.Noise != nil {
		c.Noise.Rebind(rng)
	}
}

// ApplyPotential returns the cell potential actually established for a
// programmed target.
func (c *Chain) ApplyPotential(target phys.Voltage) phys.Voltage {
	return c.Pstat.Apply(target)
}

// Digitize processes one cell-current sample through mux, noise, TIA and
// ADC, returning the recorded voltage. Call Reset before the first
// sample of a run.
//
//advdiag:hotpath
func (c *Chain) Digitize(i phys.Current) phys.Voltage {
	if c.Mux != nil {
		i = c.Mux.Pass(i)
	}
	if c.Noise != nil {
		i += phys.Current(c.Noise.Sample())
	}
	v := c.Readout.Convert(i)
	return c.Converter.quantize(v, c.lsb, c.maxCode)
}

// CurrentFromVoltage inverts the nominal transimpedance, recovering the
// current estimate the digital side works with.
func (c *Chain) CurrentFromVoltage(v phys.Voltage) phys.Current {
	return phys.Current(-float64(v) / float64(c.Readout.Feedback))
}

// ResolutionCurrent returns the smallest current step the chain
// resolves: one ADC LSB through the transimpedance.
func (c *Chain) ResolutionCurrent() phys.Current {
	return phys.Current(float64(c.Converter.LSB()) / float64(c.Readout.Feedback))
}

// RangeCurrent returns the full-scale current of the chain.
func (c *Chain) RangeCurrent() phys.Current {
	fs := c.Readout.FullScaleCurrent()
	adcFS := phys.Current(float64(c.Converter.FullScale) / float64(c.Readout.Feedback))
	if adcFS < fs {
		return adcFS
	}
	return fs
}
