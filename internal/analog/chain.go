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
// precede Digitize and DigitizeRun and follow any change to Converter.
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
// ADC, returning the recorded voltage: DigitizeRun over a run of one.
// Call Reset before the first sample of a run.
//
//advdiag:hotpath
func (c *Chain) Digitize(i phys.Current) phys.Voltage {
	in := [1]float64{float64(i)}
	var rec, cur [1]float64
	c.DigitizeRun(in[:], rec[:], cur[:])
	return phys.Voltage(rec[0])
}

// runBlock is how many draws DigitizeRun takes from each noise stream
// at a time: a block of both streams fits in L1 next to the run's
// traces, so the loop reads its draws while they are still cached.
const runBlock = 256

// DigitizeRun digitizes a run of cell currents in one pass. For every
// k, rec[k] is the recorded voltage and cur[k] the current
// CurrentFromVoltage recovers from it, bit for bit what len(in)
// successive Digitize calls return, and the chain's filter and noise
// state end where theirs would. Each noise stream fills a block of
// draws into rec and cur ahead of the samples that overwrite them, so
// rec and cur must hold len(in) samples and overlap neither in nor each
// other. Call Reset before the first sample of a run.
//
//advdiag:hotpath
func (c *Chain) DigitizeRun(in, rec, cur []float64) {
	n := len(in)
	rec, cur = rec[:n], cur[:n]
	mux := c.Mux != nil
	leak := 0.0
	if mux {
		leak = float64(c.Mux.Channels-1) * float64(c.Mux.Leakage)
	}
	t := c.Readout
	rf, sat, alpha, offset := float64(t.Feedback), float64(t.Saturation), t.alpha, float64(t.OutputOffset)
	state, primed := t.state, t.initialized
	fs, lsb, maxCode := float64(c.Converter.FullScale), c.lsb, c.maxCode

	// A silent source (σ ≤ 0) draws nothing and adds an exact 0, as its
	// Sample does. A chain without Noise adds nothing at all: even +0
	// would turn a −0 current into +0.
	noisy := c.Noise != nil
	var white, flicker *mathx.RNG
	var wSigma, fSigma, fNorm, fSum, scale float64
	var rows []float64
	var count uint64
	if noisy {
		if w := c.Noise.white; !(w.Sigma <= 0) {
			white, wSigma = w.rng, w.Sigma
		}
		if f := c.Noise.flicker; !(f.Sigma <= 0) {
			flicker, fSigma, fNorm = f.rng, f.Sigma, f.norm
			rows, fSum, count = f.rows, f.sum, f.count
		}
		scale = c.Noise.flickerScale
	}

	for lo := 0; lo < n; lo += runBlock {
		hi := min(lo+runBlock, n)
		if white != nil {
			white.NormFill(rec[lo:hi])
		}
		if flicker != nil {
			flicker.NormFill(cur[lo:hi])
		}
		for k := lo; k < hi; k++ {
			x := in[k]
			if mux {
				x += leak
			}
			if noisy {
				w, fl := 0.0, 0.0
				if white != nil {
					w = wSigma * rec[k]
				}
				if flicker != nil {
					fSum, count = flickerAdvance(rows, fSum, count, cur[k])
					fl = fSigma * fSum * fNorm
				}
				x += w + scale*fl
			}
			state = tiaStep(x, rf, sat, alpha, state, primed)
			primed = true
			v := adcLevel(adcCode(state+offset, fs, lsb), lsb, maxCode)
			rec[k] = v
			cur[k] = -v / rf
		}
	}

	t.state, t.initialized = state, primed
	if flicker != nil {
		c.Noise.flicker.sum, c.Noise.flicker.count = fSum, count
	}
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
