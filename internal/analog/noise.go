// Package analog simulates the electronic acquisition chain of the
// platform (paper Fig. 1 and Fig. 2): the potentiostat control loop,
// the transimpedance current readout, fixed and sweep voltage
// generators, the analog multiplexer, the ADC, and the noise phenomena
// (thermal and flicker) with their countermeasures (chopper
// stabilization and correlated double sampling).
package analog

import (
	"math"
	"math/bits"

	"advdiag/internal/mathx"
)

// NoiseModelVersion identifies the exact draw sequence of the
// simulator's noise: the normal sampler (mathx.RNG.Norm) and the
// flicker synthesis (FlickerNoise). Builds with the same version draw
// bit-identical noise from the same seed; any change that moves a noise
// bit bumps it, so results stamped with different versions are known
// not to be bit-comparable. Version 1 was polar Box–Muller with an
// O(rows) flicker re-sum; version 2 is the 128-layer ziggurat with the
// O(1) running-sum flicker source. Chain.DigitizeRun's block draws
// (mathx.RNG.NormFill) kept version 2: the white, flicker and blank
// sources each own a Split stream, and each stream still yields its
// draws in the same order, so only the interleaving across independent
// streams changed, which moves no bit.
const NoiseModelVersion = 2

// WhiteNoise produces independent Gaussian samples — thermal (Johnson)
// noise folded into the sampling bandwidth.
type WhiteNoise struct {
	// Sigma is the per-sample standard deviation.
	Sigma float64
	rng   *mathx.RNG
}

// NewWhiteNoise returns a white source with per-sample deviation sigma.
func NewWhiteNoise(sigma float64, rng *mathx.RNG) *WhiteNoise {
	return &WhiteNoise{Sigma: sigma, rng: rng}
}

// Sample returns the next noise value.
func (w *WhiteNoise) Sample() float64 {
	if w.Sigma <= 0 {
		return 0
	}
	return w.rng.NormScaled(w.Sigma)
}

// FlickerNoise produces 1/f ("pink") noise via the Voss–McCartney
// multirate algorithm: rows of Gaussian values updated at halving rates
// sum to a spectrum within a fraction of a dB of 1/f over ~Rows octaves.
// Flicker noise dominates the low-frequency band where the biosensor
// signals live (paper §II-C), which is why chopping and CDS matter.
//
// Each sample redraws one row and updates a running sum of the rows,
// so a sample costs O(1) whatever the row count.
type FlickerNoise struct {
	// Sigma is the per-sample standard deviation of the summed output.
	Sigma float64
	rows  []float64
	// sum is the running total of rows.
	sum float64
	// norm is 1/√R: R unit rows sum to variance R.
	norm  float64
	count uint64
	rng   *mathx.RNG
}

// NewFlickerNoise returns a pink source with per-sample deviation sigma
// spread over the given number of octaves (rows); 16 covers any
// experiment length used here.
func NewFlickerNoise(sigma float64, rows int, rng *mathx.RNG) *FlickerNoise {
	if rows < 1 {
		rows = 16
	}
	f := &FlickerNoise{Sigma: sigma, rows: make([]float64, rows), norm: 1 / math.Sqrt(float64(rows)), rng: rng}
	f.fill()
	return f
}

// fill draws every row afresh and re-sums them.
func (f *FlickerNoise) fill() {
	f.sum = 0
	for i := range f.rows {
		f.rows[i] = f.rng.Norm()
		f.sum += f.rows[i]
	}
}

// Sample returns the next noise value.
//
//advdiag:hotpath
func (f *FlickerNoise) Sample() float64 {
	if f.Sigma <= 0 {
		return 0
	}
	f.sum, f.count = flickerAdvance(f.rows, f.sum, f.count, f.rng.Norm())
	return f.Sigma * f.sum * f.norm
}

// flickerAdvance is one Voss–McCartney step, shared by FlickerNoise.Sample
// and Chain.DigitizeRun: it redraws the row whose bit flipped at sample
// count+1 to v and returns the updated running sum and count. Row k
// changes every 2^k samples, and the last row takes every slower rate
// too.
func flickerAdvance(rows []float64, sum float64, count uint64, v float64) (float64, uint64) {
	count++
	row := bits.TrailingZeros64(count)
	if row >= len(rows) {
		row = len(rows) - 1
	}
	sum += v - rows[row]
	rows[row] = v
	return sum, count
}

// NoiseModel bundles the input-referred current noise of a readout
// channel.
type NoiseModel struct {
	white   *WhiteNoise
	flicker *FlickerNoise
	// flickerScale attenuates the flicker component; chopper
	// stabilization sets it well below one.
	flickerScale float64
}

// NewNoiseModel builds a channel noise model with the given per-sample
// white and flicker standard deviations (amperes, input-referred).
func NewNoiseModel(whiteSigma, flickerSigma float64, rng *mathx.RNG) *NoiseModel {
	return &NoiseModel{
		white:        NewWhiteNoise(whiteSigma, rng.Split()),
		flicker:      NewFlickerNoise(flickerSigma, 16, rng.Split()),
		flickerScale: 1,
	}
}

// Rebind re-derives the model's noise streams from rng exactly as
// NewNoiseModel would — same Split draws in the same order, same
// flicker row initialization — but into the existing allocations. After
// Rebind the model's future samples are bit-identical to those of a
// freshly constructed model handed the same rng state. The chopper
// setting is preserved.
func (n *NoiseModel) Rebind(rng *mathx.RNG) {
	n.white.rng.Reset(rng.Uint64())
	f := n.flicker
	f.rng.Reset(rng.Uint64())
	f.count = 0
	f.fill()
}

// ChopperSuppression is the flicker-noise attenuation a chopper
// amplifier achieves by translating the signal above the 1/f corner
// before amplification (paper §II-C).
const ChopperSuppression = 20.0

// EnableChopper turns chopper stabilization on or off.
func (n *NoiseModel) EnableChopper(on bool) {
	if on {
		n.flickerScale = 1 / ChopperSuppression
	} else {
		n.flickerScale = 1
	}
}

// Sample returns the next input-referred noise current.
//
//advdiag:hotpath
func (n *NoiseModel) Sample() float64 {
	if n == nil {
		return 0
	}
	return n.white.Sample() + n.flickerScale*n.flicker.Sample()
}
