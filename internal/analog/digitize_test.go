package analog

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"advdiag/internal/mathx"
	"advdiag/internal/phys"
)

// The ref* functions are the per-sample chain as it stood before
// DigitizeRun: each stage's own body, one call per stage per sample.
// They are the oracle DigitizeRun, Digitize and NoiseModel.Sample are
// checked against.

func refDigitize(c *Chain, i phys.Current) phys.Voltage {
	if c.Mux != nil {
		i = c.Mux.Pass(i)
	}
	if c.Noise != nil {
		i += phys.Current(refNoiseSample(c.Noise))
	}
	v := refConvert(c.Readout, i)
	return refQuantize(c.Converter, v, c.lsb, c.maxCode)
}

func refNoiseSample(n *NoiseModel) float64 {
	return refWhiteSample(n.white) + n.flickerScale*refFlickerSample(n.flicker)
}

func refWhiteSample(w *WhiteNoise) float64 {
	if w.Sigma <= 0 {
		return 0
	}
	return w.rng.NormScaled(w.Sigma)
}

func refFlickerSample(f *FlickerNoise) float64 {
	if f.Sigma <= 0 {
		return 0
	}
	f.count++
	row := bits.TrailingZeros64(f.count)
	if row >= len(f.rows) {
		row = len(f.rows) - 1
	}
	v := f.rng.Norm()
	f.sum += v - f.rows[row]
	f.rows[row] = v
	return f.Sigma * f.sum * f.norm
}

func refConvert(t *TIA, i phys.Current) phys.Voltage {
	v := -float64(i) * float64(t.Feedback)
	sat := float64(t.Saturation)
	if v > sat {
		v = sat
	}
	if v < -sat {
		v = -sat
	}
	if !t.initialized {
		t.state = v
		t.initialized = true
	} else {
		t.state += t.alpha * (v - t.state)
	}
	return phys.Voltage(t.state) + t.OutputOffset
}

func refQuantize(a *ADC, v phys.Voltage, lsb, maxCode float64) phys.Voltage {
	fs := float64(a.FullScale)
	x := float64(v)
	if x > fs {
		x = fs
	}
	if x < -fs {
		x = -fs
	}
	code := math.Round(x / lsb)
	if code > maxCode {
		code = maxCode
	}
	if code < -maxCode-1 {
		code = -maxCode - 1
	}
	return phys.Voltage(code * lsb)
}

// sameBits reports whether a and b have the same bits, letting any NaN
// match any NaN: Go pins no NaN payload, and race builds propagate a
// different NaN sign through x86 arithmetic.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// chainConfig is one chain shape of the oracle sweep.
type chainConfig struct {
	class                   int // 0 oxidase, 1 CYP, 2 nano, 3 pico
	mux                     bool
	noise                   bool // false: Noise nil
	chopper, white, flicker bool // the sources' σ is 0 when off
	rails                   bool // ADC clips before the TIA saturates, plus an output offset
	nanSigma                bool // both σ NaN: not ≤ 0, so both sources still draw
}

func (k chainConfig) String() string {
	return fmt.Sprintf("class%d/mux=%v/noise=%v/chop=%v/white=%v/flicker=%v/rails=%v/nan=%v",
		k.class, k.mux, k.noise, k.chopper, k.white, k.flicker, k.rails, k.nanSigma)
}

// build assembles the configured chain from seed; equal seeds give
// chains with identical state.
func (k chainConfig) build(seed uint64) *Chain {
	var mux *Mux
	if k.mux {
		mux = DefaultMux(8)
	}
	rng := mathx.NewRNG(seed)
	c := [...]func(*Mux, *mathx.RNG) *Chain{NewOxidaseChain, NewCYPChain, NewNanoChain, NewPicoChain}[k.class](mux, rng)
	if !k.noise {
		c.Noise = nil
	} else {
		c.Noise.EnableChopper(k.chopper)
		if !k.white {
			c.Noise.white.Sigma = 0
		}
		if !k.flicker {
			c.Noise.flicker.Sigma = 0
		}
		if k.nanSigma {
			c.Noise.white.Sigma, c.Noise.flicker.Sigma = math.NaN(), math.NaN()
		}
	}
	if k.rails {
		c.Readout.Saturation = 1.5
		c.Readout.OutputOffset = 0.0137
	}
	return c
}

// inputs draws n cell currents spanning ±1.5× the chain's range, with
// signed zeros, infinities and NaN mixed in.
func inputs(rng *mathx.RNG, c *Chain, n int) []float64 {
	scale := float64(c.RangeCurrent())
	in := make([]float64, n)
	for k := range in {
		switch r := rng.Uint64() % 1000; {
		case r == 0:
			in[k] = math.NaN()
		case r == 1:
			in[k] = math.Inf(1)
		case r == 2:
			in[k] = math.Inf(-1)
		case r < 10:
			in[k] = math.Copysign(0, -1)
		case r < 20:
			in[k] = 0
		default:
			in[k] = scale * (3*rng.Float64() - 1.5)
		}
	}
	return in
}

// checkChainState compares the filter, flicker and noise-stream state
// of a chain against the reference chain's.
func checkChainState(t *testing.T, what string, got, want *Chain) {
	t.Helper()
	if !sameBits(got.Readout.state, want.Readout.state) || got.Readout.initialized != want.Readout.initialized {
		t.Fatalf("%s: TIA state %v/%v, reference %v/%v", what,
			got.Readout.state, got.Readout.initialized, want.Readout.state, want.Readout.initialized)
	}
	if want.Noise == nil {
		return
	}
	gf, wf := got.Noise.flicker, want.Noise.flicker
	if !sameBits(gf.sum, wf.sum) || gf.count != wf.count {
		t.Fatalf("%s: flicker sum/count %v/%d, reference %v/%d", what, gf.sum, gf.count, wf.sum, wf.count)
	}
	for r := range wf.rows {
		if !sameBits(gf.rows[r], wf.rows[r]) {
			t.Fatalf("%s: flicker row %d = %v, reference %v", what, r, gf.rows[r], wf.rows[r])
		}
	}
	// Compare the streams' next values on copies, leaving them as they are.
	gw, ww, gr, wr := *got.Noise.white.rng, *want.Noise.white.rng, *gf.rng, *wf.rng
	if gw.Uint64() != ww.Uint64() || gr.Uint64() != wr.Uint64() {
		t.Fatalf("%s: noise streams diverged from the reference", what)
	}
}

// TestDigitizeRunMatchesReference drives three copies of each chain
// shape side by side: the reference per-sample bodies, DigitizeRun over
// whole runs, and Digitize one sample at a time. Every recorded voltage
// and recovered current must match bit for bit, and so must the TIA,
// flicker and noise-stream state after each run, over back-to-back runs
// of 0–1,200 samples (block boundaries included) with and without
// Reset and Rebind between them.
func TestDigitizeRunMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 2, runBlock - 1, runBlock, runBlock + 1, 2*runBlock - 1, 2 * runBlock, 2*runBlock + 1, 1200}
	var configs []chainConfig
	for class := 0; class < 4; class++ {
		configs = append(configs, chainConfig{class: class, noise: true, white: true, flicker: true, nanSigma: true})
		for _, mux := range []bool{false, true} {
			for _, rails := range []bool{false, true} {
				configs = append(configs, chainConfig{class: class, mux: mux, rails: rails})
				for m := 0; m < 8; m++ {
					configs = append(configs, chainConfig{class: class, mux: mux, rails: rails,
						noise: true, chopper: m&1 != 0, white: m&2 != 0, flicker: m&4 != 0})
				}
			}
		}
	}
	seq := mathx.NewRNG(2024)
	samples := 0
	for ci, cfg := range configs {
		seed := uint64(100 + ci)
		ref, run, one := cfg.build(seed), cfg.build(seed), cfg.build(seed)
		for r := 0; r < 5; r++ {
			n := lengths[(ci+r)%len(lengths)]
			if r >= 3 {
				n = int(seq.Uint64() % 1201)
			}
			// Run 0 starts fresh; later runs continue, reset, or
			// reset and rebind.
			between := seq.Uint64() % 3
			if r == 0 {
				between = 1
			}
			dt := []float64{0, 1e-3, 0.1}[seq.Uint64()%3]
			rebind := seq.Uint64()
			for _, c := range []*Chain{ref, run, one} {
				if between >= 1 {
					c.Reset(dt)
				}
				if between == 2 {
					c.Rebind(mathx.NewRNG(rebind))
				}
			}
			in := inputs(seq, ref, n)
			// rec and cur run past n with sentinels DigitizeRun must
			// not touch.
			rec, cur := make([]float64, n+3), make([]float64, n+3)
			for k := n; k < n+3; k++ {
				rec[k], cur[k] = 7, 7
			}
			run.DigitizeRun(in, rec, cur)
			for k, x := range in {
				wantV := refDigitize(ref, phys.Current(x))
				wantI := float64(ref.CurrentFromVoltage(wantV))
				oneV := one.Digitize(phys.Current(x))
				if !sameBits(rec[k], float64(wantV)) || !sameBits(cur[k], wantI) {
					t.Fatalf("%v run %d sample %d/%d: DigitizeRun = %v V, %v A; reference %v V, %v A",
						cfg, r, k, n, rec[k], cur[k], wantV, wantI)
				}
				if !sameBits(float64(oneV), float64(wantV)) {
					t.Fatalf("%v run %d sample %d: Digitize = %v, reference %v", cfg, r, k, oneV, wantV)
				}
			}
			for k := n; k < n+3; k++ {
				if rec[k] != 7 || cur[k] != 7 {
					t.Fatalf("%v run %d: DigitizeRun wrote past sample %d", cfg, r, n)
				}
			}
			what := fmt.Sprintf("%v after run %d (n=%d)", cfg, r, n)
			checkChainState(t, what+" DigitizeRun", run, ref)
			checkChainState(t, what+" Digitize", one, ref)
			samples += n
		}
	}
	t.Logf("%d chain shapes, %d samples", len(configs), samples)
}

// TestNoiseModelSampleMatchesReference checks the one-sample noise entry
// against the reference bodies for every source combination.
func TestNoiseModelSampleMatchesReference(t *testing.T) {
	for m := 0; m < 8; m++ {
		cfg := chainConfig{noise: true, chopper: m&1 != 0, white: m&2 != 0, flicker: m&4 != 0}
		got, want := cfg.build(7).Noise, cfg.build(7).Noise
		for k := 0; k < 3000; k++ {
			if g, w := got.Sample(), refNoiseSample(want); !sameBits(g, w) {
				t.Fatalf("%v sample %d: Sample = %v, reference %v", cfg, k, g, w)
			}
		}
	}
}

// fig4Run builds the benchmark's chain and one Fig. 4-length run of cell
// currents: 601 samples, the 60 s chronoamperometric default at 0.1 s,
// on the multiplexed high-gain chain of the platform's small electrodes.
func fig4Run() (*Chain, []float64) {
	c := NewNanoChain(DefaultMux(8), mathx.NewRNG(3))
	c.Reset(0.1)
	in := make([]float64, 601)
	for k := range in {
		in[k] = 0.4 * float64(c.RangeCurrent()) * math.Sin(float64(k)/50)
	}
	return c, in
}

// TestDigitizeRunAllocFree pins that a warm DigitizeRun allocates
// nothing.
func TestDigitizeRunAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds allocate differently from the compiled binary this count pins")
	}
	c, in := fig4Run()
	rec, cur := make([]float64, len(in)), make([]float64, len(in))
	c.DigitizeRun(in, rec, cur)
	if allocs := testing.AllocsPerRun(20, func() { c.DigitizeRun(in, rec, cur) }); allocs != 0 {
		t.Fatalf("warm DigitizeRun allocates %.0f objects, want 0", allocs)
	}
}

// BenchmarkDigitizeRun digitizes one Fig. 4-length run per op.
func BenchmarkDigitizeRun(b *testing.B) {
	c, in := fig4Run()
	rec, cur := make([]float64, len(in)), make([]float64, len(in))
	for b.Loop() {
		c.DigitizeRun(in, rec, cur)
	}
}
