package analog

import (
	"math"
	"testing"
	"testing/quick"

	"advdiag/internal/mathx"
	"advdiag/internal/phys"
)

func TestPotentiostatAccuracy(t *testing.T) {
	p := DefaultPotentiostat()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// With 100 dB loop gain the static error at 650 mV is dominated by
	// the 0.2 mV offset.
	target := phys.MilliVolts(650)
	if e := p.ControlError(target); e.MilliVolts() > 0.25 {
		t.Fatalf("control error %g mV too large", e.MilliVolts())
	}
	// Drive clamps.
	if got := p.Apply(phys.Voltage(5)); got > p.MaxDrive {
		t.Fatalf("drive not clamped: %v", got)
	}
	if got := p.Apply(phys.Voltage(-5)); got < -p.MaxDrive {
		t.Fatalf("negative drive not clamped: %v", got)
	}
}

func TestPotentiostatCompliance(t *testing.T) {
	p := DefaultPotentiostat()
	if !p.WithinCompliance(phys.MicroAmps(999)) {
		t.Fatal("1 mA compliance must accept 999 µA")
	}
	if p.WithinCompliance(phys.MicroAmps(1001)) {
		t.Fatal("must reject beyond-compliance current")
	}
	if !p.WithinCompliance(phys.MicroAmps(-999)) {
		t.Fatal("compliance must be symmetric")
	}
}

func TestPotentiostatValidate(t *testing.T) {
	bad := &Potentiostat{LoopGain: 0.5, Compliance: 1, MaxDrive: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("loop gain ≤1 must fail")
	}
}

func TestTIAConversion(t *testing.T) {
	tia := NewOxidaseTIA()
	if err := tia.Validate(); err != nil {
		t.Fatal(err)
	}
	tia.Reset(0) // no bandwidth filtering
	// V = −I·Rf: +1 µA through 100 kΩ → −0.1 V.
	got := tia.Convert(phys.MicroAmps(1))
	if math.Abs(float64(got)+0.1) > 1e-12 {
		t.Fatalf("convert: %v", got)
	}
}

func TestTIASaturation(t *testing.T) {
	tia := NewOxidaseTIA()
	tia.Reset(0)
	got := tia.Convert(phys.MicroAmps(100)) // 10× full scale
	if math.Abs(float64(got)) > float64(tia.Saturation)+1e-12 {
		t.Fatalf("output beyond saturation: %v", got)
	}
	if !tia.Saturated(phys.MicroAmps(100)) {
		t.Fatal("Saturated must report overload")
	}
	if tia.Saturated(phys.MicroAmps(5)) {
		t.Fatal("5 µA is within the ±10 µA range")
	}
}

func TestTIAFullScaleCurrents(t *testing.T) {
	// The paper's two readout classes: ±10 µA and ±100 µA.
	if got := NewOxidaseTIA().FullScaleCurrent().MicroAmps(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("oxidase TIA full scale %g µA", got)
	}
	if got := NewCYPTIA().FullScaleCurrent().MicroAmps(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("CYP TIA full scale %g µA", got)
	}
}

func TestTIABandwidthPole(t *testing.T) {
	tia := &TIA{Feedback: 1e5, Saturation: 1, BandwidthHz: 1}
	tia.Reset(0.01)
	// The first sample initializes the filter state (no artificial
	// charging transient); a subsequent step must then follow the
	// one-pole response with tau = 1/(2π) s.
	tia.Convert(0)
	var out phys.Voltage
	for i := 0; i < 16; i++ { // 0.16 s ≈ tau
		out = tia.Convert(phys.MicroAmps(1))
	}
	want := -0.1 * (1 - math.Exp(-1))
	if math.Abs(float64(out)-want) > 0.01 {
		t.Fatalf("pole response %g, want ≈%g", float64(out), want)
	}
}

func TestDCSource(t *testing.T) {
	d := DCSource{Level: phys.MilliVolts(650), Hold: 60}
	if d.VoltageAt(0) != d.Level || d.VoltageAt(30) != d.Level {
		t.Fatal("DC source must hold its level")
	}
	if d.Duration() != 60 {
		t.Fatal("duration")
	}
}

func TestTriangleSweep(t *testing.T) {
	s := TriangleSweep{Start: phys.Voltage(0), Vertex: phys.Voltage(-0.5), Rate: phys.SweepRate(0.02), Cycles: 1}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.HalfPeriod() != 25 {
		t.Fatalf("half period %g", s.HalfPeriod())
	}
	if s.Duration() != 50 {
		t.Fatalf("duration %g", s.Duration())
	}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 0}, {12.5, -0.25}, {25, -0.5}, {37.5, -0.25}, {50, 0},
	}
	for _, c := range cases {
		if got := float64(s.VoltageAt(c.t)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("V(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestTriangleSweepCycles(t *testing.T) {
	s := TriangleSweep{Start: 0.1, Vertex: -0.1, Rate: 0.02, Cycles: 3}
	if s.Duration() != 60 {
		t.Fatalf("3-cycle duration %g", s.Duration())
	}
	// Periodicity.
	if math.Abs(float64(s.VoltageAt(7)-s.VoltageAt(27))) > 1e-9 {
		t.Fatal("cycles must repeat")
	}
}

func TestTriangleSweepValidate(t *testing.T) {
	bad := []TriangleSweep{
		{Start: 0, Vertex: 0, Rate: 0.02, Cycles: 1},
		{Start: 0, Vertex: -1, Rate: 0, Cycles: 1},
		{Start: 0, Vertex: -1, Rate: 0.02, Cycles: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad sweep %d accepted", i)
		}
	}
}

func TestCheckSweepRate(t *testing.T) {
	if err := CheckSweepRate(phys.MilliVoltsPerSecond(20)); err != nil {
		t.Fatalf("20 mV/s must pass: %v", err)
	}
	if err := CheckSweepRate(phys.MilliVoltsPerSecond(500)); err == nil {
		t.Fatal("500 mV/s must fail the cell limit")
	}
}

func TestMux(t *testing.T) {
	m := DefaultMux(5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.Select(4); err != nil {
		t.Fatal(err)
	}
	if m.Selected() != 4 {
		t.Fatal("selection lost")
	}
	if err := m.Select(5); err == nil {
		t.Fatal("out-of-range channel must fail")
	}
	// Leakage: 4 off-channels × 50 pA.
	got := m.Pass(phys.NanoAmps(10))
	want := 10e-9 + 4*50e-12
	if math.Abs(float64(got)-want) > 1e-15 {
		t.Fatalf("pass: %g, want %g", float64(got), want)
	}
}

func TestADCQuantization(t *testing.T) {
	a := DefaultADC()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	lsb := float64(a.LSB())
	// 12 bits over ±1 V → LSB ≈ 0.488 mV.
	if math.Abs(lsb-2.0/4096) > 1e-12 {
		t.Fatalf("LSB %g", lsb)
	}
	// Quantization error bounded by LSB/2 inside the range (the very
	// top code is clamped by two's-complement asymmetry, so stay below).
	for _, v := range []float64{0.1, -0.37, 0.995, 0} {
		q := float64(a.Quantize(phys.Voltage(v)))
		if math.Abs(q-v) > lsb/2+1e-15 {
			t.Errorf("quantize(%g) = %g: error exceeds LSB/2", v, q)
		}
	}
	// Clamping at the rails.
	if q := float64(a.Quantize(2.0)); q > 1.0 {
		t.Fatalf("positive rail not clamped: %g", q)
	}
	if q := float64(a.Quantize(-2.0)); q < -1.0-lsb {
		t.Fatalf("negative rail not clamped: %g", q)
	}
}

func TestADCCodeMonotoneProperty(t *testing.T) {
	a := DefaultADC()
	f := func(v1, v2 float64) bool {
		if math.IsNaN(v1) || math.IsNaN(v2) {
			return true
		}
		v1 = mathx.Clamp(v1, -2, 2)
		v2 = mathx.Clamp(v2, -2, 2)
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return a.Code(phys.Voltage(v1)) <= a.Code(phys.Voltage(v2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWhiteNoiseStatistics(t *testing.T) {
	w := NewWhiteNoise(2.0, mathx.NewRNG(5))
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := w.Sample()
		sum += v
		sumSq += v * v
	}
	sd := math.Sqrt(sumSq/n - (sum/n)*(sum/n))
	if math.Abs(sd-2) > 0.05 {
		t.Fatalf("white noise σ = %g, want 2", sd)
	}
}

func TestFlickerNoiseSpectrum(t *testing.T) {
	for _, seed := range []uint64{9, 10, 11} {
		rng := mathx.NewRNG(seed)
		pink := NewFlickerNoise(1, 16, rng.Split())
		white := NewWhiteNoise(1, rng.Split())

		// Pink noise must hold substantially more low-frequency energy
		// than white noise of the same per-sample σ. Compare the
		// variance of block means (a low-pass statistic).
		const blocks = 200
		const blockLen = 256
		blockVar := func(sample func() float64) float64 {
			var means []float64
			for b := 0; b < blocks; b++ {
				s := 0.0
				for i := 0; i < blockLen; i++ {
					s += sample()
				}
				means = append(means, s/blockLen)
			}
			return mathx.StdDev(means)
		}
		pv := blockVar(pink.Sample)
		wv := blockVar(white.Sample)
		if pv < 3*wv {
			t.Fatalf("seed %d: pink block-mean σ %g vs white %g: not enough low-frequency energy", seed, pv, wv)
		}

		// PSD slope: for S(f) ∝ f^−α the Allan variance of block means
		// scales as τ^(α−1), so α = 1 + the log-log slope. Fit it over
		// τ = 2…1024 samples, well inside the 16 rows' 1/f band; the
		// white source is the control (α = 0).
		if a := spectralExponent(t, pink.Sample); math.Abs(a-1) > 0.1 {
			t.Errorf("seed %d: flicker PSD slope %.3f, want ≈ −1", seed, -a)
		}
		if a := spectralExponent(t, white.Sample); math.Abs(a) > 0.1 {
			t.Errorf("seed %d: white PSD slope %.3f, want ≈ 0", seed, -a)
		}
	}
}

// spectralExponent estimates α of S(f) ∝ f^−α from the Allan variance
// of 2^20 samples at block lengths τ = 2^1…2^10.
func spectralExponent(t *testing.T, sample func() float64) float64 {
	t.Helper()
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = sample()
	}
	var logTau, logAvar []float64
	for tau := 2; tau <= 1024; tau *= 2 {
		nb := len(xs) / tau
		prev, ss := 0.0, 0.0
		for b := 0; b < nb; b++ {
			m := mathx.Mean(xs[b*tau : (b+1)*tau])
			if b > 0 {
				ss += (m - prev) * (m - prev)
			}
			prev = m
		}
		logTau = append(logTau, math.Log(float64(tau)))
		logAvar = append(logAvar, math.Log(ss/float64(2*(nb-1))))
	}
	fit, err := mathx.FitLinear(logTau, logAvar)
	if err != nil {
		t.Fatal(err)
	}
	return 1 + fit.Slope
}

// TestFlickerRunningSum checks the O(1) sampler's bookkeeping: after
// 2^20 samples the running row sum still matches a fresh re-sum of the
// rows, and Rebind re-sums it from the new rows.
func TestFlickerRunningSum(t *testing.T) {
	const rows = 16
	f := NewFlickerNoise(1, rows, mathx.NewRNG(5))
	resum := func() float64 {
		s := 0.0
		for _, v := range f.rows {
			s += v
		}
		return s
	}
	for i := 0; i < 1<<20; i++ {
		f.Sample()
		if i%(1<<16) == 0 || i == 1<<20-1 {
			if d := math.Abs(f.sum - resum()); d > 1e-12*rows {
				t.Fatalf("sample %d: running sum drifted %g from the re-sum", i, d)
			}
		}
	}
	n := NewNoiseModel(0, 1, mathx.NewRNG(6))
	n.Rebind(mathx.NewRNG(7))
	f = n.flicker
	if f.sum != resum() {
		t.Fatalf("Rebind left running sum %g, rows sum to %g", f.sum, resum())
	}
	fresh := NewNoiseModel(0, 1, mathx.NewRNG(7))
	for i := 0; i < 1000; i++ {
		if a, b := n.Sample(), fresh.Sample(); a != b {
			t.Fatalf("sample %d: rebound model %g, fresh model %g", i, a, b)
		}
	}
}

func TestChopperSuppression(t *testing.T) {
	rng := mathx.NewRNG(11)
	n := NewNoiseModel(0, 1, rng)
	var rawSS float64
	const cnt = 20000
	for i := 0; i < cnt; i++ {
		v := n.Sample()
		rawSS += v * v
	}
	n2 := NewNoiseModel(0, 1, mathx.NewRNG(11))
	n2.EnableChopper(true)
	var chopSS float64
	for i := 0; i < cnt; i++ {
		v := n2.Sample()
		chopSS += v * v
	}
	ratio := math.Sqrt(rawSS / chopSS)
	if math.Abs(ratio-ChopperSuppression) > 1 {
		t.Fatalf("chopper suppression %g, want ≈%g", ratio, ChopperSuppression)
	}
}

func TestChainDigitizeRoundTrip(t *testing.T) {
	// With noise disabled the chain recovers the input current within
	// one ADC LSB through the nominal transimpedance.
	chain := NewOxidaseChain(nil, mathx.NewRNG(1))
	chain.Noise = nil
	if err := chain.Validate(); err != nil {
		t.Fatal(err)
	}
	chain.Reset(0)
	in := phys.MicroAmps(3)
	var v phys.Voltage
	for i := 0; i < 5; i++ { // let the pole settle
		v = chain.Digitize(in)
	}
	got := chain.CurrentFromVoltage(v)
	if math.Abs(float64(got-in)) > float64(chain.ResolutionCurrent()) {
		t.Fatalf("round trip: %v -> %v", in, got)
	}
}

func TestChainRangeAndResolution(t *testing.T) {
	chain := NewOxidaseChain(nil, mathx.NewRNG(1))
	if got := chain.RangeCurrent().MicroAmps(); math.Abs(got-10) > 0.01 {
		t.Fatalf("oxidase chain range %g µA", got)
	}
	// Resolution ≈ 4.9 nA (12-bit LSB through 100 kΩ) — inside the
	// paper's 10 nA requirement.
	if got := chain.ResolutionCurrent().NanoAmps(); got > 10 {
		t.Fatalf("oxidase chain resolution %g nA exceeds the paper's 10 nA", got)
	}
	cyp := NewCYPChain(nil, mathx.NewRNG(1))
	if got := cyp.RangeCurrent().MicroAmps(); math.Abs(got-100) > 0.1 {
		t.Fatalf("CYP chain range %g µA", got)
	}
	if got := cyp.ResolutionCurrent().NanoAmps(); got > 100 {
		t.Fatalf("CYP chain resolution %g nA exceeds the paper's 100 nA", got)
	}
}

func TestChainValidateCatchesMissingStage(t *testing.T) {
	chain := NewOxidaseChain(nil, mathx.NewRNG(1))
	chain.Readout = nil
	if err := chain.Validate(); err == nil {
		t.Fatal("missing readout must fail validation")
	}
}
