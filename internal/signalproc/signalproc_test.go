package signalproc

import (
	"math"
	"testing"
	"testing/quick"

	"advdiag/internal/mathx"
)

func TestMovingAverageConstant(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	out := MovingAverage(xs, 3)
	for i, v := range out {
		if v != 5 {
			t.Fatalf("sample %d: %g", i, v)
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	rng := mathx.NewRNG(3)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Norm()
	}
	out := MovingAverage(xs, 9)
	if r := mathx.StdDev(out) / mathx.StdDev(xs); r > 0.45 {
		t.Fatalf("MA(9) noise ratio %g, want ≈1/3", r)
	}
}

func TestMovingAverageWidthOne(t *testing.T) {
	xs := []float64{1, 2, 3}
	out := MovingAverage(xs, 1)
	for i := range xs {
		if out[i] != xs[i] {
			t.Fatal("width 1 must copy")
		}
	}
}

func TestDerivativeLinear(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 3 * float64(i) * 0.1
	}
	d, err := Derivative(xs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range d {
		if math.Abs(v-3) > 1e-9 {
			t.Fatalf("derivative[%d] = %g, want 3", i, v)
		}
	}
	if _, err := Derivative([]float64{1}, 0.1); err != ErrTooShort {
		t.Fatal("single sample must fail")
	}
}

func TestDetrendRemovesLine(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = 4 + 0.5*float64(i)
	}
	out := Detrend(xs)
	for i, v := range out {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("detrended[%d] = %g", i, v)
		}
	}
}

func gaussian(center, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		x := (float64(i) - center) / width
		out[i] = math.Exp(-x * x)
	}
	return out
}

func TestFindPeaksSingle(t *testing.T) {
	ys := gaussian(50, 8, 101)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	peaks := MaximaInto(nil, xs, ys)
	if len(peaks) != 1 {
		t.Fatalf("found %d peaks, want 1", len(peaks))
	}
	if math.Abs(peaks[0].X-50) > 0.5 {
		t.Fatalf("peak at %g, want 50", peaks[0].X)
	}
	if math.Abs(peaks[0].Y-1) > 0.01 {
		t.Fatalf("peak height %g, want 1", peaks[0].Y)
	}
}

func TestFindPeaksSubSampleRefinement(t *testing.T) {
	// A peak centred between samples must be located sub-sample.
	n := 101
	ys := make([]float64, n)
	for i := range ys {
		x := (float64(i) - 50.4) / 6
		ys[i] = math.Exp(-x * x)
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	peaks := MaximaInto(nil, xs, ys)
	if len(peaks) != 1 {
		t.Fatalf("%d peaks", len(peaks))
	}
	if math.Abs(peaks[0].X-50.4) > 0.1 {
		t.Fatalf("refined position %g, want 50.4", peaks[0].X)
	}
}

func TestAnalyzeStepFirstOrder(t *testing.T) {
	// Noise-free first-order response: t90 = τ·ln(10).
	tau := 13.0
	dt := 0.1
	n := 1200
	times := make([]float64, n)
	vals := make([]float64, n)
	t0 := 10.0
	for i := range times {
		times[i] = float64(i) * dt
		if times[i] >= t0 {
			vals[i] = 1 - math.Exp(-(times[i]-t0)/tau)
		}
	}
	resp, err := AnalyzeStep(times, vals, t0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := tau * math.Ln10
	if math.Abs(resp.T90-want) > 1.5 {
		t.Fatalf("t90 = %g, want ≈%g", resp.T90, want)
	}
	if math.Abs(resp.Baseline) > 1e-9 {
		t.Fatalf("baseline %g", resp.Baseline)
	}
	if math.Abs(resp.Steady-1) > 0.02 {
		t.Fatalf("steady %g", resp.Steady)
	}
	if !resp.Settled {
		t.Fatal("long first-order trace must settle")
	}
	// Transient time (max derivative) is right after the stimulus.
	if resp.TTransient > 3*dt+2 {
		t.Fatalf("transient time %g, want ≈0", resp.TTransient)
	}
}

func TestAnalyzeStepNoisy(t *testing.T) {
	// With noise of 10 % of the step, smoothing must keep t90 within
	// ~15 % of truth.
	rng := mathx.NewRNG(17)
	tau := 13.0
	dt := 0.1
	n := 1200
	times := make([]float64, n)
	vals := make([]float64, n)
	t0 := 10.0
	for i := range times {
		times[i] = float64(i) * dt
		if times[i] >= t0 {
			vals[i] = 1 - math.Exp(-(times[i]-t0)/tau)
		}
		vals[i] += rng.NormScaled(0.10)
	}
	resp, err := AnalyzeStep(times, vals, t0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := tau * math.Ln10
	if math.Abs(resp.T90-want)/want > 0.15 {
		t.Fatalf("noisy t90 = %g, want ≈%g", resp.T90, want)
	}
}

func TestAnalyzeStepTooShort(t *testing.T) {
	if _, err := AnalyzeStep([]float64{1, 2}, []float64{1, 2}, 0, 0.2); err != ErrTooShort {
		t.Fatal("short input must fail")
	}
}

// Property: moving average preserves the mean.
func TestMovingAverageMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
			xs[i] = v
		}
		// Width 1 exactly preserves everything (identity check).
		out := MovingAverage(xs, 1)
		for i := range out {
			if out[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
