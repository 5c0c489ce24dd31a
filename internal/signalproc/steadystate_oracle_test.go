package signalproc

import (
	"math"
	"math/rand/v2"
	"testing"

	"advdiag/internal/mathx"
)

// analyzeStepReference is the multi-pass AnalyzeStep that the
// single-pass version replaced, kept verbatim as the bit-identity
// oracle: it materializes the pre- and post-stimulus segments, the
// smoothed trace, the derivative and the tail-fit residuals.
func analyzeStepReference(times, values []float64, stimulusTime, tailFrac float64) (StepResponse, error) {
	if len(times) != len(values) || len(values) < 8 {
		return StepResponse{}, ErrTooShort
	}
	var resp StepResponse

	var pre []float64
	for i, t := range times {
		if t < stimulusTime {
			pre = append(pre, values[i])
		}
	}
	if len(pre) == 0 {
		resp.Baseline = values[0]
	} else {
		resp.Baseline = mathx.Mean(pre)
	}

	n := int(float64(len(values)) * tailFrac)
	if n < 2 {
		n = 2
	}
	tail := values[len(values)-n:]
	tailTimes := times[len(times)-n:]
	resp.Steady = mathx.Mean(tail)

	step := resp.Steady - resp.Baseline
	if step == 0 {
		resp.Settled = true
		return resp, nil
	}

	fit, err := mathx.FitLinear(tailTimes, tail)
	if err == nil {
		drift := fit.Slope * (tailTimes[len(tailTimes)-1] - tailTimes[0])
		resp.Settled = abs(drift) < 0.02*abs(step)
	}

	level := resp.Baseline + 0.9*step
	var post []float64
	var postT []float64
	for i, t := range times {
		if t >= stimulusTime {
			post = append(post, values[i])
			postT = append(postT, t)
		}
	}
	if w := len(post) / 40; w >= 3 {
		if w%2 == 0 {
			w++
		}
		if w > 51 {
			w = 51
		}
		post = MovingAverage(post, w)
	}
	if len(post) >= 2 {
		if tc, err := mathx.CrossingTime(postT, post, level); err == nil {
			resp.T90 = tc - stimulusTime
		}
		dt := postT[1] - postT[0]
		if d, err := Derivative(post, dt); err == nil {
			maxI, maxD := 0, 0.0
			for i, v := range d {
				if a := abs(v); a > maxD {
					maxD, maxI = a, i
				}
			}
			resp.TTransient = postT[maxI] - stimulusTime
		}
	}
	return resp, nil
}

// randomStepTrace draws one ascending trace with its stimulus time and
// tail fraction. The shapes cover what the single-pass rewrite must get
// right: stimuli before the first and after the last sample (and a NaN
// stimulus, which neither precedes nor follows any sample), flat
// traces (step == 0), post-stimulus segments too short to smooth and
// long enough for the 51-sample window cap, repeated sample times
// (dt == 0, also at the segment start), and quantized values that hit
// the T90 level exactly or repeat across a crossing.
func randomStepTrace(rng *rand.Rand) (times, values []float64, stim, tailFrac float64) {
	n := 8 + rng.IntN(240)
	if rng.IntN(50) == 0 {
		n = 2000 + rng.IntN(600) // reaches the 51-sample window cap
	}
	times = make([]float64, n)
	values = make([]float64, n)
	t0 := rng.Float64()*4 - 1
	dt := 0.01 + rng.Float64()*0.5
	switch rng.IntN(4) {
	case 0: // the recorder's grid: Start + i·Dt
		for i := range times {
			times[i] = t0 + float64(i)*dt
		}
	case 1: // jittered, with runs of repeated times
		t := t0
		for i := range times {
			if i > 0 && rng.IntN(6) != 0 {
				t += dt * (0.2 + 1.6*rng.Float64())
			}
			times[i] = t
		}
	case 2: // the first two samples share a time (dt == 0 at the start)
		for i := range times {
			times[i] = t0 + float64(max(i-1, 0))*dt
		}
	default: // every time equal
		for i := range times {
			times[i] = t0
		}
	}
	first, last := times[0], times[n-1]
	span := last - first
	switch rng.IntN(7) {
	case 6:
		stim = math.NaN() // after no sample and before none
	case 0:
		stim = first - 1 - rng.Float64() // before the first sample
	case 1:
		stim = last + 1 + rng.Float64() // after the last sample
	case 2:
		stim = times[rng.IntN(n)] // exactly on a sample
	default:
		stim = first + span*rng.Float64()
	}
	base, step := rng.NormFloat64(), rng.NormFloat64()*3
	tau := 0.05 + rng.Float64()*span
	noise := rng.Float64() * 0.3
	shape := rng.IntN(5)
	for i, t := range times {
		switch shape {
		case 0: // flat
			values[i] = base
		case 1: // quantized step: exact level hits, equal neighbours
			v := base
			if t >= stim {
				v += step * (1 - math.Exp(-(t-stim)/tau))
			}
			values[i] = math.Round(v * 4)
		case 2: // pure noise
			values[i] = rng.NormFloat64()
		default: // first-order step with noise
			v := base + noise*rng.NormFloat64()
			if t >= stim {
				v += step * (1 - math.Exp(-(t-stim)/tau))
			}
			values[i] = v
		}
	}
	fracs := []float64{0.2, 0, 0.05, 0.5, rng.Float64()}
	return times, values, stim, fracs[rng.IntN(len(fracs))]
}

// TestAnalyzeStepMatchesReference: the single-pass AnalyzeStep is bit
// for bit the multi-pass reference over random traces.
func TestAnalyzeStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 11))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	const traces = 100000
	for i := 0; i < traces; i++ {
		times, values, stim, frac := randomStepTrace(rng)
		got, gerr := AnalyzeStep(times, values, stim, frac)
		want, werr := analyzeStepReference(times, values, stim, frac)
		if gerr != werr || !same(got.Baseline, want.Baseline) || !same(got.Steady, want.Steady) ||
			!same(got.T90, want.T90) || !same(got.TTransient, want.TTransient) || got.Settled != want.Settled {
			t.Fatalf("trace %d (n=%d stim=%g frac=%g): got %+v (%v), reference %+v (%v)",
				i, len(times), stim, frac, got, gerr, want, werr)
		}
	}
}

// TestAnalyzeStepRejectsUnorderedTimes: the suffix-segment precondition
// is checked, not assumed — decreasing and NaN times are rejected, and
// equal neighbours are accepted.
func TestAnalyzeStepRejectsUnorderedTimes(t *testing.T) {
	vals := []float64{0, 0, 0, 1, 1, 1, 1, 1, 1, 1}
	asc := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if _, err := AnalyzeStep(asc, vals, 2.5, 0.2); err != nil {
		t.Fatalf("ascending times rejected: %v", err)
	}
	for name, mutate := range map[string]func([]float64){
		"decreasing": func(ts []float64) { ts[5] = 3.5 },
		"NaN":        func(ts []float64) { ts[4] = math.NaN() },
		"NaN first":  func(ts []float64) { ts[0] = math.NaN() },
	} {
		ts := append([]float64(nil), asc...)
		mutate(ts)
		if _, err := AnalyzeStep(ts, vals, 2.5, 0.2); err != ErrUnordered {
			t.Errorf("%s times: got %v, want ErrUnordered", name, err)
		}
	}
	ts := append([]float64(nil), asc...)
	ts[5] = ts[4]
	if _, err := AnalyzeStep(ts, vals, 2.5, 0.2); err != nil {
		t.Fatalf("equal neighbouring times rejected: %v", err)
	}
}

// TestAnalyzeStepAllocFree: the step analysis allocates nothing.
func TestAnalyzeStepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	times, values := make([]float64, 301), make([]float64, 301)
	for i := range times {
		times[i] = float64(i) * 0.1
		if i >= 50 {
			values[i] = 1 - math.Exp(-float64(i-50)/20)
		}
		values[i] += 0.01 * rng.NormFloat64()
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := AnalyzeStep(times, values, 5, 0.2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AnalyzeStep allocates %.0f objects per call, want 0", allocs)
	}
}
