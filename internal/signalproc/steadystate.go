package signalproc

import (
	"advdiag/internal/mathx"
)

// StepResponse summarizes a transient that settles toward a steady
// state after a stimulus (paper §II-B and Fig. 3).
type StepResponse struct {
	// Baseline is the pre-stimulus level.
	Baseline float64
	// Steady is the settled level (mean of the final tail).
	Steady float64
	// T90 is the time (from the stimulus) to reach 90 % of the step,
	// the paper's "steady-state response time".
	T90 float64
	// TTransient is the time (from the stimulus) at which the first
	// derivative of the signal is maximal, the paper's "transient
	// response time".
	TTransient float64
	// Settled reports whether the tail is flat enough to be considered
	// steady (tail slope below 1 %/tail-length of the step).
	Settled bool
}

// MinStepSamples is the shortest series AnalyzeStep accepts.
const MinStepSamples = 8

// AnalyzeStep characterizes a step response. times/values are the
// sampled signal, stimulusTime the moment the analyte was added.
// tailFrac is the final fraction of the series treated as steady state
// (e.g. 0.2). times must ascend (equal neighbours are allowed); a
// series whose times decrease is rejected with ErrUnordered.
//
// The analysis runs in one allocation-free pass over the series: the
// post-stimulus segment is the suffix times[k:], its smoothed values
// are computed on the fly, and the T90 crossing and the |dV/dt|
// maximum are found as the pass goes.
//
//advdiag:hotpath
func AnalyzeStep(times, values []float64, stimulusTime, tailFrac float64) (StepResponse, error) {
	if len(times) != len(values) || len(values) < MinStepSamples {
		return StepResponse{}, ErrTooShort
	}
	for i := 1; i < len(times); i++ {
		if !(times[i] >= times[i-1]) {
			return StepResponse{}, ErrUnordered
		}
	}
	var resp StepResponse

	// Baseline: mean of samples strictly before the stimulus. Times
	// ascend, so these form a prefix, and the post-stimulus samples
	// (t >= stimulusTime) the suffix times[k:] after it; a NaN
	// stimulus time belongs to neither.
	k, nPre, pre := 0, 0, 0.0
	for ; k < len(times) && !(times[k] >= stimulusTime); k++ {
		if times[k] < stimulusTime {
			pre += values[k]
			nPre++
		}
	}
	if nPre == 0 {
		resp.Baseline = values[0]
	} else {
		resp.Baseline = pre / float64(nPre)
	}

	// Steady state: mean of the final tail.
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

	// Settled check: the tail should drift by less than 2 % of the step.
	if slope, err := mathx.LinearSlope(tailTimes, tail); err == nil {
		drift := slope * (tailTimes[len(tailTimes)-1] - tailTimes[0])
		resp.Settled = abs(drift) < 0.02*abs(step)
	}

	// t90: first crossing of baseline + 0.9·step after the stimulus.
	// The raw trace carries the blank noise of the sensor, which biases
	// threshold crossings early; smooth with a centered window (~2.5 %
	// of the record) before timing, as an experimenter would.
	post, postT := values[k:], times[k:]
	if len(post) < 2 {
		return resp, nil
	}
	level := resp.Baseline + 0.9*step
	// The window is odd, 2·half+1 samples: len/40 rounded up to odd and
	// capped at 51, with no smoothing below 3.
	half := 0
	if w := len(post) / 40; w >= 3 {
		half = min(w, 51) / 2
	}
	// One pass over the smoothed segment finds the first crossing of
	// level (interpolated as mathx.CrossingTime does) and the transient
	// response time: the first maximum of |dV/dt|, from the centred
	// finite difference (one-sided at the ends) that Derivative
	// computes. The derivative needs a positive sample spacing.
	dt := postT[1] - postT[0]
	slopeOK := !(dt <= 0)
	found := false
	var peak absMax
	// s0, s1, s2 hold the smoothed values at i−2, i−1 and i.
	var s0, s1, s2 float64
	rising := false
	for i := range post {
		s0, s1, s2 = s1, s2, smoothAt(post, i, half)
		if i == 0 {
			rising = s2 < level
			continue
		}
		if !found && ((rising && s2 >= level) || (!rising && s2 <= level)) {
			found = true
			tc := postT[i]
			if s2 != s1 {
				u := (level - s1) / (s2 - s1)
				tc = postT[i-1] + u*(postT[i]-postT[i-1])
			}
			resp.T90 = tc - stimulusTime
		}
		if slopeOK {
			if i == 1 {
				peak.note(0, (s2-s1)/dt)
			} else {
				peak.note(i-1, (s2-s0)/(2*dt))
			}
		}
	}
	if slopeOK {
		peak.note(len(post)-1, (s2-s1)/dt)
		resp.TTransient = postT[peak.i] - stimulusTime
	}
	return resp, nil
}

// absMax tracks the first index of the largest |value| noted, starting
// from index 0 at magnitude 0 (a later value must be strictly larger).
type absMax struct {
	i int
	v float64
}

func (m *absMax) note(i int, d float64) {
	if a := abs(d); a > m.v {
		m.v, m.i = a, i
	}
}

// smoothAt is MovingAverage(xs, 2·half+1)[i] without the output slice:
// the mean of the centred window, clipped at the edges and summed in
// index order. half == 0 returns xs[i] unchanged.
func smoothAt(xs []float64, i, half int) float64 {
	if half == 0 {
		return xs[i]
	}
	lo := i - half
	if lo < 0 {
		lo = 0
	}
	hi := i + half
	if hi > len(xs)-1 {
		hi = len(xs) - 1
	}
	s := 0.0
	for j := lo; j <= hi; j++ {
		s += xs[j]
	}
	return s / float64(hi-lo+1)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
