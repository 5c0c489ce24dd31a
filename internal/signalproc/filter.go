// Package signalproc provides the digital signal processing applied to
// digitized acquisition traces: smoothing, baseline estimation, peak
// detection for voltammograms, derivative and steady-state analysis for
// chronoamperometric transients.
package signalproc

import (
	"errors"
)

// ErrTooShort is returned when a routine is given fewer samples than it
// needs.
var ErrTooShort = errors.New("signalproc: series too short")

// ErrUnordered is returned when sample times that must ascend do not.
var ErrUnordered = errors.New("signalproc: sample times not ascending")

// MovingAverage smooths xs with a centered window of the given odd
// width. Edges use the available partial window. Width ≤ 1 returns a
// copy.
func MovingAverage(xs []float64, width int) []float64 {
	return MovingAverageInto(nil, xs, width)
}

// MovingAverageInto is MovingAverage writing into dst. The returned
// slice aliases dst's backing array when it has capacity for the input.
func MovingAverageInto(dst, xs []float64, width int) []float64 {
	dst = growFloats(dst, len(xs))
	if width <= 1 {
		copy(dst, xs)
		return dst
	}
	half := width / 2
	if half != 2 {
		for i := range xs {
			dst[i] = smoothAt(xs, i, half)
		}
		return dst
	}
	// The voltammogram smoother's 5-sample window, unrolled where it
	// fits whole; the sum keeps smoothAt's order from 0.0, so −0 and
	// rounding are unchanged.
	for i := 2; i < len(xs)-2; i++ {
		w := xs[i-2 : i+3 : i+3]
		dst[i] = (0.0 + w[0] + w[1] + w[2] + w[3] + w[4]) / 5
	}
	for i := range min(2, len(xs)) {
		dst[i] = smoothAt(xs, i, 2)
	}
	for i := max(len(xs)-2, 2); i < len(xs); i++ {
		dst[i] = smoothAt(xs, i, 2)
	}
	return dst
}

// growFloats returns dst resized to n samples, reallocating only when
// the capacity is insufficient.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// Derivative returns the centered finite-difference derivative of ys
// with respect to uniformly spaced samples dt apart. Endpoints use
// one-sided differences.
func Derivative(ys []float64, dt float64) ([]float64, error) {
	if len(ys) < 2 || dt <= 0 {
		return nil, ErrTooShort
	}
	out := make([]float64, len(ys))
	out[0] = (ys[1] - ys[0]) / dt
	out[len(ys)-1] = (ys[len(ys)-1] - ys[len(ys)-2]) / dt
	for i := 1; i < len(ys)-1; i++ {
		out[i] = (ys[i+1] - ys[i-1]) / (2 * dt)
	}
	return out, nil
}

// Detrend subtracts a straight line through the first and last samples;
// a cheap baseline removal for voltammogram branches whose background
// (double-layer charging) is approximately linear in potential.
func Detrend(ys []float64) []float64 {
	out := make([]float64, len(ys))
	if len(ys) < 2 {
		copy(out, ys)
		return out
	}
	slope := (ys[len(ys)-1] - ys[0]) / float64(len(ys)-1)
	for i := range ys {
		out[i] = ys[i] - (ys[0] + slope*float64(i))
	}
	return out
}
