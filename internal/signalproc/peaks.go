package signalproc

import "math"

// Peak is one local maximum of a sampled curve.
type Peak struct {
	// Index is the sample index of the maximum.
	Index int
	// X and Y are the abscissa and curve value at the maximum (after
	// parabolic refinement).
	X, Y float64
}

// MaximaInto writes the local maxima of ys (with abscissas xs) into
// dst, in index order. A sample is a maximum when it is higher than
// its left neighbour and at least as high as its right one; a NaN
// sample is no maximum and, as a neighbour, fails both comparisons.
// Positions are refined by parabolic interpolation through the three
// samples around each maximum, so peak potentials can be located to
// better than the sample spacing. The returned slice aliases dst's
// backing array when it has capacity for the maxima.
//
// To find minima (cathodic reduction peaks, which are negative currents
// under the IUPAC convention), negate ys first.
//
// xs must be evenly spaced and monotone, as one sweep's potentials are:
// a maximum whose refined X lies within one sample spacing of the last
// one kept is merged into it as a plateau twin (none before the first,
// as NaN compares false), so on a non-monotone xs (a whole CV cycle)
// two peaks at one potential on opposite sweeps are both kept.
func MaximaInto(dst []Peak, xs, ys []float64) []Peak {
	dst = dst[:0]
	if len(xs) != len(ys) || len(ys) < 3 {
		return dst
	}
	dx := xs[1] - xs[0]
	if dx < 0 {
		dx = -dx
	}
	lastX := math.NaN()
	for i := 1; i < len(ys)-1; i++ {
		if y := ys[i]; !(y > ys[i-1] && y >= ys[i+1]) {
			continue
		}
		x, y := refine(xs, ys, i)
		d := x - lastX
		if d < 0 {
			d = -d
		}
		if d <= dx {
			continue
		}
		dst = append(dst, Peak{Index: i, X: x, Y: y})
		lastX = x
	}
	return dst
}

// refine fits a parabola through (i-1, i, i+1) and returns the vertex.
func refine(xs, ys []float64, i int) (x, y float64) {
	y0, y1, y2 := ys[i-1], ys[i], ys[i+1]
	denom := y0 - 2*y1 + y2
	if denom == 0 {
		return xs[i], ys[i]
	}
	delta := 0.5 * (y0 - y2) / denom
	if delta > 1 {
		delta = 1
	}
	if delta < -1 {
		delta = -1
	}
	dx := 0.0
	if i+1 < len(xs) {
		dx = xs[i+1] - xs[i]
	}
	return xs[i] + delta*dx, y1 - 0.25*(y0-y2)*delta
}
