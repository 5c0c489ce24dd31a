package signalproc

import (
	"math"
	"slices"
)

// Peak is one detected local extremum in a sampled curve.
type Peak struct {
	// Index is the sample index of the extremum.
	Index int
	// X and Y are the abscissa and curve value at the extremum (after
	// parabolic refinement).
	X, Y float64
	// Prominence is the height of the peak above the higher of the two
	// flanking valleys (absolute value).
	Prominence float64
}

// FindPeaks locates local maxima of ys (with abscissas xs) whose
// prominence is at least minProminence, sorted by descending
// prominence. Positions are refined by parabolic interpolation through
// the three samples around each maximum, so peak potentials can be
// located to better than the sample spacing.
//
// To find minima (cathodic reduction peaks, which are negative currents
// under the IUPAC convention), negate ys first.
//
// xs must be evenly spaced and monotone, as one sweep's potentials are:
// a maximum within one sample spacing of the previous peak kept is
// merged into it as a plateau twin, so on a non-monotone xs (a whole
// CV cycle) two peaks at one potential on opposite sweeps are both
// kept.
func FindPeaks(xs, ys []float64, minProminence float64) []Peak {
	peaks := new(PeakFinder).Find(xs, ys, minProminence)
	SortByProminence(peaks)
	return peaks
}

// PeakFinder runs FindPeaks' detection over reusable buffers: once they
// have grown to the longest curve seen, Find allocates nothing. A
// finder belongs to one goroutine.
type PeakFinder struct {
	peaks []Peak
	stack []basin
}

// basin is one entry of the monotonic stack behind a prominence pass:
// a sample and its floor so far, the minimum of the samples passed
// since the nearest strictly higher one.
type basin struct{ top, min float64 }

// Find returns the peaks FindPeaks returns, in index order instead of
// prominence order; the result is valid until the next Find.
//
// The prominence of a maximum is its height above the higher of its
// two valley floors, each the lowest sample before a strictly higher
// one (or the series edge). Two monotonic-stack passes, one per side,
// give every maximum its floor in O(n): a sample pops the entries it
// is at least as high as and inherits their minima. Minima combine
// nearest-first with a strict <, so among equal floors — −0 and +0
// included — the one closest to the peak is kept, as a walk outward
// from the peak keeps it. NaN samples neither stop a walk nor lower a
// floor, so both passes skip them.
//
// xs must be evenly spaced and monotone, as a sweep's potentials are:
// refined positions then ascend or descend with the index, so a
// plateau twin can only be within a sample spacing of the last peak
// kept.
func (f *PeakFinder) Find(xs, ys []float64, minProminence float64) []Peak {
	peaks := f.peaks[:0]
	if len(xs) != len(ys) || len(ys) < 3 {
		return peaks
	}
	// Left pass: collect the maxima in index order, each holding its
	// left floor in Prominence until the right pass.
	stack := f.stack[:0]
	for i, y := range ys {
		if y != y {
			continue
		}
		var m float64
		stack, m = fill(stack, y)
		if i > 0 && i < len(ys)-1 && y > ys[i-1] && y >= ys[i+1] {
			peaks = append(peaks, Peak{Index: i, Prominence: m})
		}
	}
	// Right pass, stopping at the first maximum.
	stack = stack[:0]
	k := len(peaks) - 1
	for i := len(ys) - 1; k >= 0; i-- {
		y := ys[i]
		if y != y {
			continue
		}
		var m float64
		stack, m = fill(stack, y)
		if i == peaks[k].Index {
			base := peaks[k].Prominence
			if m > base {
				base = m
			}
			peaks[k].Prominence = y - base
			k--
		}
	}
	f.peaks, f.stack = peaks, stack
	return keepRefined(xs, ys, peaks, minProminence)
}

// Maxima returns the peaks Find returns for a minProminence of 0, in
// index order, without the two prominence passes: a prominence is
// never negative (it may be NaN), so a threshold of 0 keeps every
// local maximum, and only refinement and the plateau-twin merge shape
// the result. Every Prominence reads 0. The result is valid until the
// next Find or Maxima.
func (f *PeakFinder) Maxima(xs, ys []float64) []Peak {
	peaks := f.peaks[:0]
	if len(xs) != len(ys) || len(ys) < 3 {
		return peaks
	}
	// A NaN sample is no maximum and, as a neighbour, fails both
	// comparisons, as in Find's left pass.
	for i := 1; i < len(ys)-1; i++ {
		if y := ys[i]; y > ys[i-1] && y >= ys[i+1] {
			peaks = append(peaks, Peak{Index: i})
		}
	}
	f.peaks = peaks
	return keepRefined(xs, ys, peaks, math.Inf(-1))
}

// keepRefined compacts peaks, in index order, to the maxima at least
// minProminence prominent, refined, merging plateau twins: refined X
// within one sample spacing of the last peak kept (none before the
// first, as NaN compares false).
func keepRefined(xs, ys []float64, peaks []Peak, minProminence float64) []Peak {
	dx := xs[1] - xs[0]
	if dx < 0 {
		dx = -dx
	}
	kept, lastX := 0, math.NaN()
	for _, p := range peaks {
		if p.Prominence < minProminence {
			continue
		}
		p.X, p.Y = refine(xs, ys, p.Index)
		d := p.X - lastX
		if d < 0 {
			d = -d
		}
		if d <= dx {
			continue
		}
		peaks[kept] = p
		kept++
		lastX = p.X
	}
	return peaks[:kept]
}

// SortByProminence orders peaks by descending prominence, as FindPeaks
// returns them. slices.SortFunc runs the same pdqsort as sort.Slice,
// so equal prominences come out in sort.Slice's order.
func SortByProminence(peaks []Peak) {
	slices.SortFunc(peaks, func(a, b Peak) int {
		if a.Prominence > b.Prominence {
			return -1
		}
		if a.Prominence < b.Prominence {
			return 1
		}
		return 0
	})
}

// fill pushes sample y onto a pass's stack and returns the stack and
// y's floor: the entries y is at least as high as are popped, nearest
// first, and their minima lowered into y.
func fill(stack []basin, y float64) ([]basin, float64) {
	m := y
	for len(stack) > 0 && stack[len(stack)-1].top <= y {
		if b := stack[len(stack)-1].min; b < m {
			m = b
		}
		stack = stack[:len(stack)-1]
	}
	return append(stack, basin{y, m}), m
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
