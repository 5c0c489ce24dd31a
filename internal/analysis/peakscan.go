package analysis

import (
	"slices"

	"advdiag/internal/phys"
	"advdiag/internal/signalproc"
	"advdiag/internal/trace"
)

// PeakScratch reads reduction peaks out of voltammograms over reusable
// buffers. Locate runs one pass over a voltammogram's forward branch
// and Lookup then picks, per assay, the peak nearest an expected
// potential, so multi-target electrodes pay the detector once instead
// of once per target. A warm scratch allocates nothing. A scratch
// belongs to one goroutine.
type PeakScratch struct {
	// pot is the located branch's potentials, copied so the
	// voltammogram may be recycled after Locate; base and smooth are
	// its inverted, detrended current before and after smoothing.
	pot, base, smooth []float64
	// maxima are the located branch's refined local maxima in index
	// order, plateau twins merged.
	maxima []signalproc.Peak
}

// Locate prepares lookups on the voltammogram's forward branch: the
// current is inverted so reduction peaks point up, detrended against
// the linear charging background, smoothed over 5 samples, and its
// local maxima are found (signalproc.MaximaInto). It fails on short or
// malformed voltammograms, and Lookup then finds nothing.
//
//advdiag:hotpath
func (s *PeakScratch) Locate(vg *trace.XY) error {
	s.maxima = s.maxima[:0]
	if err := s.branch(vg); err != nil {
		return err
	}
	s.maxima = signalproc.MaximaInto(s.maxima, s.pot, s.smooth)
	return nil
}

// Lookup returns the located peak nearest the expected potential
// within the window (a distance equal to the window counts), and false
// when none lies inside. Peaks with a refined height below 0 are
// skipped. The kept maxima lie more than one sample spacing apart, so
// at most two tie on distance, one either side of the expected
// potential: the taller refined peak wins, and when neither is taller
// (equal or NaN heights), the one at the more negative potential.
//
//advdiag:hotpath
func (s *PeakScratch) Lookup(expected, window phys.Voltage) (PeakQuant, bool) {
	best, bestDist := -1, float64(window)
	for i, p := range s.maxima {
		if p.Y < 0 {
			continue
		}
		d := float64(phys.Voltage(p.X) - expected)
		if d < 0 {
			d = -d
		}
		// The maxima run down the forward branch, so on a tie p is at
		// the more negative potential and wins unless it is shorter.
		if d < bestDist || d == bestDist && (best < 0 || !(p.Y < s.maxima[best].Y)) {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return PeakQuant{}, false
	}
	p := s.maxima[best]
	return PeakQuant{Potential: phys.Voltage(p.X), Height: phys.Current(p.Y)}, true
}

// branch fills s.pot and s.smooth from the voltammogram's forward
// branch: the current is inverted so reduction peaks point up, the
// chord through its end points (the linear double-layer charging
// background) is subtracted in the same pass — signalproc.Detrend of
// the negated current, term for term — and the result is smoothed
// over 5 samples.
func (s *PeakScratch) branch(vg *trace.XY) error {
	n, err := forwardBranchLen(vg)
	if err != nil {
		return err
	}
	cur := vg.Y[:n]
	s.pot = append(s.pot[:0], vg.X[:n]...)
	y0 := -cur[0]
	slope := (-cur[n-1] - y0) / float64(n-1)
	s.base = slices.Grow(s.base[:0], n)[:n]
	for i, y := range cur {
		s.base[i] = -y - (y0 + slope*float64(i))
	}
	s.smooth = signalproc.MovingAverageInto(s.smooth, s.base, 5)
	return nil
}
