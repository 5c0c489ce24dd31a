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
//
// Lookup picks, bit for bit, the peak a nearest-within-window search
// over FindReductionPeaks' prominence-ordered peaks picks. With a
// minimum height of 0 or below, every local maximum passes the
// detector's prominence threshold (a prominence is never negative), so
// the ranking decides only which of several peaks at exactly the same
// distance wins. Locate therefore skips the prominence passes and the
// sort, and the scratch ranks the branch — FindReductionPeaks' scan
// over the buffers Locate filled — only when two candidates tie on
// distance, or when a positive minimum height makes the threshold bite.
type PeakScratch struct {
	// pot is the located branch's potentials, copied so the
	// voltammogram may be recycled after Locate; base and smooth are
	// its inverted, detrended current before and after smoothing.
	pot, base, smooth []float64
	finder            signalproc.PeakFinder
	minHeight         float64
	// maxima are the located branch's refined local maxima in index
	// order, plateau twins merged; valid until ranked.
	maxima []signalproc.Peak
	// ranked reports that quants holds the branch's peaks in
	// FindReductionPeaks' order.
	ranked bool
	quants []PeakQuant
}

// Locate prepares lookups on the voltammogram's forward branch. It
// fails where FindReductionPeaks does (short or malformed
// voltammograms), and Lookup then finds nothing.
//
//advdiag:hotpath
func (s *PeakScratch) Locate(vg *trace.XY, minHeight phys.Current) error {
	s.maxima, s.quants, s.ranked = s.maxima[:0], s.quants[:0], false
	if err := s.branch(vg); err != nil {
		return err
	}
	s.minHeight = float64(minHeight)
	if s.minHeight > 0 {
		s.rank()
		return nil
	}
	s.maxima = s.finder.Maxima(s.pot, s.smooth)
	return nil
}

// Lookup returns the located peak nearest the expected potential
// within the window (a distance equal to the window counts), and false
// when none lies inside. Its Potential and Height are those of the
// peak FindReductionPeaks and a nearest pick choose: of several at the
// minimal distance, the one last in FindReductionPeaks' order.
//
//advdiag:hotpath
func (s *PeakScratch) Lookup(expected, window phys.Voltage) (PeakQuant, bool) {
	if s.ranked {
		return s.near(expected, window)
	}
	best, bestDist, tie := -1, float64(window), false
	for i, p := range s.maxima {
		if p.Y < s.minHeight {
			continue
		}
		d := float64(phys.Voltage(p.X) - expected)
		if d < 0 {
			d = -d
		}
		switch {
		case !(d <= bestDist): // outside the window, farther, or NaN
		case best >= 0 && d == bestDist:
			tie = true
		default:
			best, bestDist, tie = i, d, false
		}
	}
	if tie {
		// Only the prominence order can break it: rank the branch once;
		// later lookups on it read the ranking too.
		s.rank()
		return s.near(expected, window)
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

// rank fills s.quants with the branch's reduction peaks in
// FindReductionPeaks' order: the prominence-thresholded detector,
// sorted by descending prominence, less the peaks below minHeight.
func (s *PeakScratch) rank() {
	peaks := s.finder.Find(s.pot, s.smooth, s.minHeight)
	signalproc.SortByProminence(peaks)
	s.quants = s.quants[:0]
	for _, p := range peaks {
		if p.Y < s.minHeight {
			continue
		}
		s.quants = append(s.quants, PeakQuant{Potential: phys.Voltage(p.X), Height: phys.Current(p.Y)})
	}
	s.ranked = true
}

// scan fills s.quants with the voltammogram's reduction peaks, in
// FindReductionPeaks' order.
func (s *PeakScratch) scan(vg *trace.XY, minHeight phys.Current) error {
	if err := s.Locate(vg, minHeight); err != nil {
		return err
	}
	if !s.ranked {
		s.rank()
	}
	return nil
}

// near returns the ranked peak closest to the expected potential
// within the window; of several at the minimal distance, the one last
// in FindReductionPeaks' order wins.
func (s *PeakScratch) near(expected, window phys.Voltage) (PeakQuant, bool) {
	best := -1
	bestDist := float64(window)
	for i, p := range s.quants {
		d := float64(p.Potential - expected)
		if d < 0 {
			d = -d
		}
		if d <= bestDist {
			bestDist = d
			best = i
		}
	}
	if best < 0 {
		return PeakQuant{}, false
	}
	return s.quants[best], true
}
