package analysis

import (
	"slices"

	"advdiag/internal/phys"
	"advdiag/internal/signalproc"
	"advdiag/internal/trace"
)

// PeakScratch reuses the buffers of a reduction-peak scan across runs.
// One voltammogram is scanned once (Scan) and then queried per assay
// (Near), so multi-target electrodes pay the detector once instead of
// once per target. A warm scratch scans without allocating. All results
// alias scratch memory — valid until the next Scan. A scratch belongs
// to one goroutine.
type PeakScratch struct {
	base, smooth []float64
	finder       signalproc.PeakFinder
	quants       []PeakQuant
}

// Scan runs FindReductionPeaks over the voltammogram into scratch
// buffers. It reports false where FindReductionPeaks would return an
// error (short or malformed voltammograms) — the callers that use a
// scratch treat peak detection as best-effort.
func (s *PeakScratch) Scan(vg *trace.XY, minHeight phys.Current) bool {
	return s.scan(vg, minHeight) == nil
}

// scan fills s.quants with the voltammogram's reduction peaks, in
// FindReductionPeaks' order.
func (s *PeakScratch) scan(vg *trace.XY, minHeight phys.Current) error {
	n, err := forwardBranchLen(vg)
	if err != nil {
		return err
	}
	pot, cur := vg.X[:n], vg.Y[:n]
	// Invert the branch so reduction peaks point up and subtract the
	// chord through its end points (the linear double-layer charging
	// background) in one pass: signalproc.Detrend of the negated
	// current, term for term.
	y0 := -cur[0]
	slope := (-cur[n-1] - y0) / float64(n-1)
	s.base = slices.Grow(s.base[:0], n)[:n]
	for i, y := range cur {
		s.base[i] = -y - (y0 + slope*float64(i))
	}
	s.smooth = signalproc.MovingAverageInto(s.smooth, s.base, 5)
	peaks := s.finder.Find(pot, s.smooth, float64(minHeight))
	signalproc.SortByProminence(peaks)
	s.quants = s.quants[:0]
	for _, p := range peaks {
		if p.Y < float64(minHeight) {
			continue
		}
		s.quants = append(s.quants, PeakQuant{
			Potential:  phys.Voltage(p.X),
			Height:     phys.Current(p.Y),
			Prominence: p.Prominence,
		})
	}
	return nil
}

// Near returns the scanned peak closest to the expected potential
// within the window; of several at the minimal distance, the one last
// in FindReductionPeaks' order wins.
func (s *PeakScratch) Near(expected, window phys.Voltage) (PeakQuant, bool) {
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
