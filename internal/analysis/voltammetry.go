package analysis

import (
	"errors"
	"fmt"
	"slices"

	"advdiag/internal/phys"
	"advdiag/internal/trace"
)

// PeakQuant is one quantified reduction peak in a voltammogram: the
// electrochemical signature of a target (position → identity, height →
// concentration; paper §I-B).
type PeakQuant struct {
	// Potential is the detected peak potential.
	Potential phys.Voltage
	// Height is the baseline-corrected cathodic peak current magnitude
	// (positive number).
	Height phys.Current
}

// errNoCathodicBranch reports a voltammogram whose potential does not
// fall over its first samples.
var errNoCathodicBranch = errors.New("analysis: voltammogram does not start with a cathodic branch")

// ForwardBranch extracts the cathodic (first, decreasing-potential)
// branch of a voltammogram cycle as parallel slices.
func ForwardBranch(vg *trace.XY) (pot, cur []float64, err error) {
	n, err := forwardBranchLen(vg)
	if err != nil {
		return nil, nil, err
	}
	return slices.Clone(vg.X[:n]), slices.Clone(vg.Y[:n]), nil
}

// forwardBranchLen returns how many leading samples of vg form its
// cathodic branch.
func forwardBranchLen(vg *trace.XY) (int, error) {
	if err := vg.Validate(); err != nil {
		return 0, err
	}
	if vg.Len() < 8 {
		return 0, ErrInsufficientData
	}
	// The branch runs while X strictly decreases; a repeated or rising
	// potential marks the vertex turnaround (the repeated sample already
	// belongs to the anodic branch, where the charging current has
	// flipped sign).
	n := 1
	for n < vg.Len() && !(vg.X[n] >= vg.X[n-1]) {
		n++
	}
	if n < 8 {
		return 0, errNoCathodicBranch
	}
	return n, nil
}

// FindReductionPeaks locates cathodic peaks on the forward branch of a
// voltammogram: the current is negated (IUPAC cathodic currents are
// negative), detrended against the linear charging background, smoothed
// lightly, and run through the prominence-based peak detector; the
// peaks come in descending prominence order. minHeight is the
// detector's minimum prominence and filters peaks smaller than the
// given current magnitude.
func FindReductionPeaks(vg *trace.XY, minHeight phys.Current) ([]PeakQuant, error) {
	var s PeakScratch
	if err := s.scan(vg, minHeight); err != nil {
		return nil, err
	}
	return s.quants, nil
}

// PeakNear returns the detected reduction peak closest to the expected
// potential within the given window, or an error when none lies inside:
// PeakScratch's Locate and Lookup, which pick the peak FindReductionPeaks
// and a nearest search would.
func PeakNear(vg *trace.XY, expected phys.Voltage, window phys.Voltage, minHeight phys.Current) (PeakQuant, error) {
	var s PeakScratch
	if err := s.Locate(vg, minHeight); err != nil {
		return PeakQuant{}, err
	}
	pk, ok := s.Lookup(expected, window)
	if !ok {
		return PeakQuant{}, fmt.Errorf("analysis: no reduction peak within %v of %v", window, expected)
	}
	return pk, nil
}
