package analysis

import (
	"errors"
	"fmt"

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

// PeakNear returns the reduction peak of the voltammogram's forward
// branch closest to the expected potential within the given window,
// or an error when none lies inside: one PeakScratch Locate and
// Lookup, under Lookup's nearest-peak rule.
func PeakNear(vg *trace.XY, expected phys.Voltage, window phys.Voltage) (PeakQuant, error) {
	var s PeakScratch
	if err := s.Locate(vg); err != nil {
		return PeakQuant{}, err
	}
	pk, ok := s.Lookup(expected, window)
	if !ok {
		return PeakQuant{}, fmt.Errorf("analysis: no reduction peak within %v of %v", window, expected)
	}
	return pk, nil
}
