package longterm

import (
	"fmt"
	"math"

	"advdiag/internal/cell"
	"advdiag/internal/core"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
)

// Prober performs timed two-phase readings on one aging film: the
// measurement half of a long-term campaign, extracted so schedulers can
// drive many films without the closed Campaign.Run loop. Each call
// advances an internal seed counter, so a Prober reproduces the exact
// noise sequence of the historical campaign loop when driven in the
// same order; it is not safe for concurrent use.
type Prober struct {
	target  string
	assay   enzyme.Assay
	nano    electrode.Nanostructure
	readout core.ReadoutClass
	polymer bool
	seed    uint64
}

// NewProber builds a prober for the target's chronoamperometric assay.
func NewProber(target string, polymer bool, seed uint64) (*Prober, error) {
	var assay enzyme.Assay
	found := false
	for _, a := range enzyme.AssaysFor(target) {
		if a.Technique == enzyme.Chronoamperometry {
			assay, found = a, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("longterm: no chronoamperometric probe for %q", target)
	}
	nano := core.CitedNano(assay)
	readout, err := core.SingleReadout(assay, nano)
	if err != nil {
		return nil, err
	}
	return &Prober{target: target, assay: assay, nano: nano, readout: readout, polymer: polymer, seed: seed}, nil
}

// MeasureAt runs one two-phase reading at the given film age and
// returns the baseline-subtracted current. The film ages between calls
// only through the ageHours argument — every reading builds a fresh
// cell, as the historical campaign loop did.
func (p *Prober) MeasureAt(ageHours, concMM float64) (phys.Current, error) {
	we := electrode.NewWorking("WE1", p.nano, p.assay)
	we.Func.PolymerStabilized = p.polymer
	we.Func.AgeSeconds = ageHours * 3600
	sol := cell.NewSolution().Set(p.target, phys.MilliMolar(concMM))
	cl := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	p.seed++
	eng, err := measure.NewEngine(cl, p.seed)
	if err != nil {
		return 0, err
	}
	chain := p.readout.NewChain(nil, eng.RNG())
	res, err := eng.RunCA("WE1", chain, measure.Chronoamperometry{
		Duration: 90, BaselinePhase: 15,
	})
	if err != nil {
		return 0, err
	}
	return res.StepCurrent(), nil
}

// DefaultDriftWindow and DefaultDriftThresholdPct are the rolling
// drift-detection defaults: flag when this many consecutive readings
// all exceed the threshold magnitude of relative error.
const (
	DefaultDriftWindow       = 3
	DefaultDriftThresholdPct = 10.0
)

// Tracker is the calibration-and-drift model of one monitored film,
// independent of how readings are produced: feed it calibration
// currents and reading currents in time order and it maintains the
// one-point slope, the per-reading error, the drift summary, and a
// rolling drift flag. Campaign.Run drives it from a Prober; the
// population scheduler drives it from monitor results arriving off a
// Fleet.
type Tracker struct {
	// TrueMM is the known concentration presented at every reading and
	// calibration (the one-point standard).
	TrueMM float64
	// DriftWindow and DriftThresholdPct configure the rolling drift
	// detector; zero values select the defaults.
	DriftWindow       int
	DriftThresholdPct float64

	slope      float64 // A per mM, from the most recent calibration
	calibrated bool
	lastRecal  float64
	recals     int

	readings   []Reading
	maxErrPct  float64
	overStreak int // consecutive readings past the drift threshold
	drifted    bool
}

// NewTracker builds a tracker for a film monitored at trueMM.
func NewTracker(trueMM float64) *Tracker { return &Tracker{TrueMM: trueMM} }

func (tr *Tracker) window() int {
	if tr.DriftWindow > 0 {
		return tr.DriftWindow
	}
	return DefaultDriftWindow
}

func (tr *Tracker) threshold() float64 {
	if tr.DriftThresholdPct > 0 {
		return tr.DriftThresholdPct
	}
	return DefaultDriftThresholdPct
}

// Recalibrate installs a fresh one-point slope from the reference
// current measured at atHours against the known standard (TrueMM). The
// rolling drift streak resets — recalibration is the corrective action
// the flag requests.
func (tr *Tracker) Recalibrate(atHours float64, ref phys.Current) error {
	if tr.TrueMM <= 0 {
		return fmt.Errorf("longterm: cannot calibrate against a %g mM standard", tr.TrueMM)
	}
	tr.slope = float64(ref) / tr.TrueMM
	tr.calibrated = true
	tr.lastRecal = atHours
	tr.recals++
	tr.overStreak = 0
	return nil
}

// Reading converts one measured current into a concentration estimate
// using the slope from the most recent calibration, records it, and
// updates the drift summary. Film decay since the last recalibration
// appears as a negative bias — the drift the rolling detector flags.
func (tr *Tracker) Reading(atHours float64, i phys.Current) (Reading, error) {
	if !tr.calibrated {
		return Reading{}, fmt.Errorf("longterm: reading at %g h before any calibration", atHours)
	}
	if tr.slope <= 0 || math.IsNaN(tr.slope) || math.IsInf(tr.slope, 0) {
		return Reading{}, fmt.Errorf("longterm: degenerate calibration slope %g", tr.slope)
	}
	est := float64(i) / tr.slope
	errPct := (est - tr.TrueMM) / tr.TrueMM * 100
	r := Reading{
		AtHours:         atHours,
		EstimateMM:      est,
		ErrorPct:        errPct,
		SinceRecalHours: atHours - tr.lastRecal,
	}
	tr.readings = append(tr.readings, r)
	if a := math.Abs(errPct); a > tr.maxErrPct {
		tr.maxErrPct = a
	}
	if math.Abs(errPct) > tr.threshold() {
		tr.overStreak++
		if tr.overStreak >= tr.window() {
			tr.drifted = true
		}
	} else {
		tr.overStreak = 0
	}
	return r, nil
}

// NeedsRecal reports whether the rolling drift detector currently
// demands a recalibration: the last window() readings all exceeded the
// error threshold. Recalibrate clears it.
func (tr *Tracker) NeedsRecal() bool { return tr.overStreak >= tr.window() }

// Recals counts calibrations performed (including the initial one).
func (tr *Tracker) Recals() int { return tr.recals }

// LastRecalHours is the time of the most recent calibration.
func (tr *Tracker) LastRecalHours() float64 { return tr.lastRecal }

// DriftFlagged reports whether the rolling detector ever fired over the
// tracker's life (it stays set even after a recalibration clears the
// streak — a campaign that drifted once is a campaign to review).
func (tr *Tracker) DriftFlagged() bool { return tr.drifted }

// Result summarizes everything recorded so far.
func (tr *Tracker) Result() *Result {
	out := &Result{
		Readings:     tr.readings,
		MaxErrorPct:  tr.maxErrPct,
		Recals:       tr.recals,
		DriftFlagged: tr.drifted,
	}
	if n := len(tr.readings); n > 0 {
		out.FinalErrorPct = tr.readings[n-1].ErrorPct
	}
	return out
}
