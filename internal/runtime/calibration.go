package runtime

import (
	"fmt"
	"math"

	"advdiag/internal/analog"
	"advdiag/internal/analysis"
	"advdiag/internal/core"
	"advdiag/internal/enzyme"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
	"advdiag/internal/species"
)

// PlatformElectrodeArea is the working-electrode area of the
// synthesized platform (m²), shared by every calibration inversion.
const PlatformElectrodeArea = 0.23e-6

// weCalib is the per-electrode calibration state a panel run needs to
// turn raw currents into concentration estimates. All of it is
// deterministic and noise-free, so one copy can serve any number of
// concurrent panel runs read-only: the Michaelis–Menten inversion
// constants of a chronoamperometric probe's factory calibration, or a
// voltammetric electrode's CVCalib.
type weCalib struct {
	// Chronoamperometry inversion constants.
	caIMax float64 // saturation current, A
	caKm   float64 // Michaelis constant, mol/m³

	// Cyclic voltammetry calibration (nil on chronoamperometric
	// electrodes).
	*CVCalib
}

// CVCalib is the calibration of one voltammetric electrode
// construction over one CV window. The diffusion simulations behind it
// depend only on the construction and the protocol, never on a sample,
// so it is computed once and shared read-only by every run: the panel
// runtime keeps one per electrode construction, the hand-held Sensor
// one per window.
type CVCalib struct {
	// Proto is the CV protocol over the window bracketing the peaks.
	Proto measure.CyclicVoltammetry
	// Basis holds the unit flux traces of every binding, driven by the
	// chain-applied potential; measure.RunCVWithBasis (or RunCVShared)
	// scales them per sample instead of re-running the solver.
	Basis *measure.CVBasis
	// UnitPeak maps each substrate to the cathodic peak height of its
	// unit template: a fitted amplitude times it is the substrate's
	// baseline-corrected peak current (A).
	UnitPeak map[string]float64
	// Plan prefactors the template decomposition (the unit templates
	// from Basis, film-background nuisance columns, alias clusters,
	// least-squares elimination) so each fit is one right-hand-side
	// solve. Each caller passes its own analysis.FitScratch.
	Plan *analysis.FitPlan
}

// NewCVCalib calibrates the named voltammetric electrode of eng's cell
// over the CV window bracketing peaks. The basis is driven through
// chain's potentiostat, as the electrode's runs are, so its templates
// and the measured traces share one applied-potential axis. It runs
// one unit diffusion simulation per binding and draws no noise: eng's
// random stream does not move.
func NewCVCalib(eng *measure.Engine, weName string, chain *analog.Chain, peaks ...phys.Voltage) (*CVCalib, error) {
	start, vertex := measure.CVWindowFor(peaks...)
	proto := measure.CyclicVoltammetry{Start: start, Vertex: vertex}
	basis, err := eng.CVFluxBasis(weName, proto, chain)
	if err != nil {
		return nil, err
	}
	grid, templates, err := eng.CVTemplatesFromBasis(basis)
	if err != nil {
		return nil, err
	}
	we, err := eng.Cell.FindWE(weName)
	if err != nil {
		return nil, err
	}
	c := &CVCalib{Proto: proto, Basis: basis, UnitPeak: make(map[string]float64, len(templates))}
	for name, tpl := range templates {
		c.UnitPeak[name] = unitPeakHeight(tpl)
	}
	c.Plan, err = analysis.NewFitPlan(grid.X, templates, FilmNuisances(grid.X, we.Func.Assay.CYP)...)
	if err != nil {
		return nil, fmt.Errorf("advdiag: electrode %s fit plan: %w", weName, err)
	}
	return c, nil
}

// invertCA converts a baseline-subtracted steady current into a bulk
// concentration through the calibration's Michaelis–Menten inversion
// (C = I·Km/(I_max − I), clamped below saturation).
func (c *weCalib) invertCA(i phys.Current) phys.Concentration {
	x := float64(i)
	if x <= 0 {
		return 0
	}
	if x >= 0.99*c.caIMax {
		x = 0.99 * c.caIMax
	}
	return phys.Concentration(x * c.caKm / (c.caIMax - x))
}

// calibration returns the calibration table of the platform's
// electrodes, building it on first use: Warm, the panel kernel and the
// monitor kernel all come through here, so a cold platform is
// calibrated exactly once however many goroutines reach it first.
func (e *Executor) calibration() ([]*weCalib, error) {
	e.calibOnce.Do(func() { e.calib, e.calibErr = e.buildCalibration() })
	return e.calib, e.calibErr
}

// buildCalibration computes one weCalib per planned electrode, indexed
// like Candidate.Electrodes (nil on the blank). Replicated electrodes
// share their construction's entry, computed once for the first of
// them; panelScratch.faradaicFor relies on that sharing.
func (e *Executor) buildCalibration() ([]*weCalib, error) {
	eps := e.inner.Candidate.Electrodes
	table := make([]*weCalib, len(eps))
next:
	for i, ep := range eps {
		if ep.Blank {
			continue
		}
		for j, prev := range eps[:i] {
			if table[j] != nil && sameConstruction(prev, ep) {
				table[i] = table[j]
				continue next
			}
		}
		c, err := e.calibrate(ep)
		if err != nil {
			return nil, err
		}
		table[i] = c
	}
	return table, nil
}

// sameConstruction reports whether two planned electrodes agree on
// everything their calibration depends on: surface treatment,
// technique and assay set.
func sameConstruction(a, b core.ElectrodePlan) bool {
	if a.Nano != b.Nano || a.Technique != b.Technique || len(a.Assays) != len(b.Assays) {
		return false
	}
	for k := range a.Assays {
		if a.Assays[k].Target.Name != b.Assays[k].Target.Name || a.Assays[k].Probe != b.Assays[k].Probe {
			return false
		}
	}
	return true
}

// calibrate derives one electrode's calibration state from the
// platform design. A voltammetric electrode's CVCalib is computed over
// a throwaway buffer-only cell: it depends only on the electrode
// construction, not on any sample.
func (e *Executor) calibrate(ep core.ElectrodePlan) (*weCalib, error) {
	c := &weCalib{}
	switch ep.Technique {
	case enzyme.Chronoamperometry:
		ox := ep.Assays[0].Oxidase
		slope := float64(ox.SensitivityAt(ox.Applied, ep.Nano.Gain())) * PlatformElectrodeArea
		c.caIMax = slope * float64(ox.Km)
		c.caKm = float64(ox.Km)
	case enzyme.CyclicVoltammetry:
		var peaks []phys.Voltage
		for _, a := range ep.Assays {
			peaks = append(peaks, a.Binding.PeakPotential)
		}
		blank, err := e.inner.Instantiate(nil)
		if err != nil {
			return nil, err
		}
		eng, err := measure.NewEngine(blank, e.seed)
		if err != nil {
			return nil, err
		}
		chain, err := e.inner.ChainFor(ep.Name, eng.RNG())
		if err != nil {
			return nil, err
		}
		if c.CVCalib, err = NewCVCalib(eng, ep.Name, chain, peaks...); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("advdiag: electrode %s has unsupported technique %v", ep.Name, ep.Technique)
	}
	return c, nil
}

// unitPeakHeight returns the cathodic peak magnitude of a unit
// template (templates are IUPAC currents: reduction negative).
func unitPeakHeight(tpl []float64) float64 {
	peak := 0.0
	for _, v := range tpl {
		if -v > peak {
			peak = -v
		}
	}
	return peak
}

// FilmNuisances builds the known-shape film-background columns for
// every binding of an isoform (see analysis.GaussianColumn and
// measure.FilmBumpWidth).
func FilmNuisances(potentials []float64, cyp *enzyme.CYP) [][]float64 {
	var out [][]float64
	for _, b := range cyp.Bindings {
		out = append(out, analysis.GaussianColumn(potentials, float64(b.PeakPotential), measure.FilmBumpWidth))
	}
	return out
}

// MaxSampleConcentrationMM bounds accepted sample concentrations. Pure
// water is 5.5e4 mM, so no aqueous sample can reach this; the bound
// also keeps extreme float inputs from overflowing the simulation into
// NaN estimates behind a nil error.
const MaxSampleConcentrationMM = 1e5

// ValidateSample rejects sample maps no real fluidics could deliver:
// non-finite, negative, or unphysically large concentrations and
// species the registry does not know. Public panel entry points
// (Platform.RunPanel, the Lab, the Fleet) return these as errors
// rather than feeding them to the simulation.
//
// When several entries are invalid, the error reports the
// lexicographically smallest offending species, so the message (which
// travels in wire Outcomes) does not depend on map iteration order.
func ValidateSample(sample map[string]float64) error {
	worst := ""
	//advdiag:allow det-maprange selects the smallest offending key; which entry wins is order-independent
	for name := range sample {
		if validateEntry(name, sample[name]) != nil && (worst == "" || name < worst) {
			worst = name
		}
	}
	if worst == "" {
		return nil
	}
	return validateEntry(worst, sample[worst])
}

// validateEntry checks one sample entry against the fluidics contract.
func validateEntry(name string, mm float64) error {
	if math.IsNaN(mm) || math.IsInf(mm, 0) {
		return fmt.Errorf("advdiag: sample[%q] = %g is not a finite concentration", name, mm)
	}
	if mm < 0 {
		return fmt.Errorf("advdiag: sample[%q] = %g mM is negative", name, mm)
	}
	if mm > MaxSampleConcentrationMM {
		return fmt.Errorf("advdiag: sample[%q] = %g mM exceeds the %g mM physical bound", name, mm, float64(MaxSampleConcentrationMM))
	}
	if _, err := species.Lookup(name); err != nil {
		return fmt.Errorf("advdiag: sample names unknown species %q", name)
	}
	return nil
}
