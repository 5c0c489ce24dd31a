package analysis

import (
	"math"

	"advdiag/internal/trace"
)

// ComponentFit is the outcome of decomposing a voltammogram into known
// unit templates plus a background model.
type ComponentFit struct {
	// Amplitudes maps substrate name → fitted amplitude. Because the
	// diffusion problem is linear in concentration, the amplitude IS
	// the substrate's effective concentration in mol/m³.
	Amplitudes map[string]float64
	// Aliased maps substrate name → the other substrates whose
	// templates are voltammetrically indistinguishable from it
	// (coincident peak potentials, e.g. CYP2B6's bupropion/lidocaine).
	// Aliased members share one fitted amplitude: the instrument sees a
	// single peak and cannot apportion it.
	Aliased map[string][]string
	// Baseline and Slope describe the fitted affine background
	// (offsets and residual tilt).
	Baseline, Slope float64
	// Charging is the fitted double-layer charging magnitude: the
	// capacitive current C·|dE/dt| flips sign between the cathodic and
	// anodic branches, so it enters as a sweep-direction square wave.
	Charging float64
	// ResidualRMS is the root-mean-square misfit in amperes.
	ResidualRMS float64
}

// GaussianColumn evaluates exp(−((x−center)/width)²) over xs — the
// nuisance-background shape used to absorb the enzyme film's variable
// pseudo-capacitive background near a binding's formal potential.
func GaussianColumn(xs []float64, center, width float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		u := (x - center) / width
		out[i] = math.Exp(-u * u)
	}
	return out
}

// FitCVComponents decomposes a measured voltammogram into the given
// unit-concentration templates plus an affine background, a sweep-
// direction (charging) term, and any number of known-shape nuisance
// columns (film backgrounds), by linear least squares. The voltammogram
// and templates must share the same potential grid (both produced from
// the same protocol — RunCV and CVTemplates guarantee this).
//
// This is the quantification path for multi-target electrodes: simple
// peak detection fails when a small peak rides the foot of a large
// neighbouring wave (it becomes a shoulder), while the template
// decomposition recovers both amplitudes exactly in the noise-free
// limit.
//
// It is a one-shot FitPlan: the plan built on the voltammogram's own
// grid, fitted once, with its lookups spelled out as maps.
func FitCVComponents(vg *trace.XY, templates map[string][]float64, nuisances ...[]float64) (*ComponentFit, error) {
	if err := vg.Validate(); err != nil {
		return nil, err
	}
	plan, err := NewFitPlan(vg.X, templates, nuisances...)
	if err != nil {
		return nil, err
	}
	pf, err := plan.Fit(vg, &FitScratch{})
	if err != nil {
		return nil, err
	}
	fit := &ComponentFit{
		Amplitudes:  make(map[string]float64, len(plan.colOf)),
		Aliased:     plan.aliased,
		Baseline:    pf.Baseline,
		Slope:       pf.Slope,
		Charging:    pf.Charging,
		ResidualRMS: pf.ResidualRMS,
	}
	if fit.Aliased == nil {
		fit.Aliased = map[string][]string{}
	}
	for name := range plan.colOf {
		fit.Amplitudes[name] = pf.Amplitude(name)
	}
	return fit, nil
}
