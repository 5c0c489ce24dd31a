package analysis

import (
	"fmt"
	"math"

	"advdiag/internal/mathx"
	"advdiag/internal/trace"
)

// FitPlan is the one implementation of the CV template decomposition.
// It owns every decision of the fit: templates all but zero over the
// window (max |value| < 1e-15) are skipped and read zero; the rest are
// fitted in sorted name order; templates correlated above 0.99 with an
// earlier one are aliased to it and share its amplitude; the design
// columns are the representative templates, ones, the grid X, the
// sweep direction and the nuisance columns, in that order;
// mathx.LSQPlan solves them; negative amplitudes clamp to zero.
//
// Everything that depends only on the potential grid, the unit
// templates and the nuisance columns is computed once per electrode
// calibration, so each fit costs one right-hand-side solve. A plan is immutable after construction and safe for
// concurrent Fit calls when each caller passes its own FitScratch.
type FitPlan struct {
	m     int
	gridX []float64
	// names holds the alias-cluster representatives in fitted order;
	// colOf maps every known template name to its representative's
	// column (−1 for templates skipped as all-zero over the window).
	names   []string
	colOf   map[string]int
	aliased map[string][]string
	// cols are the design-matrix columns: representative templates,
	// ones, grid X, sweep direction, then the nuisance columns.
	cols [][]float64
	dir  []float64
	nNui int
	lsq  *mathx.LSQPlan
}

// FitScratch holds the per-caller buffers a Fit call reuses.
type FitScratch struct {
	rhs, coef []float64
}

// PlanFit is the outcome of one planned fit. Amplitude looks a
// template's amplitude up without building a map. The coefficient
// slice aliases the FitScratch, so a PlanFit is valid only until the
// scratch's next fit. It keeps no pointer to the fitted voltammogram,
// whose buffers a trace arena may recycle; ResidualRMS takes it back
// when the misfit is wanted.
type PlanFit struct {
	plan *FitPlan
	coef []float64
	// Baseline, Slope and Charging are the fitted background terms.
	Baseline, Slope, Charging float64
}

// Amplitude returns the fitted amplitude for a template name: aliased
// substrates share their representative's amplitude, skipped and
// unknown templates read zero, and negative amplitudes clamp to zero.
func (f *PlanFit) Amplitude(name string) float64 {
	idx, ok := f.plan.colOf[name]
	if !ok || idx < 0 {
		return 0
	}
	amp := f.coef[idx]
	if amp < 0 {
		return 0
	}
	return amp
}

// Aliased returns the alias clusters, nil when nothing aliases: each
// substrate maps to the others whose templates correlate above 0.99
// with it (coincident peak potentials, e.g. CYP2B6's
// bupropion/lidocaine) and share its amplitude. The map is shared plan
// state — read-only.
func (f *PlanFit) Aliased() map[string][]string { return f.plan.aliased }

// NewFitPlan builds the plan for one electrode's calibration grid.
func NewFitPlan(gridX []float64, templates map[string][]float64, nuisances ...[]float64) (*FitPlan, error) {
	m := len(gridX)
	if m < 8 {
		return nil, ErrInsufficientData
	}
	if len(templates) == 0 {
		return nil, fmt.Errorf("analysis: no templates to fit")
	}
	names := make([]string, 0, len(templates))
	skipped := make([]string, 0)
	for name, tpl := range templates {
		if len(tpl) != m {
			return nil, fmt.Errorf("analysis: template %q has %d samples, voltammogram has %d", name, len(tpl), m)
		}
		if mathx.MaxAbs(tpl) < 1e-15 {
			skipped = append(skipped, name)
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: every template is zero over the scanned window")
	}
	sortStrings(names)

	var aliased map[string][]string // allocated only when aliases exist
	reps := make([]string, 0, len(names))
	repOf := make(map[string]string, len(names))
	for _, name := range names {
		assigned := false
		for _, rep := range reps {
			if templateCorrelation(templates[name], templates[rep]) > 0.99 {
				repOf[name] = rep
				if aliased == nil {
					aliased = map[string][]string{}
				}
				aliased[rep] = append(aliased[rep], name)
				aliased[name] = append(aliased[name], rep)
				assigned = true
				break
			}
		}
		if !assigned {
			reps = append(reps, name)
			repOf[name] = name
		}
	}
	names = reps

	cols := make([][]float64, 0, len(names)+3+len(nuisances))
	for _, name := range names {
		cols = append(cols, templates[name])
	}
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	dir := make([]float64, m)
	for i := 1; i < m; i++ {
		if gridX[i] < gridX[i-1] {
			dir[i] = -1
		} else if gridX[i] > gridX[i-1] {
			dir[i] = 1
		} else {
			dir[i] = dir[i-1]
		}
	}
	if m > 1 {
		dir[0] = dir[1]
	}
	cols = append(cols, ones, gridX, dir)
	for i, nu := range nuisances {
		if len(nu) != m {
			return nil, fmt.Errorf("analysis: nuisance column %d has %d samples, voltammogram has %d", i, len(nu), m)
		}
		cols = append(cols, nu)
	}

	lsq, err := mathx.NewLSQPlan(cols)
	if err != nil {
		return nil, err
	}
	colOf := make(map[string]int, len(repOf)+len(skipped))
	for name, rep := range repOf {
		for i, n := range names {
			if n == rep {
				colOf[name] = i
				break
			}
		}
	}
	for _, name := range skipped {
		colOf[name] = -1
	}
	return &FitPlan{
		m:       m,
		gridX:   gridX,
		names:   names,
		colOf:   colOf,
		aliased: aliased,
		cols:    cols,
		dir:     dir,
		nNui:    len(nuisances),
		lsq:     lsq,
	}, nil
}

// Fit decomposes a voltammogram measured on the plan's grid. The
// voltammogram must share the calibration grid (RunCVWithBasis and
// CVTemplatesFromBasis guarantee this); the endpoints are checked
// bitwise as a cheap guard against mismatched protocols.
func (p *FitPlan) Fit(vg *trace.XY, s *FitScratch) (PlanFit, error) {
	if err := vg.Validate(); err != nil {
		return PlanFit{}, err
	}
	if vg.Len() != p.m || vg.X[0] != p.gridX[0] || vg.X[p.m-1] != p.gridX[p.m-1] {
		return PlanFit{}, fmt.Errorf("analysis: voltammogram grid does not match the fit plan's calibration grid")
	}
	if cap(s.rhs) < p.lsq.K() {
		s.rhs = make([]float64, p.lsq.K())
	}
	if cap(s.coef) < p.lsq.K() {
		s.coef = make([]float64, p.lsq.K())
	}
	x, err := p.lsq.Solve(vg.Y, s.rhs[:p.lsq.K()], s.coef[:p.lsq.K()])
	if err != nil {
		return PlanFit{}, err
	}
	s.coef = x
	k := len(p.names)
	return PlanFit{plan: p, coef: x, Baseline: x[k], Slope: x[k+1], Charging: x[k+2]}, nil
}

// ResidualRMS returns the root-mean-square misfit, in amperes, of the
// fit to vg, which must be the voltammogram it was fitted to. Fit does
// not compute it: the panels never read it.
func (f *PlanFit) ResidualRMS(vg *trace.XY) float64 {
	p, x := f.plan, f.coef
	k := len(p.names)
	var ss float64
	for r := 0; r < p.m; r++ {
		pred := f.Baseline + f.Slope*vg.X[r] + f.Charging*p.dir[r]
		for i := 0; i < k; i++ {
			pred += x[i] * p.cols[i][r]
		}
		for i := 0; i < p.nNui; i++ {
			pred += x[k+3+i] * p.cols[k+3+i][r]
		}
		d := vg.Y[r] - pred
		ss += d * d
	}
	return math.Sqrt(ss / float64(p.m))
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// templateCorrelation returns the normalized inner product of two
// template columns (1 = identical shape).
func templateCorrelation(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
