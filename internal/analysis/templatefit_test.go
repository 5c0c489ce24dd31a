package analysis

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"advdiag/internal/mathx"
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

// FitCVComponents decomposes a measured voltammogram into the given
// unit-concentration templates plus an affine background, a sweep-
// direction (charging) term, and any number of known-shape nuisance
// columns (film backgrounds), by linear least squares. The voltammogram
// and templates must share the same potential grid (both produced from
// the same protocol).
//
// This is the quantification path for multi-target electrodes: simple
// peak detection fails when a small peak rides the foot of a large
// neighbouring wave (it becomes a shoulder), while the template
// decomposition recovers both amplitudes exactly in the noise-free
// limit.
//
// It is a one-shot FitPlan: the plan built on the voltammogram's own
// grid, fitted once, with its lookups spelled out as maps. Production
// fits run a cached plan (runtime.CVCalib); this shell keeps the
// fit-behaviour tests of voltammetry_test.go and the one-pass oracle
// below on the plan they pin.
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
		ResidualRMS: pf.ResidualRMS(vg),
	}
	if fit.Aliased == nil {
		fit.Aliased = map[string][]string{}
	}
	for name := range plan.colOf {
		fit.Amplitudes[name] = pf.Amplitude(name)
	}
	return fit, nil
}

// referenceFitCVComponents is the one-shot template fit FitPlan
// replaced, kept as the bit-identity oracle for FitCVComponents: the
// same validation, zero-template skip, name order, alias clustering,
// column order and residual, written out in one pass. Its least-squares
// solve goes through mathx.LSQPlan, which mathx's
// TestLSQPlanMatchesReference holds bit for bit to the one-pass
// normal-equation solver this body used to call.
func referenceFitCVComponents(vg *trace.XY, templates map[string][]float64, nuisances ...[]float64) (*ComponentFit, error) {
	if err := vg.Validate(); err != nil {
		return nil, err
	}
	m := vg.Len()
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
	sort.Strings(names)

	aliased := map[string][]string{}
	var reps []string
	repOf := map[string]string{}
	for _, name := range names {
		assigned := false
		for _, rep := range reps {
			if referenceCorrelation(templates[name], templates[rep]) > 0.99 {
				repOf[name] = rep
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

	cols := make([][]float64, 0, len(names)+3)
	for _, name := range names {
		cols = append(cols, templates[name])
	}
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	dir := make([]float64, m)
	for i := 1; i < m; i++ {
		if vg.X[i] < vg.X[i-1] {
			dir[i] = -1
		} else if vg.X[i] > vg.X[i-1] {
			dir[i] = 1
		} else {
			dir[i] = dir[i-1]
		}
	}
	if m > 1 {
		dir[0] = dir[1]
	}
	cols = append(cols, ones, vg.X, dir)
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
	x, err := lsq.Solve(vg.Y, nil, nil)
	if err != nil {
		return nil, err
	}
	fit := &ComponentFit{
		Amplitudes: make(map[string]float64, len(repOf)+len(skipped)),
		Aliased:    aliased,
	}
	repAmp := map[string]float64{}
	for i, name := range names {
		amp := x[i]
		if amp < 0 {
			amp = 0
		}
		repAmp[name] = amp
	}
	for name, rep := range repOf {
		fit.Amplitudes[name] = repAmp[rep]
	}
	for _, name := range skipped {
		fit.Amplitudes[name] = 0
	}
	fit.Baseline = x[len(names)]
	fit.Slope = x[len(names)+1]
	fit.Charging = x[len(names)+2]

	var ss float64
	for r := 0; r < m; r++ {
		pred := fit.Baseline + fit.Slope*vg.X[r] + fit.Charging*dir[r]
		for i, name := range names {
			pred += x[i] * templates[name][r]
		}
		for i := range nuisances {
			pred += x[len(names)+3+i] * nuisances[i][r]
		}
		d := vg.Y[r] - pred
		ss += d * d
	}
	fit.ResidualRMS = math.Sqrt(ss / float64(m))
	return fit, nil
}

// referenceCorrelation is the reference's normalized inner product of
// two template columns.
func referenceCorrelation(a, b []float64) float64 {
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

// sameFloat reports whether two floats have the same bits, any NaN
// matching any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// boundaryPair returns two m-sample templates whose correlation is
// exactly 0.99, the alias threshold, which does not alias them.
func boundaryPair(t *testing.T, m int) (a, b []float64) {
	a, b = make([]float64, m), make([]float64, m)
	a[0], b[0] = 1, 0.99
	s := math.Sqrt(1 - 0.99*0.99)
	for range 64 {
		b[1] = s
		if referenceCorrelation(a, b) == 0.99 {
			return a, b
		}
		s = math.Nextafter(s, 1)
	}
	t.Fatal("no template pair with correlation exactly 0.99")
	return nil, nil
}

// randomFitCase draws one voltammogram, template set and nuisance list.
// It mixes the shapes the fit must treat the same way on every path:
// Gaussian peaks at ampere scales, all-zero and sub-1e-15 templates,
// near-aliased templates (correlation around and above 0.99), exact
// and scaled duplicates, a pair exactly at the 0.99 threshold, noise
// columns, NaN samples, and the inputs that must fail — m < 8, an
// X/Y length mismatch, and one template or nuisance column of the wrong
// length.
func randomFitCase(t *testing.T, rng *rand.Rand) (*trace.XY, map[string][]float64, [][]float64) {
	m := 8 + rng.IntN(193)
	if rng.IntN(30) == 0 {
		m = rng.IntN(8)
	}
	vg := trace.NewXY("V", "A")
	start, vertex := 0.1+0.2*rng.Float64(), -0.3-0.6*rng.Float64()
	turn := m / 2
	if rng.IntN(8) == 0 {
		turn = rng.IntN(m + 1)
	}
	for i := 0; i < m; i++ {
		var e float64
		if i <= turn {
			e = start + (vertex-start)*float64(i)/float64(max(turn, 1))
		} else {
			e = vertex + (start-vertex)*float64(i-turn)/float64(max(m-1-turn, 1))
		}
		if i > 0 && rng.IntN(20) == 0 {
			e = vg.X[i-1] // a flat step: the sweep direction carries over
		}
		vg.Append(e, 0)
	}

	scale := math.Pow(10, -10+4*rng.Float64())
	gauss := func() []float64 {
		c, w := vertex+(start-vertex)*rng.Float64(), 0.02+0.1*rng.Float64()
		return GaussianColumn(vg.X, c, w)
	}
	nT := 1 + rng.IntN(5)
	templates := make(map[string][]float64, nT+2)
	var made [][]float64
	for k := 0; k < nT; k++ {
		var tpl []float64
		switch kind := rng.IntN(12); {
		case kind == 0:
			tpl = make([]float64, m)
		case kind == 1: // below the skip threshold
			tpl = gauss()
			for i := range tpl {
				tpl[i] *= 1e-16
			}
		case kind <= 3 && len(made) > 0: // near-alias of an earlier template
			src := made[rng.IntN(len(made))]
			eps := math.Pow(10, -3+2*rng.Float64())
			tpl = make([]float64, m)
			for i := range tpl {
				tpl[i] = src[i] + eps*mathx.MaxAbs(src)*rng.NormFloat64()
			}
		case kind == 4 && len(made) > 0: // exact duplicate
			tpl = made[rng.IntN(len(made))]
		case kind == 5 && len(made) > 0: // scaled duplicate, aliased or anti-correlated
			src := made[rng.IntN(len(made))]
			f := 3.0
			if rng.IntN(2) == 0 {
				f = -3
			}
			tpl = make([]float64, m)
			for i := range tpl {
				tpl[i] = f * src[i]
			}
		case kind == 6:
			tpl = make([]float64, m)
			for i := range tpl {
				tpl[i] = scale * rng.NormFloat64()
			}
		default:
			tpl = gauss()
			for i := range tpl {
				tpl[i] *= -scale
			}
		}
		made = append(made, tpl)
		templates[fmt.Sprintf("s%d", rng.IntN(10))] = tpl
	}
	if m >= 2 && rng.IntN(40) == 0 {
		a, b := boundaryPair(t, m)
		templates["edge_a"], templates["edge_b"] = a, b
	}

	var nuisances [][]float64
	for range rng.IntN(3) {
		nu := gauss()
		if rng.IntN(4) == 0 {
			for i := range nu {
				nu[i] = rng.NormFloat64()
			}
		}
		nuisances = append(nuisances, nu)
	}

	for i := range vg.Y {
		y := scale * (rng.NormFloat64() + 3*vg.X[i])
		for _, tpl := range made {
			y += 2 * rng.Float64() * tpl[i]
		}
		vg.Y[i] = y
	}
	switch rng.IntN(60) {
	case 0:
		vg.Y = vg.Y[:m-min(m, 1)] // X/Y length mismatch when m > 0
	case 1:
		if len(vg.Y) > 0 {
			vg.Y[rng.IntN(len(vg.Y))] = math.NaN()
		}
	case 2:
		name := slices.Sorted(maps.Keys(templates))[0]
		templates[name] = append(slices.Clone(templates[name]), 0)
	case 3:
		if len(nuisances) > 0 {
			nuisances[0] = nuisances[0][:len(nuisances[0])-min(len(nuisances[0]), 1)]
		}
	}
	return vg, templates, nuisances
}

// TestFitCVComponentsMatchesReference holds FitCVComponents, a shell
// over FitPlan, to the one-pass reference bit for bit on random
// voltammograms: every amplitude, the alias clusters (nil-ness
// included), the background terms, the residual, and the presence and
// text of every error.
func TestFitCVComponentsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 1019))
	const cases = 12000
	var fitted, failed, aliasedFits, skippedFits, edgeFits int
	for c := 0; c < cases; c++ {
		vg, templates, nuisances := randomFitCase(t, rng)
		want, wantErr := referenceFitCVComponents(vg, templates, nuisances...)
		got, gotErr := FitCVComponents(vg, templates, nuisances...)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("case %d: error %v, reference error %v", c, gotErr, wantErr)
		}
		if wantErr != nil {
			failed++
			continue
		}
		fitted++
		if len(want.Aliased) > 0 {
			aliasedFits++
		}
		for _, tpl := range templates {
			if mathx.MaxAbs(tpl) < 1e-15 {
				skippedFits++
				break
			}
		}
		if _, ok := templates["edge_a"]; ok {
			edgeFits++
		}
		if len(got.Amplitudes) != len(want.Amplitudes) {
			t.Fatalf("case %d: %d amplitudes, reference %d", c, len(got.Amplitudes), len(want.Amplitudes))
		}
		for name, w := range want.Amplitudes {
			g, ok := got.Amplitudes[name]
			if !ok || !sameFloat(g, w) {
				t.Fatalf("case %d: amplitude %s = %v (present %t), reference %v", c, name, g, ok, w)
			}
		}
		if (got.Aliased == nil) != (want.Aliased == nil) || len(got.Aliased) != len(want.Aliased) {
			t.Fatalf("case %d: aliases %#v, reference %#v", c, got.Aliased, want.Aliased)
		}
		for name, w := range want.Aliased {
			if !slices.Equal(got.Aliased[name], w) {
				t.Fatalf("case %d: aliases of %s %v, reference %v", c, name, got.Aliased[name], w)
			}
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"Baseline", got.Baseline, want.Baseline},
			{"Slope", got.Slope, want.Slope},
			{"Charging", got.Charging, want.Charging},
			{"ResidualRMS", got.ResidualRMS, want.ResidualRMS},
		} {
			if !sameFloat(f.got, f.want) {
				t.Fatalf("case %d: %s = %v, reference %v", c, f.name, f.got, f.want)
			}
		}
	}
	t.Logf("case mix: %d fitted (%d with aliases, %d with skipped templates, %d at the alias threshold), %d failed",
		fitted, aliasedFits, skippedFits, edgeFits, failed)
	if fitted < cases/2 || failed == 0 || aliasedFits == 0 || skippedFits == 0 || edgeFits == 0 {
		t.Fatalf("case mix: %d fitted (%d with aliases, %d with skipped templates, %d at the alias threshold), %d failed",
			fitted, aliasedFits, skippedFits, edgeFits, failed)
	}
}
