package analysis

import (
	"math"
	"testing"

	"advdiag/internal/phys"
	"advdiag/internal/trace"
)

// syntheticCV builds a full-cycle voltammogram: a cathodic branch from
// +0.1 V down to −0.6 V and back, with Gaussian reduction peaks (negative
// currents) plus a linear background and a direction-dependent charging
// offset.
func syntheticCV(peaks map[float64]float64, base, slope, charging float64) *trace.XY {
	vg := trace.NewXY("V", "A")
	add := func(e, dir float64) {
		y := base + slope*e + charging*dir
		for center, height := range peaks {
			x := (e - center) / 0.05
			y -= height * math.Exp(-x*x)
		}
		vg.Append(e, y)
	}
	for e := 0.1; e >= -0.6; e -= 0.002 {
		add(e, -1)
	}
	for e := -0.598; e <= 0.1; e += 0.002 {
		add(e, +1)
	}
	return vg
}

func TestForwardBranch(t *testing.T) {
	vg := syntheticCV(map[float64]float64{-0.25: 1e-9}, 0, 0, 0)
	n, err := forwardBranchLen(vg)
	if err != nil {
		t.Fatal(err)
	}
	pot := vg.X[:n]
	// Forward branch runs downhill in potential.
	for i := 1; i < len(pot); i++ {
		if pot[i] > pot[i-1] {
			t.Fatal("forward branch must be monotonically decreasing")
		}
	}
	if pot[0] < 0.09 || pot[len(pot)-1] > -0.59 {
		t.Fatalf("branch bounds [%g, %g]", pot[0], pot[len(pot)-1])
	}
	if n < vg.Len() && vg.X[n] < vg.X[n-1] {
		t.Fatalf("branch stops at sample %d of %d while the potential still falls", n, vg.Len())
	}
}

func TestFindReductionPeaksSingle(t *testing.T) {
	vg := syntheticCV(map[float64]float64{-0.25: 2e-9}, -1e-10, 2e-10, 5e-10)
	pk, err := PeakNear(vg, phys.MilliVolts(-250), phys.MilliVolts(80))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pk.Potential.MilliVolts()-(-250)) > 5 {
		t.Fatalf("peak at %g mV", pk.Potential.MilliVolts())
	}
	if math.Abs(float64(pk.Height)-2e-9)/2e-9 > 0.15 {
		t.Fatalf("height %g, want ≈2 nA", float64(pk.Height))
	}
}

// TestFindReductionPeaksTwo: on a branch with two reduction peaks,
// PeakNear finds each near its own potential.
func TestFindReductionPeaksTwo(t *testing.T) {
	vg := syntheticCV(map[float64]float64{-0.25: 1e-9, -0.4: 3e-9}, 0, 1e-10, 2e-10)
	for _, want := range []float64{-250, -400} {
		pk, err := PeakNear(vg, phys.MilliVolts(want), phys.MilliVolts(40))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pk.Potential.MilliVolts()-want) > 10 {
			t.Fatalf("peak near %g mV found at %g mV", want, pk.Potential.MilliVolts())
		}
	}
}

func TestPeakNear(t *testing.T) {
	vg := syntheticCV(map[float64]float64{-0.25: 1e-9, -0.4: 3e-9}, 0, 0, 0)
	pk, err := PeakNear(vg, phys.MilliVolts(-250), phys.MilliVolts(80))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pk.Potential.MilliVolts()-(-250)) > 10 {
		t.Fatalf("nearest peak at %g mV", pk.Potential.MilliVolts())
	}
	if _, err := PeakNear(vg, phys.MilliVolts(-600), phys.MilliVolts(40)); err == nil {
		t.Fatal("no peak near −600 mV: must fail")
	}
}

func TestFitCVComponentsRecoversAmplitudes(t *testing.T) {
	// Templates = two unit Gaussians; measured = 2×A + 0.5×B + affine
	// background + charging square wave. The fit must recover 2 and 0.5.
	mkTpl := func(center float64) []float64 {
		var out []float64
		for e := 0.1; e >= -0.6; e -= 0.002 {
			x := (e - center) / 0.05
			out = append(out, -math.Exp(-x*x))
		}
		for e := -0.598; e <= 0.1; e += 0.002 {
			x := (e - center) / 0.05
			out = append(out, -math.Exp(-x*x))
		}
		return out
	}
	tplA := mkTpl(-0.25)
	tplB := mkTpl(-0.45)
	vg := trace.NewXY("V", "A")
	i := 0
	appendPoint := func(e, dir float64) {
		y := 1e-10 + 2e-10*e + 3e-10*dir + 2*tplA[i] + 0.5*tplB[i]
		vg.Append(e, y)
		i++
	}
	for e := 0.1; e >= -0.6; e -= 0.002 {
		appendPoint(e, -1)
	}
	for e := -0.598; e <= 0.1; e += 0.002 {
		appendPoint(e, +1)
	}
	fit, err := FitCVComponents(vg, map[string][]float64{"a": tplA, "b": tplB})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Amplitudes["a"]-2) > 0.01 {
		t.Fatalf("amp a = %g, want 2", fit.Amplitudes["a"])
	}
	if math.Abs(fit.Amplitudes["b"]-0.5) > 0.01 {
		t.Fatalf("amp b = %g, want 0.5", fit.Amplitudes["b"])
	}
	if math.Abs(fit.Charging-3e-10) > 1e-11 {
		t.Fatalf("charging = %g, want 3e-10", fit.Charging)
	}
	if fit.ResidualRMS > 1e-12 {
		t.Fatalf("residual %g on exact synthesis", fit.ResidualRMS)
	}
}

func TestFitCVComponentsShoulder(t *testing.T) {
	// The dual-target scenario: a small peak riding a 40× larger
	// neighbour 150 mV away. Plain peak detection loses it; the
	// template fit must still recover the amplitude within a few %.
	mkTpl := func(center float64) []float64 {
		var out []float64
		for e := 0.1; e >= -0.6; e -= 0.002 {
			x := (e - center) / 0.08
			out = append(out, -math.Exp(-x*x))
		}
		for e := -0.598; e <= 0.1; e += 0.002 {
			out = append(out, 0) // no return-branch response (simplified)
		}
		return out
	}
	small := mkTpl(-0.25)
	big := mkTpl(-0.40)
	vg := trace.NewXY("V", "A")
	i := 0
	for e := 0.1; e >= -0.6; e -= 0.002 {
		vg.Append(e, 0.05*small[i]+2.0*big[i])
		i++
	}
	for e := -0.598; e <= 0.1; e += 0.002 {
		vg.Append(e, 0)
		i++
	}
	fit, err := FitCVComponents(vg, map[string][]float64{"small": small, "big": big})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Amplitudes["small"]-0.05)/0.05 > 0.02 {
		t.Fatalf("small amplitude %g, want 0.05", fit.Amplitudes["small"])
	}
	if math.Abs(fit.Amplitudes["big"]-2)/2 > 0.02 {
		t.Fatalf("big amplitude %g, want 2", fit.Amplitudes["big"])
	}
}

func TestFitCVComponentsClampsNegative(t *testing.T) {
	tpl := make([]float64, 100)
	for i := range tpl {
		x := (float64(i) - 50) / 10
		tpl[i] = -math.Exp(-x * x)
	}
	vg := trace.NewXY("V", "A")
	for i := range tpl {
		vg.Append(float64(i), -0.3*tpl[i]) // negative amplitude scenario
	}
	fit, err := FitCVComponents(vg, map[string][]float64{"x": tpl})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Amplitudes["x"] != 0 {
		t.Fatalf("negative amplitude must clamp to 0, got %g", fit.Amplitudes["x"])
	}
}

func TestFitCVComponentsSkipsZeroTemplates(t *testing.T) {
	tpl := make([]float64, 100)
	zero := make([]float64, 100)
	for i := range tpl {
		x := (float64(i) - 50) / 10
		tpl[i] = -math.Exp(-x * x)
	}
	vg := trace.NewXY("V", "A")
	for i := range tpl {
		vg.Append(float64(i), 1.5*tpl[i])
	}
	fit, err := FitCVComponents(vg, map[string][]float64{"x": tpl, "absent": zero})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Amplitudes["absent"] != 0 {
		t.Fatal("zero template must report zero amplitude")
	}
	if math.Abs(fit.Amplitudes["x"]-1.5) > 0.01 {
		t.Fatalf("amp %g", fit.Amplitudes["x"])
	}
}

func TestGaussianColumn(t *testing.T) {
	xs := []float64{-0.1, 0, 0.1}
	col := GaussianColumn(xs, 0, 0.1)
	if col[1] != 1 {
		t.Fatal("centre must be 1")
	}
	if math.Abs(col[0]-math.Exp(-1)) > 1e-12 || col[0] != col[2] {
		t.Fatalf("wings: %v", col)
	}
}
