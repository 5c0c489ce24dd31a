package mathx

import (
	"math"
	"testing"
)

// denseFromBands builds the dense matrix for cross-checking against
// solveLinear.
func denseFromBands(lower, diag, upper []float64) [][]float64 {
	n := len(diag)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = diag[i]
		if i > 0 {
			a[i][i-1] = lower[i-1]
		}
		if i < n-1 {
			a[i][i+1] = upper[i]
		}
	}
	return a
}

func TestSolveTridiagMatchesDense(t *testing.T) {
	lower := []float64{-1, -0.5, -2, -1}
	diag := []float64{4, 5, 4.5, 6, 3}
	upper := []float64{-0.5, -1, -1.5, -0.25}
	rhs := []float64{1, -2, 3, 0.5, 7}

	got, err := SolveTridiag(lower, diag, upper, rhs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solveLinear(denseFromBands(lower, diag, upper), rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, dense solver says %g", i, got[i], want[i])
		}
	}
}

func TestSolveTridiagSingleUnknown(t *testing.T) {
	x, err := SolveTridiag(nil, []float64{2}, nil, []float64{6})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 {
		t.Fatalf("x = %g, want 3", x[0])
	}
}

func TestSolveTridiagDiffusionOperator(t *testing.T) {
	// A Crank–Nicolson-shaped operator (1+2r on the diagonal, −r off
	// it) applied to a known vector must be inverted exactly.
	const n, r = 64, 0.8
	lower := make([]float64, n-1)
	upper := make([]float64, n-1)
	diag := make([]float64, n)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 1 + 2*r
		want[i] = math.Sin(float64(i) / 3)
	}
	for i := 0; i < n-1; i++ {
		lower[i], upper[i] = -r, -r
	}
	// rhs = A·want.
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		rhs[i] = diag[i] * want[i]
		if i > 0 {
			rhs[i] += lower[i-1] * want[i-1]
		}
		if i < n-1 {
			rhs[i] += upper[i] * want[i+1]
		}
	}
	got, err := SolveTridiag(lower, diag, upper, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-11 {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestTridiagReuseAndInPlace(t *testing.T) {
	lower := []float64{-1, -1}
	diag := []float64{3, 3, 3}
	upper := []float64{-1, -1}
	tri, err := NewTridiag(lower, diag, upper)
	if err != nil {
		t.Fatal(err)
	}
	if tri.N() != 3 {
		t.Fatalf("N = %d, want 3", tri.N())
	}
	// Two sequential solves with different right-hand sides, the second
	// in place, must both match the one-shot solver.
	for _, rhs := range [][]float64{{1, 0, 0}, {2, -1, 5}} {
		want, err := SolveTridiag(lower, diag, upper, rhs)
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), rhs...)
		if err := tri.Solve(x, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-14 {
				t.Fatalf("in-place x[%d] = %g, want %g", i, x[i], want[i])
			}
		}
	}
}

func TestTridiagSolveAllocFree(t *testing.T) {
	n := 128
	lower := make([]float64, n-1)
	upper := make([]float64, n-1)
	diag := make([]float64, n)
	rhs := make([]float64, n)
	x := make([]float64, n)
	for i := range diag {
		diag[i] = 4
		rhs[i] = float64(i)
	}
	for i := range lower {
		lower[i], upper[i] = -1, -1
	}
	tri, err := NewTridiag(lower, diag, upper)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tri.Solve(rhs, x); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Tridiag.Solve allocates %.0f objects per call, want 0", allocs)
	}
}

func TestTridiagErrors(t *testing.T) {
	if _, err := NewTridiag(nil, nil, nil); err == nil {
		t.Fatal("empty system accepted")
	}
	if _, err := NewTridiag([]float64{1}, []float64{1, 1, 1}, []float64{1, 1}); err == nil {
		t.Fatal("band length mismatch accepted")
	}
	// Zero pivot (singular).
	if _, err := NewTridiag([]float64{1}, []float64{0, 1}, []float64{1}); err == nil {
		t.Fatal("zero leading pivot accepted")
	}
	if _, err := SolveTridiag([]float64{2}, []float64{1, 2}, []float64{1}, []float64{1, 1}); err == nil {
		t.Fatal("singular elimination accepted")
	}
	tri, err := NewTridiag([]float64{-1}, []float64{2, 2}, []float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tri.Solve([]float64{1}, []float64{0, 0}); err == nil {
		t.Fatal("rhs length mismatch accepted")
	}
}
