package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisect(t *testing.T) {
	got, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-10)
	if err != nil || math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Fatalf("Bisect sqrt2 = %.12f (err %v)", got, err)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	got, err := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-10)
	if err != nil || got != 0 {
		t.Fatalf("endpoint root: %g, %v", got, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-10); err != ErrNoRoot {
		t.Fatal("no sign change must be ErrNoRoot")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestTrapezoid(t *testing.T) {
	// ∫0..1 x dx = 0.5 exactly for the trapezoid rule on a line.
	xs := []float64{0, 0.25, 0.5, 0.75, 1}
	ys := append([]float64(nil), xs...)
	if got := Trapezoid(xs, ys); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Trapezoid = %g, want 0.5", got)
	}
	if Trapezoid(xs[:1], ys[:1]) != 0 {
		t.Error("single point integrates to 0")
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solution %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := solveLinear(a, []float64{1, 2}); err != ErrSingular {
		t.Fatal("singular system must fail")
	}
}

func TestSolveLinearNeedsPivot(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := solveLinear(a, []float64{3, 7})
	if err != nil || x[0] != 7 || x[1] != 3 {
		t.Fatalf("pivoted solve: %v, %v", x, err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 2·c0 + 3·c1 with orthogonal columns.
	c0 := []float64{1, 0, 1, 0}
	c1 := []float64{0, 1, 0, 1}
	y := []float64{2, 3, 2, 3}
	x, err := lsqSolve([][]float64{c0, c1}, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-6 || math.Abs(x[1]-3) > 1e-6 {
		t.Fatalf("LS solution %v", x)
	}
}

func TestLeastSquaresScaleInvariance(t *testing.T) {
	// Wildly different column scales must not break the solve (the
	// template-fit regression scenario).
	n := 50
	c0 := make([]float64, n)
	c1 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c0[i] = 1e-9 * math.Sin(float64(i))
		c1[i] = 1.0
		y[i] = 4e-9*math.Sin(float64(i)) + 2.0
	}
	x, err := lsqSolve([][]float64{c0, c1}, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-3 || math.Abs(x[1]-2) > 1e-6 {
		t.Fatalf("scale-mixed LS solution %v, want [4 2]", x)
	}
}

// Property: ApproxEqual is symmetric.
func TestApproxEqualSymmetryProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return ApproxEqual(a, b, 1e-6, 1e-9) == ApproxEqual(b, a, 1e-6, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// lsqSolve factors cols into an LSQPlan and solves it for y.
func lsqSolve(cols [][]float64, y []float64) ([]float64, error) {
	plan, err := NewLSQPlan(cols)
	if err != nil {
		return nil, err
	}
	return plan.Solve(y, nil, nil)
}
