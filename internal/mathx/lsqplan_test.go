package mathx

import (
	"math"
	"testing"
)

// solveLinear solves A·x = b by Gaussian elimination with partial
// pivoting. A is modified in place (pass a copy to preserve it); b is
// not modified. It is the dense reference for LSQPlan's recorded
// eliminations and for SolveTridiag.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, ErrSingular
	}
	for i := range a {
		if len(a[i]) != n {
			return nil, ErrSingular
		}
	}
	rhs := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for c := i + 1; c < n; c++ {
			s -= a[i][c] * x[c]
		}
		x[i] = s / a[i][i]
	}
	return x, nil
}

// leastSquares solves min ‖D·x − y‖² via the normal equations DᵀD·x =
// Dᵀy in one pass: normalize, square, ridge, eliminate, back-substitute.
// D is given column-wise: cols[k][i] is row i of column k. All columns
// must have len(y) rows. It is the oracle LSQPlan is held to bit for
// bit (TestLSQPlanMatchesReference).
func leastSquares(cols [][]float64, y []float64) ([]float64, error) {
	k := len(cols)
	if k == 0 {
		return nil, ErrSingular
	}
	m := len(y)
	for _, c := range cols {
		if len(c) != m {
			return nil, ErrSingular
		}
	}
	// Columns can differ by many orders of magnitude (ampere-scale
	// templates next to a constant-one background column), so normalize
	// each to unit RMS before forming the normal equations.
	scale := make([]float64, k)
	norm := make([][]float64, k)
	for i, c := range cols {
		s := RMS(c)
		if s == 0 {
			s = 1
		}
		scale[i] = s
		nc := make([]float64, m)
		for r := range c {
			nc[r] = c[r] / s
		}
		norm[i] = nc
	}
	ata := make([][]float64, k)
	atb := make([]float64, k)
	for i := 0; i < k; i++ {
		ata[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			s := 0.0
			for r := 0; r < m; r++ {
				s += norm[i][r] * norm[j][r]
			}
			ata[i][j] = s
		}
		s := 0.0
		for r := 0; r < m; r++ {
			s += norm[i][r] * y[r]
		}
		atb[i] = s
	}
	// A whisper of Tikhonov regularization keeps nearly collinear
	// columns (e.g. two CV templates with coincident peak potentials)
	// from blowing up the solve. It must stay tiny: the ridge couples
	// components, and fitted amplitudes can span nine orders of
	// magnitude across columns.
	for i := 0; i < k; i++ {
		ata[i][i] += 1e-12 * float64(m)
	}
	x, err := solveLinear(ata, atb)
	if err != nil {
		return nil, err
	}
	for i := range x {
		x[i] /= scale[i]
	}
	return x, nil
}

// TestLSQPlanMatchesReference holds NewLSQPlan + Solve to the one-pass
// normal-equation solver bit for bit: every coefficient's float bits
// (any NaN matching any NaN) and every ErrSingular. The designs span
// 1–10 columns whose scales run from 1e-12 to 1e3, with all-zero and
// duplicated columns among them, plus the shapes that have no solution:
// no columns, no rows, a column or y of the wrong length.
func TestLSQPlanMatchesReference(t *testing.T) {
	rng := NewRNG(20261019)
	scales := []float64{1e-12, 1e-9, 1e-6, 1e-3, 1, 1e3}
	const cases = 4000
	var singular, solved int
	for c := 0; c < cases; c++ {
		k := 1 + int(rng.Float64()*10)
		m := 1 + int(rng.Float64()*60)
		shape := rng.Float64()
		switch {
		case shape < 0.01: // no columns
			k = 0
		case shape < 0.02: // no rows: the ridge vanishes with m
			m = 0
		}
		cols := make([][]float64, k)
		for j := range cols {
			switch r := rng.Float64(); {
			case j > 0 && r < 0.1: // an exact duplicate of an earlier column
				cols[j] = cols[int(rng.Float64()*float64(j))]
			case r < 0.15: // an all-zero column
				cols[j] = make([]float64, m)
			default:
				s := scales[int(rng.Float64()*float64(len(scales)))]
				col := make([]float64, m)
				for i := range col {
					col[i] = s * rng.Norm()
				}
				cols[j] = col
			}
		}
		if shape >= 0.02 && shape < 0.04 && k > 0 { // one column of the wrong length
			j := int(rng.Float64() * float64(k))
			cols[j] = append(append([]float64(nil), cols[j]...), 1)
		}
		ny := m
		if shape >= 0.04 && shape < 0.06 { // y of the wrong length
			ny = m + 1
		}
		y := make([]float64, ny)
		for i := range y {
			y[i] = scales[int(rng.Float64()*float64(len(scales)))] * rng.Norm()
		}
		want, wantErr := leastSquares(cols, y)
		var got []float64
		plan, gotErr := NewLSQPlan(cols)
		if gotErr == nil {
			got, gotErr = plan.Solve(y, nil, nil)
		}
		if gotErr != wantErr {
			t.Fatalf("case %d (k=%d m=%d): plan error %v, reference error %v", c, k, m, gotErr, wantErr)
		}
		if wantErr != nil {
			singular++
			continue
		}
		solved++
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("case %d (k=%d m=%d): x[%d] = %v (%016x), reference %v (%016x)",
					c, k, m, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	if singular == 0 || solved < cases/2 {
		t.Fatalf("design mix hit %d singular and %d solved cases; want both kinds", singular, solved)
	}
}

// projectReference is the one-column-per-sweep Dᵀy assembly Solve
// used before project took four columns per sweep of y: each column's
// sum runs s += n[r]*y[r] in row order from 0.
func projectReference(p *LSQPlan, y, rhs []float64) {
	for i := 0; i < p.k; i++ {
		s := 0.0
		ni := p.norm[i]
		for r := 0; r < p.m; r++ {
			s += ni[r] * y[r]
		}
		rhs[i] = s
	}
}

// TestLSQPlanSolveMatchesReference holds project, the Dᵀy assembly of
// Solve (the rest of Solve replays recorded operations on its output),
// to projectReference bit for bit on random plans of k = 1…12 columns (every remainder of the four-column
// sweep) with observations that include ±0, ±Inf, NaN and values whose
// products overflow.
func TestLSQPlanSolveMatchesReference(t *testing.T) {
	rng := NewRNG(30)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, 5e-324}
	cases := 3000
	if testing.Short() {
		cases = 300
	}
	for c := 0; c < cases; c++ {
		k := 1 + c%12
		m := k + int(rng.Float64()*80)
		cols := make([][]float64, k)
		for j := range cols {
			col := make([]float64, m)
			s := math.Pow(10, -12+15*rng.Float64())
			for i := range col {
				col[i] = s * rng.Norm()
			}
			cols[j] = col
		}
		plan, err := NewLSQPlan(cols)
		if err != nil {
			continue
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = math.Pow(10, -12+15*rng.Float64()) * rng.Norm()
			if c%5 == 0 && rng.Float64() < 0.05 {
				y[i] = special[int(rng.Float64()*float64(len(special)))]
			}
		}
		got, want := make([]float64, k), make([]float64, k)
		plan.project(y, got)
		projectReference(plan, y, want)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("case %d (k=%d m=%d): Dᵀy[%d] = %v (%016x), reference %v (%016x)",
					c, k, m, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}
