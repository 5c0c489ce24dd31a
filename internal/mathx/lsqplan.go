package mathx

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular linear system")

// elimOp is one recorded row elimination: row r of the augmented system
// gets rhs[r] -= f·rhs[col] during the replay.
type elimOp struct {
	row int
	f   float64
}

// LSQPlan is a prefactored least-squares problem min ‖D·x − y‖²: the
// design matrix D, each column normalized to unit RMS, squared into the
// normal equations DᵀD, stabilized by a 1e-12·m ridge on the diagonal
// and reduced by Gaussian elimination with partial pivoting once, so
// repeated solves against new observation vectors y cost only the Dᵀy
// assembly and a replay of the recorded row operations (same pivots,
// same multipliers, same order) on the right-hand side.
// TestLSQPlanMatchesReference holds Solve bit for bit to the one-pass
// solver that eliminates the augmented system directly.
//
// The normalized columns, the factored normal matrix and the recorded
// eliminations live in flat backings (row views sliced out of one
// allocation each) because every calibrated electrode builds a plan.
//
// A plan is immutable after construction and safe for concurrent
// Solve calls when each caller passes its own scratch.
type LSQPlan struct {
	k, m    int
	scale   []float64
	norm    [][]float64 // k row views over one k*m backing
	pivots  []int       // column → pivot row swapped in at that step
	elims   []elimOp    // recorded eliminations, grouped by column
	elimOff []int       // column → offset of its group in elims
	upper   [][]float64 // the final upper-triangular factor (k*k backing)
}

// NewLSQPlan factors the design matrix given column-wise (cols[k][i] is
// row i of column k).
func NewLSQPlan(cols [][]float64) (*LSQPlan, error) {
	k := len(cols)
	if k == 0 {
		return nil, ErrSingular
	}
	m := len(cols[0])
	for _, c := range cols {
		if len(c) != m {
			return nil, ErrSingular
		}
	}
	p := &LSQPlan{k: k, m: m}
	p.scale = make([]float64, k)
	p.norm = make([][]float64, k)
	normBack := make([]float64, k*m)
	for i, c := range cols {
		s := RMS(c)
		if s == 0 {
			s = 1
		}
		p.scale[i] = s
		nc := normBack[i*m : (i+1)*m : (i+1)*m]
		for r := range c {
			nc[r] = c[r] / s
		}
		p.norm[i] = nc
	}
	ata := make([][]float64, k)
	ataBack := make([]float64, k*k)
	for i := 0; i < k; i++ {
		ata[i] = ataBack[i*k : (i+1)*k : (i+1)*k]
		for j := 0; j < k; j++ {
			s := 0.0
			for r := 0; r < m; r++ {
				s += p.norm[i][r] * p.norm[j][r]
			}
			ata[i][j] = s
		}
	}
	// A whisper of Tikhonov regularization keeps nearly collinear
	// columns (e.g. two CV templates with coincident peak potentials)
	// from blowing up the solve. It must stay tiny: the ridge couples
	// components, and fitted amplitudes can span nine orders of
	// magnitude across columns.
	for i := 0; i < k; i++ {
		ata[i][i] += 1e-12 * float64(m)
	}
	// Factor, recording the pivot swaps and elimination multipliers in
	// the order Solve replays them on the right-hand side. Row swaps
	// exchange the row views; the backing stays put.
	p.pivots = make([]int, k)
	p.elims = make([]elimOp, 0, k*(k-1)/2)
	p.elimOff = make([]int, k+1)
	for col := 0; col < k; col++ {
		pivot := col
		best := math.Abs(ata[col][col])
		for r := col + 1; r < k; r++ {
			if v := math.Abs(ata[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return nil, ErrSingular
		}
		ata[col], ata[pivot] = ata[pivot], ata[col]
		p.pivots[col] = pivot
		for r := col + 1; r < k; r++ {
			f := ata[r][col] / ata[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				ata[r][c] -= f * ata[col][c]
			}
			p.elims = append(p.elims, elimOp{row: r, f: f})
		}
		p.elimOff[col+1] = len(p.elims)
	}
	p.upper = ata
	return p, nil
}

// K reports the number of fitted columns; M the number of rows.
func (p *LSQPlan) K() int { return p.k }

// M reports the number of rows each observation vector must have.
func (p *LSQPlan) M() int { return p.m }

// Solve computes the least-squares coefficients for observation y. rhs and
// x are optional scratch slices (grown as needed); the returned slice
// aliases x's backing array when it is large enough, so a zero-alloc
// caller passes two reusable k-length buffers.
func (p *LSQPlan) Solve(y []float64, rhs, x []float64) ([]float64, error) {
	if len(y) != p.m {
		return nil, ErrSingular
	}
	if cap(rhs) < p.k {
		rhs = make([]float64, p.k)
	}
	rhs = rhs[:p.k]
	p.project(y, rhs)
	// Replay the recorded row operations on the right-hand side.
	for col := 0; col < p.k; col++ {
		if pv := p.pivots[col]; pv != col {
			rhs[col], rhs[pv] = rhs[pv], rhs[col]
		}
		for _, op := range p.elims[p.elimOff[col]:p.elimOff[col+1]] {
			rhs[op.row] -= op.f * rhs[col]
		}
	}
	if cap(x) < p.k {
		x = make([]float64, p.k)
	}
	x = x[:p.k]
	for i := p.k - 1; i >= 0; i-- {
		s := rhs[i]
		for c := i + 1; c < p.k; c++ {
			s -= p.upper[i][c] * x[c]
		}
		x[i] = s / p.upper[i][i]
	}
	for i := range x {
		x[i] /= p.scale[i]
	}
	return x, nil
}

// project writes Dᵀy, over the normalized columns, into rhs. One sweep
// of y feeds four columns, each into its own accumulator; every sum
// still runs s += n[r]*y[r] over the rows in order from 0, so each
// entry keeps the bits of a one-column loop (TestLSQPlanSolveMatchesReference),
// on architectures that fuse the multiply-add too.
func (p *LSQPlan) project(y, rhs []float64) {
	y = y[:p.m]
	i := 0
	for ; i+4 <= p.k; i += 4 {
		n0, n1, n2, n3 := p.norm[i][:len(y)], p.norm[i+1][:len(y)], p.norm[i+2][:len(y)], p.norm[i+3][:len(y)]
		var s0, s1, s2, s3 float64
		for r, yr := range y {
			s0 += n0[r] * yr
			s1 += n1[r] * yr
			s2 += n2[r] * yr
			s3 += n3[r] * yr
		}
		rhs[i], rhs[i+1], rhs[i+2], rhs[i+3] = s0, s1, s2, s3
	}
	for ; i < p.k; i++ {
		ni := p.norm[i][:len(y)]
		s := 0.0
		for r, yr := range y {
			s += ni[r] * yr
		}
		rhs[i] = s
	}
}
