// Package diffusion implements the one-dimensional finite-difference
// solution of Fick's second law that underlies the cyclic-voltammetry
// simulator: a planar semi-infinite diffusion field for a redox couple
// O/R with Butler–Volmer kinetics at the electrode boundary.
//
// The solver uses an unconditionally stable Crank–Nicolson scheme on an
// exponentially graded mesh (fine at the electrode where the diffusion
// layer lives, coarse toward the bulk), advanced by ONE implicit step
// per external sample instead of the stack of stability-bound explicit
// substeps the classic Bard & Faulkner appendix-B scheme needs. The
// implicit system is tridiagonal; because its coefficients are fixed at
// construction, the Thomas elimination (see mathx.SolveTridiag for the
// generic form) is prefactored once, leaving each Step a single O(n)
// sweep with zero allocations. The first external step is taken as two
// backward-Euler half-steps (Rannacher smoothing) so the potential
// step's stiff startup transient is damped instead of ringing through
// the Crank–Nicolson weights.
//
// The solver is validated in its tests against the two analytic results
// the textbook provides: the Cottrell transient after a potential step
// and the Randles–Ševčík peak current under a linear sweep.
package diffusion

import (
	"fmt"
	"math"

	"advdiag/internal/echem"
	"advdiag/internal/phys"
)

// gridGamma is the mesh expansion ratio: spacing i is h0·gridGamma^i.
// 1.1 is the customary electrochemical-simulation choice — fine enough
// that the graded mesh matches a uniform mesh several times its size.
const gridGamma = 1.1

// minCells and maxCells bound the spatial resolution. The floor keeps
// coarse long-experiment grids honest; the ceiling guards degenerate
// configurations (e.g. microsecond sampling of hour-long experiments)
// from exploding the mesh.
const (
	minCells = 32
	maxCells = 2048
)

// surfaceCellFraction sets the target surface spacing h0 relative to
// √(D·Dt), the diffusion length of one external step — the sharpest
// feature one sample interval can create.
const surfaceCellFraction = 0.5

// CoupleSim simulates one redox couple O + n·e⁻ ⇌ R in a semi-infinite
// 1-D diffusion field with electrode kinetics at x=0.
type CoupleSim struct {
	bv echem.ButlerVolmer
	d  float64 // diffusion coefficient, m²/s (same for O and R)
	dt float64 // external step, one implicit solve each

	// Graded mesh: spacing i (between nodes i and i+1) is h[i].
	h []float64

	// Crank–Nicolson row coefficients for interior nodes 1..n-2:
	// a·c[i-1] + b·c[i] + u·c[i+1] = d_i (a = sub-, u = super-diagonal).
	a, b, u []float64

	// Prefactored Thomas elimination run from the bulk boundary toward
	// the surface, expressing c[i] = p[i] + q[i]·c[i-1]. q and the
	// reciprocal pivots are constant; only p depends on the RHS.
	q    []float64
	ginv []float64

	// Second-order one-sided surface-gradient weights and the constant
	// part of the gradient closure (see Step).
	alpha0, alpha1, alpha2 float64
	gradB                  float64

	o, r   []float64 // concentration profiles, mol/m³
	po, pr []float64 // per-step elimination scratch
	bulkO  float64
	bulkR  float64

	flux    float64 // last net reduction flux at the surface, mol/(m²·s)
	started bool    // Rannacher startup taken
}

// Config describes a simulation run.
type Config struct {
	// Kinetics is the electrode reaction.
	Kinetics echem.ButlerVolmer
	// Diffusion is the species diffusivity.
	Diffusion phys.Diffusivity
	// BulkO and BulkR are the initial (and far-field) concentrations.
	BulkO, BulkR phys.Concentration
	// TotalTime is the planned experiment duration; it sizes the grid so
	// the diffusion layer never reaches the far boundary.
	TotalTime float64
	// Dt is the external step interval at which the caller will sample.
	Dt float64
}

// New builds a solver for cfg.
func New(cfg Config) (*CoupleSim, error) {
	if err := cfg.Kinetics.Validate(); err != nil {
		return nil, err
	}
	if cfg.Diffusion <= 0 || math.IsInf(float64(cfg.Diffusion), 0) || math.IsNaN(float64(cfg.Diffusion)) {
		return nil, fmt.Errorf("diffusion: bad diffusivity %g", float64(cfg.Diffusion))
	}
	if cfg.TotalTime <= 0 || cfg.Dt <= 0 || cfg.Dt > cfg.TotalTime ||
		math.IsInf(cfg.TotalTime, 0) || math.IsNaN(cfg.TotalTime) || math.IsNaN(cfg.Dt) {
		return nil, fmt.Errorf("diffusion: bad timing (total %g s, dt %g s)", cfg.TotalTime, cfg.Dt)
	}
	if cfg.BulkO < 0 || cfg.BulkR < 0 {
		return nil, fmt.Errorf("diffusion: negative bulk concentration")
	}
	d := float64(cfg.Diffusion)
	// Domain long enough that the diffusion layer (≈6√(D·t)) stays inside.
	length := 6 * math.Sqrt(d*cfg.TotalTime)
	if !(length > 0) || math.IsInf(length, 0) {
		return nil, fmt.Errorf("diffusion: degenerate domain length %g m (D=%g m²/s, total=%g s)",
			length, d, cfg.TotalTime)
	}
	// Surface resolution targets the diffusion length of one sample
	// interval; the cell count follows from the fixed expansion ratio,
	// clamped so extreme configurations degrade resolution instead of
	// exploding (or collapsing) the mesh.
	h0 := surfaceCellFraction * math.Sqrt(d*cfg.Dt)
	cells := float64(minCells)
	if h0 > 0 && h0 < length {
		cells = math.Ceil(math.Log1p(length*(gridGamma-1)/h0)/math.Log(gridGamma)) + 1
	}
	n := minCells
	switch {
	case math.IsNaN(cells):
		return nil, fmt.Errorf("diffusion: degenerate grid (length %g m, surface spacing %g m)", length, h0)
	case cells >= maxCells:
		n = maxCells
	case cells > minCells:
		n = int(cells)
	}
	// Re-derive the surface spacing so the n-cell graded mesh covers the
	// domain exactly.
	h0 = length * (gridGamma - 1) / (math.Pow(gridGamma, float64(n-1)) - 1)
	// Spacing products (the finite-difference weights divide by them)
	// must stay normal floats: a subnormal h0² loses the precision the
	// weights rely on and can round to zero, putting infinities (and
	// then NaNs) into the profiles. √(smallest normal float) ≈ 1.5e-154.
	if !(h0 > 1e-150) || math.IsInf(h0, 0) {
		return nil, fmt.Errorf("diffusion: degenerate surface spacing %g m over %d cells", h0, n)
	}

	s := &CoupleSim{
		bv:    cfg.Kinetics,
		d:     d,
		dt:    cfg.Dt,
		bulkO: float64(cfg.BulkO),
		bulkR: float64(cfg.BulkR),
	}
	// All ten per-node vectors are fixed-length for the life of the
	// solver, so they are views over a single backing array (the
	// calibration layer builds one solver per redox couple per
	// electrode; keeping construction to two allocations matters there).
	back := make([]float64, 10*n-1)
	carve := func(k int) []float64 {
		v := back[:k:k]
		back = back[k:]
		return v
	}
	s.h = carve(n - 1)
	s.a = carve(n)
	s.b = carve(n)
	s.u = carve(n)
	s.q = carve(n)
	s.ginv = carve(n)
	s.o = carve(n)
	s.r = carve(n)
	s.po = carve(n)
	s.pr = carve(n)
	for i := range s.h {
		s.h[i] = h0 * math.Pow(gridGamma, float64(i))
	}
	for i := range s.o {
		s.o[i] = s.bulkO
		s.r[i] = s.bulkR
	}
	s.factor()
	return s, nil
}

// factor builds the Crank–Nicolson rows and runs the constant half of
// the Thomas elimination: starting from the Dirichlet bulk boundary and
// eliminating toward the surface, every interior row is reduced to
//
//	c[i] = p[i] + q[i]·c[i-1]
//
// with q (and the pivot reciprocals) independent of the right-hand
// side. Step then only has to refresh p. Eliminating from the bulk end
// rather than row 0 is what lets the factorization survive the
// time-varying Butler–Volmer surface row.
func (s *CoupleSim) factor() {
	n := len(s.o)
	k := s.d * s.dt / 2
	for i := 1; i < n-1; i++ {
		hm, hp := s.h[i-1], s.h[i]
		wm := 2 / (hm * (hm + hp))
		wp := 2 / (hp * (hm + hp))
		s.a[i] = -k * wm
		s.u[i] = -k * wp
		s.b[i] = 1 + k*(wm+wp)
	}
	// Bulk boundary: Dirichlet (c = bulk), i.e. q = 0 and a unit pivot.
	s.q[n-1] = 0
	s.ginv[n-1] = 1
	for i := n - 2; i >= 1; i-- {
		g := s.b[i] + s.u[i]*s.q[i+1]
		s.ginv[i] = 1 / g
		s.q[i] = -s.a[i] / g
	}
	// Surface gradient: second-order one-sided three-point weights on
	// the graded mesh (exact for quadratics).
	h0, h1 := s.h[0], s.h[1]
	s.alpha1 = (h0 + h1) / (h0 * h1)
	s.alpha2 = -h0 / ((h0 + h1) * h1)
	s.alpha0 = -(s.alpha1 + s.alpha2)
	// With c[1] and c[2] expressed through the elimination, the surface
	// gradient is A + B·c[0]; B is constant.
	s.gradB = s.alpha0 + s.alpha1*s.q[1] + s.alpha2*s.q[2]*s.q[1]
}

// eliminate refreshes the RHS-dependent elimination vector p for one
// species: p[i] = (d_i − u[i]·p[i+1]) / pivot, sweeping from the bulk
// boundary to the surface. For Crank–Nicolson, d_i is the explicit half
// of the scheme; for the backward-Euler startup it is just c.
func (s *CoupleSim) eliminate(c, p []float64, bulk float64, cn bool) {
	n := len(c)
	p[n-1] = bulk
	if cn {
		for i := n - 2; i >= 1; i-- {
			di := -s.a[i]*c[i-1] + (2-s.b[i])*c[i] - s.u[i]*c[i+1]
			p[i] = (di - s.u[i]*p[i+1]) * s.ginv[i]
		}
	} else {
		for i := n - 2; i >= 1; i-- {
			p[i] = (c[i] - s.u[i]*p[i+1]) * s.ginv[i]
		}
	}
}

// advance takes one implicit step at electrode potential e: refresh the
// elimination for both species, close the system with the Butler–Volmer
// surface condition, and back-substitute the new profiles. cn selects
// Crank–Nicolson (steady state) or backward Euler (startup smoothing).
func (s *CoupleSim) advance(e phys.Voltage, cn bool) {
	n := len(s.o)
	s.eliminate(s.o, s.po, s.bulkO, cn)
	s.eliminate(s.r, s.pr, s.bulkR, cn)

	// Surface closure. The flux condition at the new time level reads
	//   D·(A_O + B·cO0) =  kf·cO0 − kb·cR0   (O consumed)
	//   D·(A_R + B·cR0) = −kf·cO0 + kb·cR0   (R produced)
	// with A the RHS-dependent part of the one-sided surface gradient.
	// Summing gives cO0+cR0 directly (the discrete no-net-flux condition
	// that conserves O+R); substituting back yields cO0 in closed form.
	aO := s.alpha1*s.po[1] + s.alpha2*(s.po[2]+s.q[2]*s.po[1])
	aR := s.alpha1*s.pr[1] + s.alpha2*(s.pr[2]+s.q[2]*s.pr[1])
	kf, kb := s.bv.RateConstants(e)
	sum := -(aO + aR) / s.gradB
	cO0 := (s.d*aO + kb*sum) / (kf + kb - s.d*s.gradB)
	if cO0 < 0 {
		cO0 = 0
	}
	cR0 := sum - cO0
	if cR0 < 0 {
		cR0 = 0
	}
	s.o[0] = cO0
	s.r[0] = cR0
	s.flux = kf*cO0 - kb*cR0

	// Back substitution toward the bulk.
	for i := 1; i < n; i++ {
		s.o[i] = s.po[i] + s.q[i]*s.o[i-1]
		s.r[i] = s.pr[i] + s.q[i]*s.r[i-1]
	}
}

// Step advances the field by the external Dt with the electrode at
// potential e and returns the net reduction flux density at the surface
// (mol·m⁻²·s⁻¹, positive when O is being reduced). The very first call
// is taken as two backward-Euler half-steps (same prefactored matrix:
// I − (D·Dt/2)·L) so a hard initial potential step is damped instead of
// exciting the Crank–Nicolson scheme's undamped stiff modes; every
// later call is one Crank–Nicolson step. Step performs no allocations.
func (s *CoupleSim) Step(e phys.Voltage) float64 {
	if !s.started {
		s.started = true
		s.advance(e, false)
		s.advance(e, false)
		return s.flux
	}
	s.advance(e, true)
	return s.flux
}

// SurfaceO returns the current surface concentration of O.
func (s *CoupleSim) SurfaceO() phys.Concentration { return phys.Concentration(s.o[0]) }

// SurfaceR returns the current surface concentration of R.
func (s *CoupleSim) SurfaceR() phys.Concentration { return phys.Concentration(s.r[0]) }

// Cells reports the spatial resolution chosen (for diagnostics/tests).
func (s *CoupleSim) Cells() int { return len(s.o) }

// Current converts a flux density to electrode current for area a:
// I = −n·F·A·J, negative for net reduction (IUPAC convention: cathodic
// current negative). Table II reduction peaks therefore appear as minima.
func Current(n int, a phys.Area, fluxDensity float64) phys.Current {
	return phys.Current(-float64(n) * phys.Faraday * float64(a) * fluxDensity)
}
