package diffusion

import (
	"math"
	"testing"

	"advdiag/internal/echem"
	"advdiag/internal/phys"
)

// TestCrankNicolsonToleranceTable sweeps the external sample interval
// and pins the solver's accuracy against both analytic references at
// every Dt a caller realistically uses. The bounds are deliberately a
// few times tighter than the explicit scheme's historical 3%/4%
// tolerances — a regression that loosens the implicit scheme back to
// explicit-level error fails here.
func TestCrankNicolsonToleranceTable(t *testing.T) {
	cottrell := []struct {
		dt     float64
		maxRel float64
	}{
		{0.005, 0.005},
		{0.02, 0.005},
		{0.05, 0.015},
	}
	for _, tc := range cottrell {
		d := phys.Diffusivity(1e-9)
		sim, err := New(Config{
			Kinetics:  fastKinetics(0),
			Diffusion: d,
			BulkO:     1,
			TotalTime: 10,
			Dt:        tc.dt,
		})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for step := 1; float64(step)*tc.dt <= 10; step++ {
			flux := sim.Step(phys.MilliVolts(-400))
			tNow := float64(step) * tc.dt
			if tNow < 0.5 {
				continue
			}
			want, err := echem.Cottrell(1, 1, 1, d, tNow)
			if err != nil {
				t.Fatal(err)
			}
			wantFlux := float64(want) / phys.Faraday
			if rel := math.Abs(flux-wantFlux) / wantFlux; rel > worst {
				worst = rel
			}
		}
		if worst > tc.maxRel {
			t.Errorf("Cottrell Dt=%g s: worst error %.2f%%, want ≤ %.2f%%",
				tc.dt, 100*worst, 100*tc.maxRel)
		}
	}

	// Randles–Ševčík at several potential-step sizes (0.5/1/2 mV per
	// sample at 20 mV/s): peak flux within 1%, peak potential within
	// 1.5 mV of the reversible −28.5/n mV shift.
	for _, mvPerStep := range []float64{0.5, 1, 2} {
		d := phys.Diffusivity(5e-10)
		rate := phys.SweepRate(0.02)
		e0 := phys.MilliVolts(-200)
		start, vertex := phys.MilliVolts(0), phys.MilliVolts(-500)
		dt := mvPerStep * 0.001 / float64(rate)
		total := float64(start-vertex) / float64(rate)
		sim, err := New(Config{
			Kinetics:  fastKinetics(e0),
			Diffusion: d,
			BulkO:     1,
			TotalTime: total,
			Dt:        dt,
		})
		if err != nil {
			t.Fatal(err)
		}
		peakFlux, peakE := 0.0, phys.Voltage(0)
		for i := 0; ; i++ {
			e := start - phys.Voltage(float64(i)*0.001*mvPerStep)
			if e < vertex {
				break
			}
			if flux := sim.Step(e); flux > peakFlux {
				peakFlux, peakE = flux, e
			}
		}
		want, err := echem.RandlesSevcik(1, 1, 1, d, rate)
		if err != nil {
			t.Fatal(err)
		}
		wantFlux := float64(want) / phys.Faraday
		if rel := math.Abs(peakFlux-wantFlux) / wantFlux; rel > 0.01 {
			t.Errorf("RS %.1f mV/step: peak flux %.4g vs %.4g (%.2f%% off, want ≤ 1%%)",
				mvPerStep, peakFlux, wantFlux, 100*rel)
		}
		wantE := e0 + echem.ReversiblePeakShift(1)
		if math.Abs(float64(peakE-wantE)) > 0.0015 {
			t.Errorf("RS %.1f mV/step: peak at %v, want %v ± 1.5 mV", mvPerStep, peakE, wantE)
		}
	}
}

// TestGridBounds checks the graded mesh stays within its clamps across
// extreme (but legal) configurations instead of exploding or
// collapsing.
func TestGridBounds(t *testing.T) {
	// Long experiment, coarse sampling: the mesh bottoms out at the
	// resolution floor.
	coarse, err := New(Config{
		Kinetics: fastKinetics(0), Diffusion: 1e-9, BulkO: 1,
		TotalTime: 3600, Dt: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := coarse.Cells(); n < minCells || n > maxCells {
		t.Fatalf("coarse grid has %d cells, want within [%d, %d]", n, minCells, maxCells)
	}
	// Absurdly fine sampling: the ceiling guards the mesh (and the old
	// explicit scheme's n-overflow hazard). The exponential grid covers
	// enormous dynamic ranges cheaply, so only a pathological surface
	// spacing reaches the clamp.
	fine, err := New(Config{
		Kinetics: fastKinetics(0), Diffusion: 1e-9, BulkO: 1,
		TotalTime: 3600, Dt: 1e-200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := fine.Cells(); n != maxCells {
		t.Fatalf("degenerately fine sampling must clamp to %d cells, got %d", maxCells, n)
	}
	// The clamped grids must still produce finite physics.
	for _, sim := range []*CoupleSim{coarse, fine} {
		flux := sim.Step(phys.MilliVolts(-400))
		if math.IsNaN(flux) || math.IsInf(flux, 0) {
			t.Fatalf("clamped grid produced non-finite flux %g", flux)
		}
	}
}

// TestDegenerateConfigs exercises the satellite guard: extreme
// diffusivities and timings must yield a clear construction error, not
// NaN profiles.
func TestDegenerateConfigs(t *testing.T) {
	bad := []Config{
		{Kinetics: fastKinetics(0), Diffusion: phys.Diffusivity(math.Inf(1)), BulkO: 1, TotalTime: 1, Dt: 0.01},
		{Kinetics: fastKinetics(0), Diffusion: phys.Diffusivity(math.NaN()), BulkO: 1, TotalTime: 1, Dt: 0.01},
		{Kinetics: fastKinetics(0), Diffusion: 1e-9, BulkO: 1, TotalTime: math.Inf(1), Dt: 0.01},
		{Kinetics: fastKinetics(0), Diffusion: 1e-9, BulkO: 1, TotalTime: math.NaN(), Dt: 0.01},
		{Kinetics: fastKinetics(0), Diffusion: 1e-9, BulkO: 1, TotalTime: 1, Dt: math.NaN()},
		// Subnormal diffusivity: the surface spacing squared underflows.
		{Kinetics: fastKinetics(0), Diffusion: 1e-320, BulkO: 1, TotalTime: 1, Dt: 0.01},
	}
	for i, cfg := range bad {
		sim, err := New(cfg)
		if err == nil {
			// Construction may only succeed if the physics stays finite.
			if flux := sim.Step(phys.MilliVolts(-400)); math.IsNaN(flux) || math.IsInf(flux, 0) {
				t.Errorf("degenerate config %d accepted and produced non-finite flux %g", i, flux)
			}
		}
	}
	// A plainly huge-but-finite diffusivity must either error or stay
	// finite — never NaN.
	sim, err := New(Config{Kinetics: fastKinetics(0), Diffusion: 1e300, BulkO: 1, TotalTime: 1, Dt: 0.01})
	if err == nil {
		for i := 0; i < 10; i++ {
			if flux := sim.Step(phys.MilliVolts(-400)); math.IsNaN(flux) {
				t.Fatal("extreme diffusivity produced NaN flux")
			}
		}
		if o := float64(sim.SurfaceO()); math.IsNaN(o) {
			t.Fatal("extreme diffusivity produced NaN profile")
		}
	}
}

// TestStepAllocFree pins the tentpole property: the steady-state
// stepping loop performs zero allocations.
func TestStepAllocFree(t *testing.T) {
	sim, err := New(Config{
		Kinetics: fastKinetics(0), Diffusion: 5e-10, BulkO: 1,
		TotalTime: 10, Dt: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(phys.MilliVolts(-100)) // startup smoothing
	if allocs := testing.AllocsPerRun(200, func() {
		sim.Step(phys.MilliVolts(-300))
	}); allocs != 0 {
		t.Fatalf("Step allocates %.0f objects per call, want 0", allocs)
	}
}

// TestGradedMeshExpansion sanity-checks the mesh shape: spacings grow
// by the fixed ratio and cover the 6√(D·T) domain.
func TestGradedMeshExpansion(t *testing.T) {
	d := 1e-9
	total := 10.0
	sim, err := New(Config{
		Kinetics: fastKinetics(0), Diffusion: phys.Diffusivity(d), BulkO: 1,
		TotalTime: total, Dt: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	length := 0.0
	for i, h := range sim.h {
		if h <= 0 {
			t.Fatalf("spacing %d is %g", i, h)
		}
		if i > 0 {
			if ratio := h / sim.h[i-1]; math.Abs(ratio-gridGamma) > 1e-9 {
				t.Fatalf("spacing ratio %d is %g, want %g", i, ratio, gridGamma)
			}
		}
		length += h
	}
	want := 6 * math.Sqrt(d*total)
	if math.Abs(length-want)/want > 1e-9 {
		t.Fatalf("mesh covers %g m, want %g m", length, want)
	}
}
