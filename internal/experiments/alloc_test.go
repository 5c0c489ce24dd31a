package experiments

import (
	"fmt"
	"testing"

	"advdiag"
	"advdiag/internal/mathx"
)

// The allocation-regression tests pin the batched acquisition path's
// headline win (PR 9): routing the Fig. 2 chain and Fig. 4 panel
// assembly through the pooled scratch arenas cut their allocation
// bills by more than half versus the pre-batching baseline (766 and
// 2102 allocs/op). The ceilings sit at the 50%-reduction acceptance
// line, with measured counts well below (≈370 and ≈748 on go1.24), so
// any change that re-introduces per-replica garbage fails here in
// plain `go test` rather than waiting for a bench diff. Counts are
// per-run and duration-independent — AllocsPerRun averages over full
// experiment executions.

func TestFig2AllocCeiling(t *testing.T) {
	if raceEnabled {
		// Race instrumentation defeats escape analysis (RNG.Split and
		// Engine.acquire heap-allocate only in race builds) and makes
		// fmt's sync.Pool drop buffers at random, so the count there
		// reads 385–387 and varies run to run. Plain builds pin it.
		t.Skip("race builds allocate differently from the compiled binary this ceiling pins")
	}
	if _, err := Fig2(); err != nil { // warm caches outside the count
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Fig2(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 383 {
		t.Fatalf("Fig. 2 acquisition chain allocates %.0f objects/run, want ≤ 383 (≤50%% of the PR 3 baseline's 766)", allocs)
	}
}

func TestFig4AllocCeiling(t *testing.T) {
	if _, err := Fig4(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Fig4(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("Fig. 4 panel assembly allocates %.0f objects/run, want ≤ 1000 (the PR 3 baseline was 2102)", allocs)
	}
}

// TestRunMonitorAllocCeiling pins the pooled monitor tick: a tick
// allocates only the two series it returns plus the CAResult of
// measure.RunCA (3 allocs on go1.24; the per-tick construction it
// replaced took 62). The ceiling leaves room for an injection's sampler
// and sort.
func TestRunMonitorAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random, so a tick's count includes rebuilding one")
	}
	p, err := advdiag.DesignPlatform([]string{"glucose", "lactate"}, advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []advdiag.MonitorRequest{
		{ID: "two-phase", Target: "glucose", ConcentrationMM: 2, DurationSeconds: 30, BaselineSeconds: 5, AgeHours: 36},
		{ID: "injection", Target: "lactate", ConcentrationMM: 1.2, DurationSeconds: 30, Polymer: true,
			Injections: []advdiag.InjectionEvent{{AtSeconds: 15, DeltaMM: 0.6}}},
	} {
		if out := lab.RunMonitor(req); out.Err != nil { // warm the calibration cache and the scratch
			t.Fatal(out.Err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			req.Seed++
			if out := lab.RunMonitor(req); out.Err != nil {
				t.Fatal(out.Err)
			}
		})
		if allocs > 8 {
			t.Fatalf("%s monitor tick allocates %.0f objects, want ≤ 8 (the per-tick construction path took 62)", req.ID, allocs)
		}
	}
}

// TestFleetAllocCeiling pins the allocation bill of mixed Fleet
// traffic: the Fig. 4 six-target platform at seed 9 behind 4 shards of
// one worker each, running a 64-sample cohort of ⅓ metabolite-subset,
// ⅓ drug-subset and ⅓ full-panel samples. A warm fleet measured
// 23.5–23.7 allocs/panel on go1.24 at 1, 2 and 4 shards; the ceiling is
// the 33.14 allocs/panel recorded after the batched kernel landed,
// plus 30%.
func TestFleetAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds allocate differently from the compiled binary this ceiling pins (45–53 allocs/panel)")
	}
	targets := []string{"glucose", "lactate", "glutamate", "benzphetamine", "aminopyrine", "cholesterol"}
	p, err := advdiag.DesignPlatform(targets, advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := advdiag.NewFleet([]*advdiag.Platform{p, p, p, p}, advdiag.WithFleetWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	samples := mixedFleetTraffic(targets, 64, 9)
	run := func() {
		for _, o := range fleet.RunPanels(samples) {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.ID, o.Err)
			}
		}
	}
	run() // warm the shards' scratch pools outside the count
	perPanel := testing.AllocsPerRun(3, run) / float64(len(samples))
	t.Logf("%.1f allocs/panel", perPanel)
	if perPanel > 43 {
		t.Fatalf("mixed Fleet traffic allocates %.1f objects/panel, want ≤ 43 (33.14 recorded after batching, +30%%)", perPanel)
	}
}

// mixedFleetTraffic is a deterministic cohort centred on physiologic
// concentrations (each scaled by a factor in [0.5, 2) from a seeded
// stream), with every third sample cut to the metabolite targets and
// every third to the drug targets.
func mixedFleetTraffic(targets []string, n int, seed uint64) []advdiag.Sample {
	baseMM := map[string]float64{
		"glucose": 2.0, "lactate": 1.0, "glutamate": 1.0,
		"benzphetamine": 0.8, "aminopyrine": 4.0, "cholesterol": 0.05,
	}
	subsets := [][]string{
		{"glucose", "lactate", "glutamate", "cholesterol"},
		{"benzphetamine", "aminopyrine"},
		targets,
	}
	rng := mathx.NewRNG(seed)
	out := make([]advdiag.Sample, n)
	for i := range out {
		concs := make(map[string]float64, len(targets))
		for _, t := range targets {
			concs[t] = baseMM[t] * (0.5 + 1.5*rng.Float64())
		}
		kept := make(map[string]float64, len(targets))
		for _, t := range subsets[i%3] {
			kept[t] = concs[t]
		}
		out[i] = advdiag.Sample{ID: fmt.Sprintf("patient-%03d", i+1), Concentrations: kept}
	}
	return out
}
