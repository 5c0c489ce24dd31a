package runtime

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// randomMonitorSpec draws a monitor spec for a two-target platform.
// Durations, baselines and injection times reach down to a few sample
// intervals, so the draws include specs the step analysis cannot
// handle alongside ordinary ones.
func randomMonitorSpec(rng *rand.Rand) MonitorSpec {
	s := MonitorSpec{
		Target:   []string{"glucose", "lactate"}[rng.IntN(2)],
		AgeHours: rng.Float64() * 200,
		Polymer:  rng.IntN(2) == 0,
	}
	if rng.IntN(4) > 0 {
		s.ConcentrationMM = rng.Float64() * 4
	}
	switch rng.IntN(4) {
	case 0: // the protocol default
	case 1:
		s.DurationSeconds = rng.Float64() * 1.5
	default:
		s.DurationSeconds = 1 + rng.Float64()*30
	}
	d := s.effectiveDuration()
	if rng.IntN(3) == 0 {
		s.BaselineSeconds = rng.Float64() * d * 0.6
	}
	for k := rng.IntN(4); k > 0; k-- {
		at := rng.Float64() * d
		if rng.IntN(3) == 0 {
			at = rng.Float64() * 1.2 // near the trace start
		}
		s.Injections = append(s.Injections, Injection{AtSeconds: at, DeltaMM: rng.Float64()*2 - 0.3})
	}
	return s
}

// TestMonitorScratchReuse: a long sequence of varied ticks on one
// reused scratch matches the same ticks each run on a fresh scratch.
// Rejected specs are in the mix, so a failed tick must not leave state
// behind either.
func TestMonitorScratchReuse(t *testing.T) {
	e := monitorExecutor(t)
	rng := rand.New(rand.NewPCG(31, 7))
	n := 2000
	if testing.Short() {
		n = 150
	}
	reused := &monitorScratch{}
	for i := 0; i < n; i++ {
		spec, seed := randomMonitorSpec(rng), rng.Uint64()
		got, gerr := e.monitorWith(reused, spec, seed)
		want, werr := e.monitorWith(&monitorScratch{}, spec, seed)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("tick %d %+v: reused err %v, fresh err %v", i, spec, gerr, werr)
		}
		if gerr == nil && traceFingerprint(got) != traceFingerprint(want) {
			t.Fatalf("tick %d %+v: reused scratch diverged from a fresh one", i, spec)
		}
	}
}

// TestMonitorTraceOutlivesNextTick: the series a tick returns are the
// caller's; the next tick on the same goroutine and scratch must not
// write through them.
func TestMonitorTraceOutlivesNextTick(t *testing.T) {
	e := monitorExecutor(t)
	s := &monitorScratch{}
	spec := MonitorSpec{Target: "glucose", ConcentrationMM: 2, DurationSeconds: 30, BaselineSeconds: 5}
	first, err := e.monitorWith(s, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	times := slices.Clone(first.TimesSeconds)
	amps := slices.Clone(first.CurrentsMicroAmps)
	for i, next := range []MonitorSpec{
		spec,
		{Target: "glucose", ConcentrationMM: 0.5, DurationSeconds: 30,
			Injections: []Injection{{AtSeconds: 10, DeltaMM: 1}}},
		{Target: "lactate", ConcentrationMM: 1, DurationSeconds: 30},
	} {
		if _, err := e.monitorWith(s, next, uint64(i+2)); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first.TimesSeconds, times) || !slices.Equal(first.CurrentsMicroAmps, amps) {
			t.Fatalf("tick %d overwrote the first tick's returned series", i+2)
		}
	}
	// The public entry point hands out the same ownership.
	a, err := e.RunMonitor(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	amps = slices.Clone(a.CurrentsMicroAmps)
	if _, err := e.RunMonitor(spec, 10); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.CurrentsMicroAmps, amps) {
		t.Fatal("RunMonitor's next tick overwrote the returned currents")
	}
}

// TestMonitorSpecValidateShortSegments: specs whose analysed segment
// is shorter than the step analysis needs are rejected up front instead
// of failing inside RunMonitor, and the boundary cases on either side
// run.
func TestMonitorSpecValidateShortSegments(t *testing.T) {
	e := monitorExecutor(t)
	cases := []struct {
		name string
		spec MonitorSpec
		ok   bool
	}{
		{"second injection leaves 4 samples", MonitorSpec{Target: "glucose", DurationSeconds: 30,
			Injections: []Injection{{AtSeconds: 0.1, DeltaMM: 1}, {AtSeconds: 0.4, DeltaMM: 1}}}, false},
		{"0.5 s trace with a 0.2 s baseline", MonitorSpec{Target: "glucose", ConcentrationMM: 1,
			DurationSeconds: 0.5, BaselineSeconds: 0.2}, false},
		{"0.5 s trace with one injection", MonitorSpec{Target: "glucose", DurationSeconds: 0.5,
			Injections: []Injection{{AtSeconds: 0.2, DeltaMM: 1}}}, false},
		{"trace shorter than one sample interval", MonitorSpec{Target: "glucose", ConcentrationMM: 1,
			DurationSeconds: 0.05}, false},
		{"second injection on sample 7", MonitorSpec{Target: "glucose", DurationSeconds: 30,
			Injections: []Injection{{AtSeconds: 0.1, DeltaMM: 1}, {AtSeconds: 0.7, DeltaMM: 1}}}, false},
		{"second injection just after sample 7", MonitorSpec{Target: "glucose", DurationSeconds: 30,
			Injections: []Injection{{AtSeconds: 0.1, DeltaMM: 1}, {AtSeconds: 0.71, DeltaMM: 1}}}, true},
		{"0.7 s trace (7 samples) with a baseline", MonitorSpec{Target: "glucose", ConcentrationMM: 1,
			DurationSeconds: 0.7, BaselineSeconds: 0.2}, false},
		{"0.71 s trace (8 samples) with a baseline", MonitorSpec{Target: "glucose", ConcentrationMM: 1,
			DurationSeconds: 0.71, BaselineSeconds: 0.2}, true},
		{"0.5 s flat run needs no step analysis", MonitorSpec{Target: "glucose", ConcentrationMM: 1,
			DurationSeconds: 0.5}, true},
	}
	for _, tc := range cases {
		verr := tc.spec.Validate()
		if (verr == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, verr, tc.ok)
			continue
		}
		if _, err := e.RunMonitor(tc.spec, 3); (err == nil) != tc.ok {
			t.Errorf("%s: RunMonitor err %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestMonitorValidateImpliesRun: over random specs, every spec that
// validates runs — Validate is the complete input contract of
// RunMonitor on a platform that serves the target.
func TestMonitorValidateImpliesRun(t *testing.T) {
	e := monitorExecutor(t)
	rng := rand.New(rand.NewPCG(47, 3))
	n := 3000
	if testing.Short() {
		n = 600
	}
	accepted, rejected := 0, 0
	for i := 0; i < n; i++ {
		spec := randomMonitorSpec(rng)
		if spec.Validate() != nil {
			rejected++
			continue
		}
		accepted++
		if _, err := e.RunMonitor(spec, rng.Uint64()); err != nil {
			t.Fatalf("spec %+v validates but RunMonitor fails: %v", spec, err)
		}
	}
	// Both sides of the contract must be exercised.
	if accepted < n/2 || rejected < n/50 {
		t.Fatalf("draws accepted %d and rejected %d of %d; the generator no longer probes the boundary", accepted, rejected, n)
	}
}

// TestRunMonitorConcurrent: goroutines sharing one Executor draw their
// own scratches from its pool, and every tick matches the serial run.
func TestRunMonitorConcurrent(t *testing.T) {
	e := monitorExecutor(t)
	specs := goldenMonitorSpecs()
	want := make([]uint64, len(specs))
	for i, spec := range specs {
		tr, err := e.RunMonitor(spec, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = traceFingerprint(tr)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range specs {
				i := (k + w*len(specs)/workers) % len(specs)
				tr, err := e.RunMonitor(specs[i], uint64(i))
				if err != nil {
					t.Error(err)
					return
				}
				if got := traceFingerprint(tr); got != want[i] {
					t.Errorf("worker %d spec %d: fingerprint %016x, serial %016x", w, i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
