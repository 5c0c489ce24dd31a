package advdiag_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"advdiag"
)

// labPlatform designs a small two-electrode platform covering both
// protocol families (glucose → chronoamperometry, benzphetamine →
// cyclic voltammetry) so the Lab tests stay fast.
func labPlatform(t *testing.T) *advdiag.Platform {
	t.Helper()
	p, err := advdiag.DesignPlatform([]string{"glucose", "benzphetamine"},
		advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// labCohort builds n deterministic samples with varying concentrations.
func labCohort(n int) []advdiag.Sample {
	out := make([]advdiag.Sample, n)
	for i := range out {
		out[i] = advdiag.Sample{
			ID: fmt.Sprintf("s%02d", i),
			Concentrations: map[string]float64{
				"glucose":       0.5 + 0.1*float64(i%16),
				"benzphetamine": 0.2 + 0.05*float64(i%8),
			},
		}
	}
	return out
}

// fingerprints reduces a batch to its per-sample fingerprints, failing
// on any per-sample error.
func fingerprints(t *testing.T, outs []advdiag.PanelOutcome) []uint64 {
	t.Helper()
	fps := make([]uint64, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		if o.Index != i {
			t.Fatalf("outcome %d carries index %d", i, o.Index)
		}
		fps[i] = o.Result.Fingerprint()
	}
	return fps
}

// TestLabDeterminismAcrossWorkerCounts is the end-to-end guard on the
// engine-per-goroutine contract: the same 64-sample batch must produce
// byte-identical PanelResults at 1, 4, and NumCPU workers. Run under
// -race in CI.
func TestLabDeterminismAcrossWorkerCounts(t *testing.T) {
	p := labPlatform(t)
	samples := labCohort(64)

	counts := []int{1, 4, runtime.NumCPU()}
	var ref []uint64
	for _, workers := range counts {
		lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		fps := fingerprints(t, lab.RunPanels(samples))
		if ref == nil {
			ref = fps
			continue
		}
		for i := range fps {
			if fps[i] != ref[i] {
				t.Fatalf("sample %d differs at %d workers: %016x vs %016x (1 worker)",
					i, workers, fps[i], ref[i])
			}
		}
	}

	// Different samples must still differ from each other (the
	// fingerprint is not degenerate).
	same := 0
	for i := 1; i < len(ref); i++ {
		if ref[i] == ref[0] {
			same++
		}
	}
	if same == len(ref)-1 {
		t.Fatal("every sample produced the same fingerprint; hash or seeding is degenerate")
	}
}

// TestLabRepeatRunsAreIdentical: running the same batch twice through
// two different Labs over one platform gives identical bytes (the
// calibration table and per-sample seeding are both pure).
func TestLabRepeatRunsAreIdentical(t *testing.T) {
	p := labPlatform(t)
	samples := labCohort(8)
	lab1, err := advdiag.NewLab(p, advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	lab2, err := advdiag.NewLab(p, advdiag.WithLabWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	a := fingerprints(t, lab1.RunPanels(samples))
	b := fingerprints(t, lab2.RunPanels(samples))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d not reproducible across labs", i)
		}
	}
}

// TestOneShardFleetStreamingMatchesLab: samples streamed through a
// one-shard Fleet's Submit/Results must yield the same bytes as a Lab
// batch of the same submission order, regardless of completion order.
func TestOneShardFleetStreamingMatchesLab(t *testing.T) {
	p := labPlatform(t)
	samples := labCohort(12)

	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprints(t, lab.RunPanels(samples))

	fleet, err := advdiag.NewFleet([]*advdiag.Platform{p}, advdiag.WithFleetWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []advdiag.PanelOutcome)
	go func() {
		var outs []advdiag.PanelOutcome
		for o := range fleet.Results() {
			outs = append(outs, o)
		}
		done <- outs
	}()
	for _, s := range samples {
		if err := fleet.Submit(s); err != nil {
			t.Error(err)
		}
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != len(samples) {
		t.Fatalf("streamed %d outcomes for %d samples", len(outs), len(samples))
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Index < outs[j].Index })
	got := fingerprints(t, outs)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("streamed sample %d differs from batch", i)
		}
	}
}

// TestLabStatsAndCache checks the service counters: panels counted,
// failures isolated per sample, the platform's calibration read the
// same by a second Lab, and the schedule-derived timing populated.
func TestLabStatsAndCache(t *testing.T) {
	p := labPlatform(t)
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	samples := labCohort(6)
	samples[3].Concentrations = map[string]float64{"glucose": -1} // invalid
	outs := lab.RunPanels(samples)
	for i, o := range outs {
		if (o.Err != nil) != (i == 3) {
			t.Fatalf("sample %d err = %v", i, o.Err)
		}
	}
	st := lab.Stats()
	if st.PanelsRun != 6 || st.Failures != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The calibration the first Lab built is the platform's, read-only:
	// a second Lab on the same platform reads every panel bit for bit
	// the same.
	again, err := advdiag.NewLab(p, advdiag.WithLabWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range again.RunPanels(samples) {
		if (o.Err != nil) != (outs[i].Err != nil) || o.Err == nil && o.Result.Fingerprint() != outs[i].Result.Fingerprint() {
			t.Fatalf("sample %d reads differently on a second Lab: %+v vs %+v", i, o, outs[i])
		}
	}
	if st.PanelSeconds <= 0 || st.CycleSeconds <= st.PanelSeconds || st.InstrumentPanelsPerHour <= 0 {
		t.Fatalf("schedule-derived timing missing: %+v", st)
	}
	if st.PanelsPerSecond <= 0 || st.WallSeconds <= 0 {
		t.Fatalf("throughput not measured: %+v", st)
	}
	// Outcomes sit on the instrument timeline at cycle boundaries.
	for i, o := range outs {
		want := float64(i) * st.CycleSeconds
		if o.ScheduledStartSeconds != want {
			t.Fatalf("outcome %d scheduled at %g, want %g", i, o.ScheduledStartSeconds, want)
		}
	}
	if s := st.String(); s == "" {
		t.Fatal("empty stats line")
	}
}

// TestLabValidation covers the Lab constructor and empty input.
func TestLabValidation(t *testing.T) {
	if _, err := advdiag.NewLab(nil); err == nil {
		t.Fatal("nil platform must fail")
	}
	if _, err := advdiag.NewLab(&advdiag.Platform{}); err == nil {
		t.Fatal("zero platform must fail")
	}
	lab, err := advdiag.NewLab(labPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	if outs := lab.RunPanels(nil); len(outs) != 0 {
		t.Fatalf("empty batch produced %d outcomes", len(outs))
	}
}
