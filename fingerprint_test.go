package advdiag

import (
	"math"
	"testing"
)

// TestFingerprintsPinned pins the four result fingerprints on fixed
// hand-built inputs. The values are part of the determinism contract:
// remote and local runs, golden files and replay checks all compare
// them, so a refactor of the hashing must reproduce every one exactly.
// The inputs cover NaN, negative zero, empty strings and empty series.
func TestFingerprintsPinned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()

	panels := []PanelResult{
		{},
		{PanelSeconds: negZero},
		{PanelSeconds: 120, Readings: []TargetReading{
			{Target: "glucose", WE: "WE1", Probe: "glucose oxidase",
				MeasuredMicroAmps: 0.125, EstimatedMM: 2.5, TrueMM: 2.5, PeakMV: negZero},
			{Target: "benzphetamine", WE: "WE2", Probe: "CYP2B4",
				MeasuredMicroAmps: -0.75, EstimatedMM: nan, TrueMM: 0.8, PeakMV: -412.5},
			{},
		}},
	}
	monitors := []MonitorResult{
		{},
		{TimesSeconds: []float64{}, CurrentsMicroAmps: nil, Settled: true},
		{
			TimesSeconds:      []float64{0, 0.5, 1},
			CurrentsMicroAmps: []float64{negZero, nan, 3.25},
			T90Seconds:        30, TransientSeconds: nan,
			BaselineMicroAmps: negZero, SteadyMicroAmps: 3.25,
			StepMicroAmps: 3.25, EstimatedMM: 1.5,
		},
	}
	campaigns := []CampaignReport{
		{},
		{Readings: []CampaignReading{}, DriftFlagged: true},
		{
			Readings: []CampaignReading{
				{AtHours: 0, EstimateMM: 2, ErrorPct: negZero, SinceRecalHours: 0},
				{AtHours: 20, EstimateMM: nan, ErrorPct: 4.5, SinceRecalHours: 20},
			},
			Recals: 3, DriftRecals: 1, MaxErrorPct: 4.5, FinalErrorPct: nan,
		},
	}
	cohorts := []CohortReport{
		{},
		{Campaigns: []CampaignReport{{ID: ""}}},
		{Campaigns: []CampaignReport{{ID: "ward-3/bed-7", Fingerprint: 1}, {ID: "c-001", Fingerprint: math.MaxUint64}}},
	}

	check := func(kind string, i int, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s %d: fingerprint %#016x, want %#016x", kind, i, got, want)
		}
	}
	wantPanel := []uint64{0x88201fb960ff6465, 0xd2f570ef13845ae5, 0x605909b692067d6f}
	for i, p := range panels {
		check("panel", i, p.Fingerprint(), wantPanel[i])
	}
	wantMonitor := []uint64{0x3ecb33e15783bec5, 0x18238aa59a19d464, 0x7d212e7d7d8d12e4}
	for i := range monitors {
		check("monitor", i, monitors[i].Fingerprint(), wantMonitor[i])
	}
	wantCampaign := []uint64{0xa09d945a1cd8d6e5, 0x81a2cd5111e98cc4, 0xbfd507e2c6535a21}
	for i, r := range campaigns {
		sc := schedCampaign{report: r}
		check("campaign", i, sc.fingerprint(), wantCampaign[i])
	}
	wantCohort := []uint64{0xa8c7f832281a39c5, 0x5b2a969b42d238a4, 0xf99007c7943288a0}
	for i := range cohorts {
		check("cohort", i, cohorts[i].Fingerprint(), wantCohort[i])
	}
}
