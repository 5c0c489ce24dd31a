// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment end to end and
// reports its headline numbers as custom metrics, so `go test -bench`
// output doubles as the paper-vs-measured record. The rendered
// comparison tables come from `go run ./cmd/experiments`.
package advdiag_test

import (
	"testing"

	"advdiag"
	"advdiag/internal/experiments"
)

// runExperiment drives one experiment inside a benchmark loop and
// attaches its metrics to the benchmark result.
func runExperiment(b *testing.B, run func() (*experiments.Result, error), metrics ...string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
	if testing.Verbose() {
		b.Log("\n" + last.String())
	}
}

// BenchmarkTableI_OxidasePotentials regenerates Table I: the applied
// potential recommended for each oxidase probe (E1).
func BenchmarkTableI_OxidasePotentials(b *testing.B) {
	runExperiment(b, experiments.TableI,
		"glucose_mV", "lactate_mV", "glutamate_mV", "cholesterol_mV")
}

// BenchmarkTableII_CYPPotentials regenerates Table II: the reduction
// peak potential of every isoform/drug pair (E2).
func BenchmarkTableII_CYPPotentials(b *testing.B) {
	runExperiment(b, experiments.TableII,
		"CYP2B4/benzphetamine_mV", "CYP2B4/aminopyrine_mV", "CYP11A1/cholesterol_mV")
}

// BenchmarkTableIII_FiguresOfMerit regenerates Table III: sensitivity,
// LOD and linear range for all six metabolite biosensors (E3).
func BenchmarkTableIII_FiguresOfMerit(b *testing.B) {
	runExperiment(b, experiments.TableIII,
		"glucose_S", "lactate_S", "glutamate_S",
		"benzphetamine_S", "aminopyrine_S", "cholesterol_S",
		"glucose_LOD_uM", "glucose_hi_mM")
}

// BenchmarkSensorMeasureCV measures one voltammetric reading on a
// hand-held benzphetamine sensor at 0.5 mM: the CV run on the sensor's
// cached flux basis plus the template fit, the unit of work Table III's
// CYP calibrations repeat (the calibration itself is computed by the
// first call, outside the timer).
func BenchmarkSensorMeasureCV(b *testing.B) {
	s, err := advdiag.NewSensor("benzphetamine")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.MeasureSteadyState(0.5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MeasureSteadyState(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_PotentiostatTIA exercises the Fig. 1 block: potentiostat
// control accuracy and transimpedance linearity (E4).
func BenchmarkFig1_PotentiostatTIA(b *testing.B) {
	runExperiment(b, experiments.Fig1, "control_error_mV", "tia_r2")
}

// BenchmarkFig2_AcquisitionChain runs a full acquisition through the
// synthesized two-target platform (E5).
func BenchmarkFig2_AcquisitionChain(b *testing.B) {
	runExperiment(b, experiments.Fig2, "reading_glucose_mM", "reading_benzphetamine_mM")
}

// BenchmarkFig3_GlucoseTimeResponse regenerates the Fig. 3 transient:
// ≈30 s to steady state after an injection (E6).
func BenchmarkFig3_GlucoseTimeResponse(b *testing.B) {
	runExperiment(b, experiments.Fig3, "t90_s", "steady_uA")
}

// BenchmarkFig4_MultiPanelPlatform designs and runs the five-electrode
// demonstrator panel (E7).
func BenchmarkFig4_MultiPanelPlatform(b *testing.B) {
	runExperiment(b, experiments.Fig4,
		"WEs", "glucose_rel_err", "benzphetamine_rel_err", "aminopyrine_rel_err", "cholesterol_rel_err")
}

// BenchmarkReadoutRequirements recomputes the §II-C readout classes at
// the cited and platform electrode areas (E8).
func BenchmarkReadoutRequirements(b *testing.B) {
	runExperiment(b, experiments.ReadoutRequirements)
}

// BenchmarkNoiseAblation measures the chopper's flicker suppression and
// the CDS offset removal (E9).
func BenchmarkNoiseAblation(b *testing.B) {
	runExperiment(b, experiments.NoiseAblation,
		"floor_plain_nA", "floor_chopped_nA", "lod_plain_uM", "cds_residual_mV")
}

// BenchmarkStructureAblation quantifies co-chamber cross-talk against
// the cost of chamber separation (E10).
func BenchmarkStructureAblation(b *testing.B) {
	runExperiment(b, experiments.StructureAblation,
		"crosstalk_pct", "area_shared-chamber", "area_chamber-per-electrode")
}

// BenchmarkSweepRateLimit traces the CV peak-position error against the
// sweep rate (E11).
func BenchmarkSweepRateLimit(b *testing.B) {
	runExperiment(b, experiments.SweepRateLimit,
		"shift_20", "shift_500", "shift_2000")
}

// BenchmarkMuxSharing compares shared-mux electronics against dedicated
// chains (E12).
func BenchmarkMuxSharing(b *testing.B) {
	runExperiment(b, experiments.MuxSharing)
}

// BenchmarkTimeBasedReadout exercises the cited current-to-frequency
// alternative readout (E13).
func BenchmarkTimeBasedReadout(b *testing.B) {
	runExperiment(b, experiments.TimeBasedReadout, "ifc_r2")
}

// BenchmarkLongTermDrift simulates 100 h monitoring campaigns with film
// aging, polymer stabilization and recalibration (E14).
func BenchmarkLongTermDrift(b *testing.B) {
	runExperiment(b, experiments.LongTermDrift)
}

// BenchmarkInterference quantifies enzymatic selectivity and the
// direct-oxidizer caveat (E15).
func BenchmarkInterference(b *testing.B) {
	runExperiment(b, experiments.Interference,
		"selectivity_lactate", "dopamine_err_pct", "dopamine_residual_pct")
}

// BenchmarkSensorArrays measures replicate-averaging precision against
// array cost (E16).
func BenchmarkSensorArrays(b *testing.B) {
	runExperiment(b, experiments.SensorArrays, "sigma_k1", "sigma_k4", "area_k1", "area_k4")
}
