// Benchmarks for the run-time panel hot path: one designed Fig. 4
// platform, repeated panel executions: the hot path behind
// servebench's fig4-batch throughput (see README §Performance).
package advdiag_test

import (
	"testing"

	"advdiag"
)

// fig4Targets is the paper's §III demonstrator panel.
var fig4PanelTargets = []string{
	"glucose", "lactate", "glutamate",
	"benzphetamine", "aminopyrine", "cholesterol",
}

var fig4PanelSample = map[string]float64{
	"glucose":       2.0,
	"lactate":       1.0,
	"glutamate":     1.0,
	"benzphetamine": 0.8,
	"aminopyrine":   4.0,
	"cholesterol":   0.05,
}

// BenchmarkRunPanelFig4 measures one full six-target panel on a
// pre-designed, calibration-warm platform — the per-sample cost the
// Lab service pays in steady state.
func BenchmarkRunPanelFig4(b *testing.B) {
	p, err := advdiag.DesignPlatform(fig4PanelTargets, advdiag.WithPlatformSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	samples := []advdiag.Sample{{ID: "bench", Concentrations: fig4PanelSample}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := lab.RunPanels(samples)
		if out[0].Err != nil {
			b.Fatal(out[0].Err)
		}
	}
}

// BenchmarkRunMonitorTick measures one monitor tick through the public
// Lab.RunMonitor: the monitor-population shape of a 30 s trace with a
// 5 s baseline phase, on a calibration-warm glucose/lactate platform.
func BenchmarkRunMonitorTick(b *testing.B) {
	p, err := advdiag.DesignPlatform([]string{"glucose", "lactate"}, advdiag.WithPlatformSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	req := advdiag.MonitorRequest{ID: "bench", Target: "glucose", ConcentrationMM: 2,
		DurationSeconds: 30, BaselineSeconds: 5, AgeHours: 36}
	if out := lab.RunMonitor(req); out.Err != nil { // warm the calibration cache
		b.Fatal(out.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Tick, req.Seed = i, uint64(i)
		if out := lab.RunMonitor(req); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}
