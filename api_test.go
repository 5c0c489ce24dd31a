package advdiag_test

import (
	"math"
	"strings"
	"testing"

	"advdiag"
)

func TestTargetsAndProbes(t *testing.T) {
	targets := advdiag.Targets()
	if len(targets) < 14 {
		t.Fatalf("only %d targets registered", len(targets))
	}
	probes := advdiag.ProbesFor("cholesterol")
	if len(probes) != 2 {
		t.Fatalf("cholesterol probes: %v", probes)
	}
}

func TestNewSensorDefaults(t *testing.T) {
	s, err := advdiag.NewSensor("glucose")
	if err != nil {
		t.Fatal(err)
	}
	if s.Probe() != "glucose oxidase" {
		t.Fatalf("default probe %q", s.Probe())
	}
	if s.Technique() != "chronoamperometry" {
		t.Fatalf("technique %q", s.Technique())
	}
	d, err := advdiag.NewSensor("benzphetamine")
	if err != nil {
		t.Fatal(err)
	}
	if d.Technique() != "cyclic voltammetry" {
		t.Fatalf("drug technique %q", d.Technique())
	}
	if _, err := advdiag.NewSensor("unobtainium"); err == nil {
		t.Fatal("unknown target must fail")
	}
}

func TestWithProbeSelectsAlternative(t *testing.T) {
	s, err := advdiag.NewSensor("cholesterol", advdiag.WithProbe("cholesterol oxidase"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Probe() != "cholesterol oxidase" {
		t.Fatalf("probe %q", s.Probe())
	}
	if s.Technique() != "chronoamperometry" {
		t.Fatal("cholesterol oxidase must use chronoamperometry")
	}
}

func TestMeasureSteadyStateScalesWithConcentration(t *testing.T) {
	// One draw is too noisy to pin the ratio (a single seed leaves the
	// band for about one seed in four), so compare mean responses over
	// a fixed set of seeds.
	const seeds = 32
	var low, high float64
	for seed := uint64(1); seed <= seeds; seed++ {
		s, err := advdiag.NewSensor("glucose", advdiag.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		lo, err := s.MeasureSteadyState(0.5)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := s.MeasureSteadyState(3)
		if err != nil {
			t.Fatal(err)
		}
		low += lo / seeds
		high += hi / seeds
	}
	if high <= low {
		t.Fatalf("response must grow with concentration: %g vs %g µA", low, high)
	}
	// Roughly linear in the published range (within the MM curvature):
	// 6× concentration → 4–6.5× signal.
	ratio := high / low
	if ratio < 4 || ratio > 6.5 {
		t.Fatalf("mean response ratio %g over %d seeds for 6× concentration", ratio, seeds)
	}
	t.Logf("mean response ratio %.2f over %d seeds", ratio, seeds)
}

func TestBareElectrodeLosesSensitivity(t *testing.T) {
	cnt, err := advdiag.NewSensor("glucose", advdiag.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := advdiag.NewSensor("glucose", advdiag.WithSeed(5), advdiag.WithBareElectrode())
	if err != nil {
		t.Fatal(err)
	}
	iCNT, err := cnt.MeasureSteadyState(2)
	if err != nil {
		t.Fatal(err)
	}
	iBare, err := bare.MeasureSteadyState(2)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §III: nanostructures bring much larger signals.
	if iCNT/iBare < 3 {
		t.Fatalf("CNT gain too small: %g vs %g µA", iCNT, iBare)
	}
}

func TestCalibrateGlucoseTableIII(t *testing.T) {
	s, err := advdiag.NewSensor("glucose", advdiag.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	var grid []float64
	for c := 0.25; c <= 6.0; c += 0.25 {
		grid = append(grid, c)
	}
	rep, err := s.Calibrate(grid)
	if err != nil {
		t.Fatal(err)
	}
	// Shape check against Table III: sensitivity within 20 %, LOD within
	// 2.5×, linear top within 25 %.
	if math.Abs(rep.SensitivityPaper-27.7)/27.7 > 0.20 {
		t.Errorf("sensitivity %g, paper 27.7", rep.SensitivityPaper)
	}
	if rep.LODMicroMolar < 575/2.5 || rep.LODMicroMolar > 575*2.5 {
		t.Errorf("LOD %g µM, paper 575", rep.LODMicroMolar)
	}
	if math.Abs(rep.LinearHiMM-4)/4 > 0.25 {
		t.Errorf("linear top %g mM, paper 4", rep.LinearHiMM)
	}
	if rep.R2 < 0.97 {
		t.Errorf("R² %g", rep.R2)
	}
}

func TestMonitorFig3(t *testing.T) {
	s, err := advdiag.NewSensor("glucose", advdiag.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := s.Monitor(150, advdiag.InjectionEvent{AtSeconds: 10, DeltaMM: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 3: ≈30 s to steady state.
	if mon.T90Seconds < 20 || mon.T90Seconds > 40 {
		t.Fatalf("t90 = %g s, want ≈30", mon.T90Seconds)
	}
	if !mon.Settled {
		t.Fatal("monitoring trace must settle")
	}
	if mon.SteadyMicroAmps <= mon.BaselineMicroAmps {
		t.Fatal("injection must raise the current")
	}
	if len(mon.TimesSeconds) != len(mon.CurrentsMicroAmps) {
		t.Fatal("trace length mismatch")
	}
}

func TestMonitorRejectsCVSensor(t *testing.T) {
	d, err := advdiag.NewSensor("benzphetamine")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Monitor(60, advdiag.InjectionEvent{AtSeconds: 10, DeltaMM: 1}); err == nil {
		t.Fatal("monitoring a CV sensor must fail")
	}
}

func TestRunVoltammetryDualTarget(t *testing.T) {
	d, err := advdiag.NewSensor("benzphetamine", advdiag.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	vg, err := d.RunVoltammetry(map[string]float64{"benzphetamine": 1.0, "aminopyrine": 4.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(vg.Peaks) != 2 {
		t.Fatalf("found %d peaks, want 2 (dual target)", len(vg.Peaks))
	}
	// One near −250, one near −400; aminopyrine much larger.
	var benz, amino *advdiag.VoltammetricPeak
	for i := range vg.Peaks {
		pk := &vg.Peaks[i]
		if math.Abs(pk.PotentialMV-(-250)) < 60 {
			benz = pk
		}
		if math.Abs(pk.PotentialMV-(-400)) < 60 {
			amino = pk
		}
	}
	if benz == nil || amino == nil {
		t.Fatalf("peaks: %+v", vg.Peaks)
	}
	if amino.HeightMicroAmps <= benz.HeightMicroAmps {
		t.Fatal("4 mM aminopyrine must out-peak 1 mM benzphetamine")
	}
	if len(vg.PotentialsMV) == 0 || len(vg.PotentialsMV) != len(vg.CurrentsMicroAmps) {
		t.Fatal("voltammogram curve missing")
	}
}

func TestDesignPlatformFig4(t *testing.T) {
	p, err := advdiag.DesignPlatform(
		[]string{"glucose", "lactate", "glutamate", "benzphetamine", "aminopyrine", "cholesterol"},
		advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.WorkingElectrodes()); got != 5 {
		t.Fatalf("%d WEs, want 5", got)
	}
	desc := p.Describe()
	for _, frag := range []string{"mux", "potentiostat", "CYP2B4"} {
		if !strings.Contains(desc, frag) {
			t.Errorf("description missing %q", frag)
		}
	}
	if !strings.Contains(p.DOT(), "digraph") {
		t.Error("DOT output malformed")
	}
	if !strings.Contains(p.Schedule(), "samples/h") {
		t.Error("schedule missing throughput")
	}
}

func TestRunPanelAccuracy(t *testing.T) {
	p, err := advdiag.DesignPlatform(
		[]string{"glucose", "lactate", "benzphetamine", "aminopyrine"},
		advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	sample := map[string]float64{"glucose": 2, "lactate": 1, "benzphetamine": 0.8, "aminopyrine": 4}
	res, err := p.RunPanel(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Readings) != 4 {
		t.Fatalf("%d readings", len(res.Readings))
	}
	for _, r := range res.Readings {
		rel := math.Abs(r.EstimatedMM-r.TrueMM) / r.TrueMM
		// Within 30 % across the panel (blank noise and shared-electrode
		// decomposition included).
		if rel > 0.30 {
			t.Errorf("%s: estimate %g mM vs true %g (%.0f%% off)", r.Target, r.EstimatedMM, r.TrueMM, rel*100)
		}
	}
}

func TestExploreDesigns(t *testing.T) {
	all, pareto, err := advdiag.ExploreDesigns([]string{"glucose", "cholesterol"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || len(pareto) == 0 {
		t.Fatalf("exploration empty: %d candidates, %d Pareto", len(all), len(pareto))
	}
	if len(pareto) > len(all) {
		t.Fatal("Pareto front bigger than the space")
	}
}

func TestPlatformWithInterferentWarnings(t *testing.T) {
	p, err := advdiag.DesignPlatform([]string{"glucose"},
		advdiag.WithInterferents("dopamine"), advdiag.WithCDSBlank())
	if err != nil {
		t.Fatal(err)
	}
	warnings := p.Violations()
	if len(warnings) < 2 {
		t.Fatalf("want direct-oxidizer and cds warnings, got %v", warnings)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		s, err := advdiag.NewSensor("glucose", advdiag.WithSeed(123))
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.MeasureSteadyState(1.5)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if run() != run() {
		t.Fatal("same seed must give identical measurements")
	}
}

func TestWithReplicasAveragesReadings(t *testing.T) {
	p, err := advdiag.DesignPlatform([]string{"glucose"},
		advdiag.WithReplicas(3), advdiag.WithPlatformSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.WorkingElectrodes()); got != 3 {
		t.Fatalf("%d WEs, want 3 replicas", got)
	}
	res, err := p.RunPanel(map[string]float64{"glucose": 2})
	if err != nil {
		t.Fatal(err)
	}
	// The three replicate readings merge into one averaged reading.
	if len(res.Readings) != 1 {
		t.Fatalf("%d readings, want 1 merged", len(res.Readings))
	}
	r := res.Readings[0]
	if !strings.Contains(r.WE, "×3") {
		t.Fatalf("merged reading should name the replica count, got %q", r.WE)
	}
	if math.Abs(r.EstimatedMM-2)/2 > 0.2 {
		t.Fatalf("averaged estimate %g mM vs true 2", r.EstimatedMM)
	}
}
