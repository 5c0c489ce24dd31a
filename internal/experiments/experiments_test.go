package experiments

import (
	"math"
	"strings"
	"testing"
)

// These are the integration tests of the whole repository: every
// experiment must run end to end and land within the reproduction bands
// EXPERIMENTS.md claims.

func TestTableIExact(t *testing.T) {
	res, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"glucose_mV": 550, "lactate_mV": 650, "glutamate_mV": 600, "cholesterol_mV": 700,
	}
	for k, v := range want {
		if got := res.Metrics[k]; math.Abs(got-v) > 10.01 {
			t.Errorf("%s = %g, want %g ± 10", k, got, v)
		}
	}
}

func TestTableIIWithinTwoMillivolts(t *testing.T) {
	res, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"CYP1A2/clozapine_mV":     -265,
		"CYP3A4/erythromycin_mV":  -625,
		"CYP3A4/indinavir_mV":     -750,
		"CYP11A1/cholesterol_mV":  -400,
		"CYP2B4/benzphetamine_mV": -250,
		"CYP2B4/aminopyrine_mV":   -400,
		"CYP2B6/bupropion_mV":     -450,
		"CYP2B6/lidocaine_mV":     -450,
		"CYP2C9/torsemide_mV":     -19,
		"CYP2C9/diclofenac_mV":    -41,
		"CYP2E1/p-nitrophenol_mV": -300,
	}
	for k, v := range want {
		got, ok := res.Metrics[k]
		if !ok {
			t.Errorf("%s: peak not detected", k)
			continue
		}
		if math.Abs(got-v) > 5 {
			t.Errorf("%s = %g mV, want %g ± 5", k, got, v)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	res, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	wantS := map[string]float64{
		"glucose_S": 27.7, "lactate_S": 40.1, "glutamate_S": 25.5,
		"benzphetamine_S": 0.28, "aminopyrine_S": 2.8, "cholesterol_S": 112,
	}
	for k, v := range wantS {
		got := res.Metrics[k]
		if math.Abs(got-v)/v > 0.20 {
			t.Errorf("%s = %g, paper %g (>20%% off)", k, got, v)
		}
	}
	// Sensitivity ordering preserved.
	m := res.Metrics
	if !(m["lactate_S"] > m["glucose_S"] && m["glucose_S"] > m["glutamate_S"]) {
		t.Error("oxidase sensitivity ordering broken")
	}
	if !(m["cholesterol_S"] > m["aminopyrine_S"] && m["aminopyrine_S"] > m["benzphetamine_S"]) {
		t.Error("CYP sensitivity ordering broken")
	}
	// Linear-range top within 25 %.
	if math.Abs(m["glucose_hi_mM"]-4)/4 > 0.25 {
		t.Errorf("glucose linear top %g, paper 4", m["glucose_hi_mM"])
	}
	// LOD within 2.5×.
	if m["glucose_LOD_uM"] < 575/2.5 || m["glucose_LOD_uM"] > 575*2.5 {
		t.Errorf("glucose LOD %g µM, paper 575", m["glucose_LOD_uM"])
	}
}

func TestFig1Quality(t *testing.T) {
	res, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["control_error_mV"] > 1 {
		t.Errorf("control error %g mV", res.Metrics["control_error_mV"])
	}
	if res.Metrics["tia_r2"] < 0.999999 {
		t.Errorf("TIA linearity R² %g", res.Metrics["tia_r2"])
	}
}

func TestFig3TimeResponse(t *testing.T) {
	res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if t90 := res.Metrics["t90_s"]; t90 < 20 || t90 > 40 {
		t.Errorf("t90 = %g s, paper ≈30", t90)
	}
}

func TestFig4PanelAccuracy(t *testing.T) {
	res, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["WEs"] != 5 {
		t.Fatalf("%g WEs, want 5", res.Metrics["WEs"])
	}
	for _, k := range []string{"glucose_rel_err", "lactate_rel_err", "benzphetamine_rel_err",
		"aminopyrine_rel_err", "cholesterol_rel_err"} {
		if res.Metrics[k] > 0.30 {
			t.Errorf("%s = %.0f %%", k, res.Metrics[k]*100)
		}
	}
	// Glutamate reads near its LOD; allow a wider band.
	if res.Metrics["glutamate_rel_err"] > 0.60 {
		t.Errorf("glutamate_rel_err = %.0f %%", res.Metrics["glutamate_rel_err"]*100)
	}
}

func TestSweepRateMonotoneDegradation(t *testing.T) {
	res, err := SweepRateLimit()
	if err != nil {
		t.Fatal(err)
	}
	slow := res.Metrics["shift_50"]
	fast := res.Metrics["shift_2000"]
	if math.Abs(slow) > 3 {
		t.Errorf("shift at 50 mV/s = %g mV, want ≈0", slow)
	}
	if fast > -15 {
		t.Errorf("shift at 2000 mV/s = %g mV, want strongly negative", fast)
	}
}

func TestNoiseAblationChopper(t *testing.T) {
	res, err := NoiseAblation()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["floor_chopped_nA"] >= res.Metrics["floor_plain_nA"] {
		t.Error("chopper must lower the noise floor")
	}
	if math.Abs(res.Metrics["cds_residual_mV"]) > 0.01 {
		t.Errorf("CDS residual %g mV", res.Metrics["cds_residual_mV"])
	}
}

func TestStructureAblationCrosstalkSmall(t *testing.T) {
	res, err := StructureAblation()
	if err != nil {
		t.Fatal(err)
	}
	x := res.Metrics["crosstalk_pct"]
	if x <= 0 || x > 5 {
		t.Errorf("cross-talk %g %%, want small but present", x)
	}
	if !(res.Metrics["area_shared-chamber"] < res.Metrics["area_chamber-per-electrode"]) {
		t.Error("chamber isolation must cost area")
	}
}

func TestTimeBasedReadoutLinearity(t *testing.T) {
	res, err := TimeBasedReadout()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["ifc_r2"] < 0.9999 {
		t.Errorf("IFC linearity R² %g", res.Metrics["ifc_r2"])
	}
}

func TestLongTermDriftOrdering(t *testing.T) {
	res, err := LongTermDrift()
	if err != nil {
		t.Fatal(err)
	}
	bare := res.Metrics["drift_bare film, no recalibration"]
	recal := res.Metrics["drift_bare film, recalibrate every 24 h"]
	poly := res.Metrics["drift_polymer-stabilized, no recalibration"]
	if !(recal < bare && poly < bare) {
		t.Errorf("drift ordering broken: bare %g, recal %g, polymer %g", bare, recal, poly)
	}
}

func TestResultRendering(t *testing.T) {
	res, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, frag := range []string{"E1", "paper:", "measured:", "glucose oxidase"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q", frag)
		}
	}
}
