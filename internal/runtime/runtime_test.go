package runtime

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"advdiag/internal/core"
	"advdiag/internal/enzyme"
)

// TestSampleSeedIndependence: distinct indexes over one base must give
// distinct seeds (the splitmix64 mix is a bijection per base), and the
// same (base, idx) pair must be stable.
func TestSampleSeedIndependence(t *testing.T) {
	seen := map[uint64]int{}
	for idx := 0; idx < 4096; idx++ {
		s := SampleSeed(42, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("indexes %d and %d collide on seed %016x", prev, idx, s)
		}
		seen[s] = idx
	}
	if SampleSeed(42, 7) != SampleSeed(42, 7) {
		t.Fatal("SampleSeed is not a pure function")
	}
	if SampleSeed(42, 7) == SampleSeed(43, 7) {
		t.Fatal("base seed does not reach the mix")
	}
}

// TestValidateSample pins the validation contract the public entry
// points rely on.
func TestValidateSample(t *testing.T) {
	bad := []map[string]float64{
		{"glucose": math.NaN()},
		{"glucose": math.Inf(1)},
		{"glucose": math.Inf(-1)},
		{"glucose": -0.1},
		{"glucose": 2 * MaxSampleConcentrationMM},
		{"unobtainium": 1},
	}
	for i, s := range bad {
		if err := ValidateSample(s); err == nil {
			t.Errorf("case %d (%v) must fail", i, s)
		}
	}
	good := []map[string]float64{
		nil,
		{},
		{"glucose": 0},
		{"glucose": 2, "dopamine": 0.05},
	}
	for i, s := range good {
		if err := ValidateSample(s); err != nil {
			t.Errorf("case %d (%v) must pass: %v", i, s, err)
		}
	}
}

// TestMergeReplicas: single readings pass through untouched, replicate
// readings average with a (×k) electrode label, and order follows first
// appearance.
func TestMergeReplicas(t *testing.T) {
	in := []Reading{
		{Target: "glucose", WE: "WE1", MeasuredMicroAmps: 2, EstimatedMM: 1.0},
		{Target: "lactate", WE: "WE2", MeasuredMicroAmps: 5, EstimatedMM: 0.5},
		{Target: "glucose", WE: "WE3", MeasuredMicroAmps: 4, EstimatedMM: 3.0},
	}
	out := MergeReplicas(in)
	if len(out) != 2 {
		t.Fatalf("got %d readings, want 2", len(out))
	}
	g := out[0]
	if g.Target != "glucose" || g.MeasuredMicroAmps != 3 || g.EstimatedMM != 2 {
		t.Fatalf("merged glucose reading %+v", g)
	}
	if !strings.Contains(g.WE, "(×2)") {
		t.Fatalf("merged WE label %q lacks the replica count", g.WE)
	}
	if out[1].Target != "lactate" || out[1].MeasuredMicroAmps != 5 {
		t.Fatalf("singleton reading changed: %+v", out[1])
	}
	if got := MergeReplicas(nil); got != nil {
		t.Fatalf("empty input must stay empty, got %v", got)
	}
}

// mergeReplicasReference is the MergeReplicas that counted and summed
// replicas in two maps, kept as the bit-identity oracle.
func mergeReplicasReference(in []Reading) []Reading {
	counts := map[string]int{}
	for _, r := range in {
		counts[r.Target]++
	}
	merged := map[string]*Reading{}
	for _, r := range in {
		if counts[r.Target] == 1 {
			continue
		}
		m, ok := merged[r.Target]
		if !ok {
			cp := r
			cp.WE = r.WE + "+"
			merged[r.Target] = &cp
			continue
		}
		m.MeasuredMicroAmps += r.MeasuredMicroAmps
		m.EstimatedMM += r.EstimatedMM
	}
	var out []Reading
	seen := map[string]bool{}
	for _, r := range in {
		if counts[r.Target] == 1 {
			out = append(out, r)
			continue
		}
		if seen[r.Target] {
			continue
		}
		seen[r.Target] = true
		m := merged[r.Target]
		n := float64(counts[r.Target])
		m.MeasuredMicroAmps /= n
		m.EstimatedMM /= n
		m.WE = fmt.Sprintf("%s(×%d)", m.WE, counts[r.Target])
		out = append(out, *m)
	}
	return out
}

// TestMergeReplicasMatchesReference holds MergeReplicas to the map
// version bit for bit on random panels of 0–14 readings over 1–6
// targets: every label, every float's bits, and the order.
func TestMergeReplicasMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
	for c := 0; c < 5000; c++ {
		in := make([]Reading, rng.IntN(15))
		targets := 1 + rng.IntN(6)
		for i := range in {
			in[i] = Reading{
				Target:            fmt.Sprint("t", rng.IntN(targets)),
				WE:                fmt.Sprint("WE", i+1),
				Probe:             fmt.Sprint("p", rng.IntN(3)),
				MeasuredMicroAmps: rng.NormFloat64() * math.Pow(10, float64(rng.IntN(12)-6)),
				EstimatedMM:       rng.ExpFloat64(),
				TrueMM:            rng.Float64(),
				PeakMV:            -400 * rng.Float64(),
			}
		}
		got, want := MergeReplicas(in), mergeReplicasReference(in)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("case %d: %d readings (nil %t), reference %d (nil %t)", c, len(got), got == nil, len(want), want == nil)
		}
		for i, w := range want {
			g := got[i]
			if g.Target != w.Target || g.WE != w.WE || g.Probe != w.Probe || !bits(g.MeasuredMicroAmps, w.MeasuredMicroAmps) ||
				!bits(g.EstimatedMM, w.EstimatedMM) || !bits(g.TrueMM, w.TrueMM) || !bits(g.PeakMV, w.PeakMV) {
				t.Fatalf("case %d reading %d: %+v, reference %+v", c, i, g, w)
			}
		}
	}
}

// TestInvertEffective covers the saturation inversion's clamps.
func TestInvertEffective(t *testing.T) {
	b := &enzyme.Binding{Km: 2}
	if got := InvertEffective(b, 0); got != 0 {
		t.Fatalf("zero amplitude inverted to %g", got)
	}
	if got := InvertEffective(b, -1); got != 0 {
		t.Fatalf("negative amplitude inverted to %g", got)
	}
	// Within range: C = x·Km/(Km−x).
	if got := float64(InvertEffective(b, 1)); math.Abs(got-2) > 1e-12 {
		t.Fatalf("InvertEffective(1) = %g, want 2", got)
	}
	// At/above saturation the inversion clamps instead of exploding.
	hi := float64(InvertEffective(b, 2))
	if math.IsInf(hi, 0) || math.IsNaN(hi) || hi < 0 {
		t.Fatalf("saturated inversion produced %g", hi)
	}
}

// TestCalibrationTableSharesReplicas: the table holds one entry per
// planned electrode, and replicated electrodes share their
// construction's entry while distinct constructions get their own.
// A cold executor builds the same table on its first run.
func TestCalibrationTableSharesReplicas(t *testing.T) {
	best, err := core.BestWith(core.Requirements{
		Targets:      []core.TargetSpec{{Species: "glucose"}, {Species: "benzphetamine"}},
		Replicas:     3,
		WithBlankCDS: true,
	}, core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.Synthesize(best)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(inner, 9)
	if _, err := e.Run(map[string]float64{"glucose": 1, "benzphetamine": 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	eps := inner.Candidate.Electrodes
	if len(e.calib) != len(eps) {
		t.Fatalf("%d calibration entries for %d electrodes", len(e.calib), len(eps))
	}
	distinct := map[*weCalib]bool{}
	for i, ep := range eps {
		if ep.Blank {
			if e.calib[i] != nil {
				t.Fatalf("blank electrode %s has a calibration entry", ep.Name)
			}
			continue
		}
		distinct[e.calib[i]] = true
		for j := range eps[:i] {
			if eps[j].Blank {
				continue
			}
			if same := e.calib[i] == e.calib[j]; same != sameConstruction(eps[i], eps[j]) {
				t.Fatalf("electrodes %s and %s: shared entry %v, same construction %v", eps[j].Name, ep.Name, same, !same)
			}
		}
	}
	if len(distinct) != 2 {
		t.Fatalf("%d distinct calibration entries, want 2 (one per construction)", len(distinct))
	}
}

// TestExecutorEndToEnd: an Executor over a designed platform builds
// its calibration table on Warm, one entry per non-blank electrode,
// runs a panel deterministically and never rebuilds the table.
func TestExecutorEndToEnd(t *testing.T) {
	best, err := core.BestWith(core.Requirements{
		Targets: []core.TargetSpec{{Species: "glucose"}, {Species: "benzphetamine"}},
	}, core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.Synthesize(best)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(inner, 9)
	targets := e.Targets()
	if len(targets) != 2 || targets[0] != "benzphetamine" || targets[1] != "glucose" {
		t.Fatalf("Targets() = %v", targets)
	}
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	table := append([]*weCalib(nil), e.calib...)
	for i, ep := range inner.Candidate.Electrodes {
		if (table[i] == nil) != ep.Blank {
			t.Fatalf("electrode %s (blank %v) has calibration entry %v", ep.Name, ep.Blank, table[i])
		}
	}
	sample := map[string]float64{"glucose": 1.2, "benzphetamine": 0.3}
	a, err := e.Run(sample, SampleSeed(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(sample, SampleSeed(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Readings) == 0 || len(a.Readings) != len(b.Readings) {
		t.Fatalf("panel readings: %d vs %d", len(a.Readings), len(b.Readings))
	}
	for i := range a.Readings {
		if a.Readings[i] != b.Readings[i] {
			t.Fatalf("reading %d not bit-reproducible: %+v vs %+v", i, a.Readings[i], b.Readings[i])
		}
	}
	c, err := e.Run(sample, SampleSeed(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Readings {
		if a.Readings[i] != c.Readings[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different sample seeds produced identical noise draws")
	}
	for i := range table {
		if e.calib[i] != table[i] {
			t.Fatalf("panel runs replaced the warmed calibration of electrode %d", i)
		}
	}
	if _, err := e.Run(map[string]float64{"glucose": math.NaN()}, 1); err == nil {
		t.Fatal("invalid sample must fail")
	}
}
