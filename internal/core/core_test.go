package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
)

// TestExploreParallelSerialEquivalence pins the concurrent explorer's
// headline guarantee: for the same Requirements, the candidate ranking
// is identical to the plain serial enumeration (serialExplore in
// explore_test.go) at any worker count.
func TestExploreParallelSerialEquivalence(t *testing.T) {
	reqs := map[string]Requirements{
		"fig4":      fig4Targets(),
		"replicas":  {Targets: fig4Targets().Targets, Replicas: 3},
		"throttled": {Targets: fig4Targets().Targets, SamplePeriod: 120},
		"single":    {Targets: []TargetSpec{{Species: "cholesterol"}}},
	}
	for name, req := range reqs {
		want, refErrs := serialExplore(req)
		if len(refErrs) != 0 {
			t.Fatalf("%s: reference explorer errored: %v", name, refErrs)
		}
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			got, err := ExploreWith(req, ExploreOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d candidates, serial reference has %d",
					name, workers, len(got), len(want))
			}
			for i := range want {
				w, g := candidateFingerprint(want[i]), candidateFingerprint(got[i])
				if w != g {
					t.Fatalf("%s workers=%d: candidate %d diverges:\nserial:   %s\nparallel: %s",
						name, workers, i, w, g)
				}
			}
		}
	}
}

// fig4Targets is the paper's §III multi-panel: glucose, lactate,
// glutamate (oxidases), benzphetamine + aminopyrine (CYP2B4), and
// cholesterol.
func fig4Targets() Requirements {
	return Requirements{Targets: []TargetSpec{
		{Species: "glucose"}, {Species: "lactate"}, {Species: "glutamate"},
		{Species: "benzphetamine"}, {Species: "aminopyrine"}, {Species: "cholesterol"},
	}}
}

func TestBestRecoversFig4Demonstrator(t *testing.T) {
	best, err := Best(fig4Targets())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's own design: five working electrodes in one shared
	// chamber with a multiplexed readout, benzphetamine and aminopyrine
	// grouped on the CYP2B4 electrode.
	if len(best.Electrodes) != 5 {
		t.Fatalf("best has %d WEs, want 5 (Fig. 4)", len(best.Electrodes))
	}
	if best.Choice.Chambers != SharedChamber {
		t.Fatalf("best chambers %v, want shared", best.Choice.Chambers)
	}
	if best.Choice.Sharing != SharedMux {
		t.Fatalf("best sharing %v, want mux", best.Choice.Sharing)
	}
	var grouped *ElectrodePlan
	for i := range best.Electrodes {
		if len(best.Electrodes[i].Assays) == 2 {
			grouped = &best.Electrodes[i]
		}
	}
	if grouped == nil {
		t.Fatal("no dual-target electrode in the best design")
	}
	if grouped.Assays[0].Probe != "CYP2B4" {
		t.Fatalf("dual-target probe %s, want CYP2B4", grouped.Assays[0].Probe)
	}
}

func TestExploreEnumeratesBothCholesterolRoutes(t *testing.T) {
	cands, err := Explore(Requirements{Targets: []TargetSpec{{Species: "cholesterol"}}})
	if err != nil {
		t.Fatal(err)
	}
	probes := map[string]bool{}
	for _, c := range cands {
		for _, e := range c.Electrodes {
			for _, a := range e.Assays {
				probes[a.Probe] = true
			}
		}
	}
	if !probes["cholesterol oxidase"] || !probes["CYP11A1"] {
		t.Fatalf("expected both cholesterol probes in the space, got %v", probes)
	}
}

func TestPeakSeparationRule(t *testing.T) {
	// CYP2B6 senses bupropion and lidocaine at the same potential
	// (−450 mV): grouping them on one electrode must be infeasible.
	req := Requirements{Targets: []TargetSpec{
		{Species: "bupropion"}, {Species: "lidocaine"},
	}}
	grouped, err := Evaluate(req, Choice{
		Assays: map[string]enzyme.Assay{
			"bupropion": assayOf(t, "bupropion", "CYP2B6"),
			"lidocaine": assayOf(t, "lidocaine", "CYP2B6"),
		},
		GroupSameIsoform: true,
		Chambers:         SharedChamber,
		Sharing:          SharedMux,
	})
	if err != nil {
		t.Fatal(err)
	}
	if grouped.Feasible {
		t.Fatal("coincident peaks grouped on one electrode must be infeasible")
	}
	found := false
	for _, v := range grouped.Violations {
		if v.Rule == "peak-separation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing peak-separation violation: %v", grouped.Violations)
	}
	// The explorer must still find a feasible design (separate WEs).
	best, err := Best(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range best.Electrodes {
		if len(e.Assays) > 1 {
			t.Fatal("best design must not group coincident peaks")
		}
	}
}

func assayOf(t *testing.T, target, probe string) enzyme.Assay {
	t.Helper()
	for _, a := range enzyme.AssaysFor(target) {
		if a.Probe == probe {
			return a
		}
	}
	t.Fatalf("no %s assay via %s", target, probe)
	return enzyme.Assay{}
}

func TestBenzphetamineAminopyrineGroupingFeasible(t *testing.T) {
	// 150 mV separation ≥ the 100 mV default: grouping is allowed.
	req := Requirements{Targets: []TargetSpec{
		{Species: "benzphetamine"}, {Species: "aminopyrine"},
	}}
	cand, err := Evaluate(req, Choice{
		Assays: map[string]enzyme.Assay{
			"benzphetamine": assayOf(t, "benzphetamine", "CYP2B4"),
			"aminopyrine":   assayOf(t, "aminopyrine", "CYP2B4"),
		},
		GroupSameIsoform: true,
		Chambers:         SharedChamber,
		Sharing:          SharedMux,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cand.Feasible {
		t.Fatalf("CYP2B4 grouping must be feasible: %v", cand.Violations)
	}
	if len(cand.Electrodes) != 1 {
		t.Fatalf("grouped design has %d WEs, want 1", len(cand.Electrodes))
	}
	// A stricter separation requirement forbids it.
	req.PeakSeparationMin = phys.MilliVolts(200)
	strict, err := Evaluate(req, Choice{
		Assays: map[string]enzyme.Assay{
			"benzphetamine": assayOf(t, "benzphetamine", "CYP2B4"),
			"aminopyrine":   assayOf(t, "aminopyrine", "CYP2B4"),
		},
		GroupSameIsoform: true,
		Chambers:         SharedChamber,
		Sharing:          SharedMux,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Feasible {
		t.Fatal("200 mV requirement must forbid the 150 mV pair")
	}
}

func TestSelectReadout(t *testing.T) {
	// Oxidase-class currents on a cm² electrode: the paper's ±10 µA /
	// 10 nA class.
	rc, err := SelectReadout(phys.MicroAmps(5), phys.NanoAmps(12))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Name != "readout-10uA" {
		t.Fatalf("selected %s, want readout-10uA", rc.Name)
	}
	// CYP-class currents on a large electrode: the ±100 µA class.
	rc2, err := SelectReadout(phys.MicroAmps(50), phys.NanoAmps(120))
	if err != nil {
		t.Fatal(err)
	}
	if rc2.Name != "readout-100uA" {
		t.Fatalf("selected %s, want readout-100uA", rc2.Name)
	}
	// Sub-nA currents on the 0.23 mm² platform: the electrometer class.
	rc3, err := SelectReadout(phys.NanoAmps(2), phys.Current(45e-12))
	if err != nil {
		t.Fatal(err)
	}
	if rc3.Name != "readout-100nA" {
		t.Fatalf("selected %s, want readout-100nA", rc3.Name)
	}
	// Impossible resolution.
	if _, err := SelectReadout(phys.MicroAmps(50), phys.Current(1e-12)); err == nil {
		t.Fatal("1 pA resolution must be unsatisfiable")
	}
}

// TestSingleReadoutCoversEveryAssay pins that a lone electrode of every
// registered assay, bare or nanostructured, has a catalog readout, so
// NewSensor and longterm.NewProber, which compute it once at
// construction, never fail there for a registered probe.
func TestSingleReadoutCoversEveryAssay(t *testing.T) {
	assays := enzyme.AllAssays()
	if len(assays) != 15 {
		t.Fatalf("%d registered assays, want 15", len(assays))
	}
	for _, a := range assays {
		for _, nano := range []electrode.Nanostructure{electrode.Bare, electrode.CNT} {
			if _, err := SingleReadout(a, nano); err != nil {
				t.Errorf("%s on %s: %v", a, nano, err)
			}
		}
	}
}

func TestPaperReadoutClassesAtCitedAreas(t *testing.T) {
	// E8 logic: at the cited literature electrode areas (~0.25 cm²) the
	// explorer recovers the paper's two readout classes.
	area := phys.SquareCentimetres(0.25)
	ox, _ := enzyme.OxidaseByName("glucose oxidase")
	sI := float64(ox.SensitivityAt(ox.Applied, enzyme.CNTGain)) * float64(area)
	maxI := phys.Current(sI * 4)           // 4 mM top
	resReq := phys.Current(sI * 0.575 / 3) // LOD current / 3σ
	rc, err := SelectReadout(maxI, resReq)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Name != "readout-10uA" && rc.Name != "readout-100uA" {
		t.Fatalf("cited-area oxidase readout %s; paper names ±10 µA", rc.Name)
	}
}

func TestCrosstalkRuleTriggersOnTightBudget(t *testing.T) {
	req := fig4Targets()
	req.CrosstalkBudget = 1e-6 // absurdly tight
	cands, err := Explore(req)
	if err != nil {
		t.Fatal(err)
	}
	// Shared-chamber candidates with multiple oxidases must now fail on
	// cross-talk, but per-electrode chambers still work.
	var sharedFeasible, isolatedFeasible bool
	for _, c := range cands {
		if !c.Feasible {
			continue
		}
		switch c.Choice.Chambers {
		case SharedChamber:
			sharedFeasible = true
		case ChamberPerElectrode:
			isolatedFeasible = true
		}
	}
	if sharedFeasible {
		t.Fatal("tight cross-talk budget must kill shared-chamber designs")
	}
	if !isolatedFeasible {
		t.Fatal("isolated chambers must survive any cross-talk budget")
	}
}

func TestThroughputRule(t *testing.T) {
	req := fig4Targets()
	req.SamplePeriod = 120 // two minutes per panel
	cands, err := Explore(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Feasible && c.CycleTime > 120 {
			t.Fatalf("feasible candidate with cycle %g s violates the 120 s budget", c.CycleTime)
		}
	}
	best, err := Best(req)
	if err != nil {
		t.Fatal(err)
	}
	// Only the parallel per-electrode arrays meet a 2-minute panel.
	if !best.Parallel {
		t.Fatalf("a 120 s sample period needs parallel acquisition, got %s", best.Summary())
	}
}

func TestInterferentWarnings(t *testing.T) {
	req := fig4Targets()
	req.Interferents = []string{"dopamine"}
	req.WithBlankCDS = true
	best, err := Best(req)
	if err != nil {
		t.Fatal(err)
	}
	var direct, cds bool
	for _, v := range best.Violations {
		if !v.Warning {
			t.Fatalf("hard violation on a feasible design: %v", v)
		}
		if v.Rule == "direct-oxidizer" {
			direct = true
		}
		if v.Rule == "cds-blank" {
			cds = true
		}
	}
	if !direct || !cds {
		t.Fatalf("missing interferent warnings: %v", best.Violations)
	}
	// The CDS blank adds a sixth working electrode.
	if len(best.Electrodes) != 6 {
		t.Fatalf("CDS design has %d WEs, want 6", len(best.Electrodes))
	}
}

func TestParetoFront(t *testing.T) {
	cands, err := Explore(fig4Targets())
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(cands)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// No front member may dominate another.
	for _, a := range front {
		for _, b := range front {
			if a != b && dominates(a, b) {
				t.Fatalf("front member dominates another:\n%s\n%s", a.Summary(), b.Summary())
			}
		}
	}
	// The front must include both a cheap sequential and a fast parallel
	// design (the latency/cost trade-off of §II-A).
	var seqFound, parFound bool
	for _, c := range front {
		if c.Parallel {
			parFound = true
		} else {
			seqFound = true
		}
	}
	if !seqFound || !parFound {
		t.Fatal("front must span sequential and parallel designs")
	}
}

func TestBudgetMonotonicity(t *testing.T) {
	// More chambers must cost more (packaging + RE/CE + potentiostats).
	req := fig4Targets()
	choiceAt := func(p ChamberPolicy) *Candidate {
		asn := map[string]enzyme.Assay{}
		for _, tgt := range req.Targets {
			asn[tgt.Species] = enzyme.AssaysFor(tgt.Species)[0]
		}
		c, err := Evaluate(req, Choice{Assays: asn, GroupSameIsoform: true, Chambers: p, Sharing: SharedMux})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	shared := choiceAt(SharedChamber)
	perWE := choiceAt(ChamberPerElectrode)
	if perWE.Budget.AreaMM2 <= shared.Budget.AreaMM2 {
		t.Fatal("per-electrode chambers must cost more area")
	}
	if perWE.Budget.Cost <= shared.Budget.Cost {
		t.Fatal("per-electrode chambers must cost more")
	}
}

func TestMuxSharingCheaperThanDedicated(t *testing.T) {
	req := fig4Targets()
	asn := map[string]enzyme.Assay{}
	for _, tgt := range req.Targets {
		asn[tgt.Species] = enzyme.AssaysFor(tgt.Species)[0]
	}
	mux, err := Evaluate(req, Choice{Assays: asn, GroupSameIsoform: true, Chambers: SharedChamber, Sharing: SharedMux})
	if err != nil {
		t.Fatal(err)
	}
	ded, err := Evaluate(req, Choice{Assays: asn, GroupSameIsoform: true, Chambers: SharedChamber, Sharing: DedicatedChains})
	if err != nil {
		t.Fatal(err)
	}
	if mux.Budget.Cost >= ded.Budget.Cost {
		t.Fatalf("mux sharing (%v) must be cheaper than dedicated chains (%v) — De Venuto's point", mux.Budget, ded.Budget)
	}
	if mux.Budget.PowerUW >= ded.Budget.PowerUW {
		t.Fatal("mux sharing must use less power")
	}
}

func TestSynthesizePlatform(t *testing.T) {
	best, err := Best(fig4Targets())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Synthesize(best)
	if err != nil {
		t.Fatal(err)
	}
	// 5 WEs + RE + CE.
	if len(p.Electrodes) != 7 {
		t.Fatalf("%d physical electrodes, want 7", len(p.Electrodes))
	}
	if err := p.Design.Check(); err != nil {
		t.Fatalf("netlist check: %v", err)
	}
	if got := p.Plan.Throughput(); got <= 0 {
		t.Fatal("schedule must report positive throughput")
	}
	ascii := p.Design.ASCII()
	for _, frag := range []string{"mux", "potentiostat", "WE1", "readout"} {
		if !strings.Contains(ascii, frag) {
			t.Errorf("netlist ASCII missing %q", frag)
		}
	}
	// Chains instantiate for every WE.
	for _, ep := range best.Electrodes {
		chain, err := p.ChainFor(ep.Name, nil)
		if err != nil {
			t.Fatalf("ChainFor(%s): %v", ep.Name, err)
		}
		if err := chain.Validate(); err != nil {
			t.Fatalf("chain for %s invalid: %v", ep.Name, err)
		}
		if chain.Mux == nil {
			t.Fatalf("shared-mux design must put a mux into %s's chain", ep.Name)
		}
	}
	if _, err := p.ChainFor("nope", nil); err == nil {
		t.Fatal("unknown electrode must fail")
	}
}

func TestSynthesizeRejectsInfeasible(t *testing.T) {
	req := Requirements{Targets: []TargetSpec{
		{Species: "bupropion"}, {Species: "lidocaine"},
	}}
	cand, err := Evaluate(req, Choice{
		Assays: map[string]enzyme.Assay{
			"bupropion": assayOf(t, "bupropion", "CYP2B6"),
			"lidocaine": assayOf(t, "lidocaine", "CYP2B6"),
		},
		GroupSameIsoform: true,
		Chambers:         SharedChamber,
		Sharing:          SharedMux,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(cand); err == nil {
		t.Fatal("synthesizing an infeasible candidate must fail")
	}
}

func TestInstantiateCell(t *testing.T) {
	best, err := Best(fig4Targets())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Synthesize(best)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.WorkingElectrodes()); got != 5 {
		t.Fatalf("%d WEs in instantiated cell", got)
	}
}

func TestRequirementsValidate(t *testing.T) {
	if err := (Requirements{}).Validate(); err == nil {
		t.Error("empty targets must fail")
	}
	bad := Requirements{Targets: []TargetSpec{{Species: "unobtainium"}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown species must fail")
	}
	dup := Requirements{Targets: []TargetSpec{{Species: "glucose"}, {Species: "glucose"}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate target must fail")
	}
	badInt := Requirements{Targets: []TargetSpec{{Species: "glucose"}}, Interferents: []string{"nope"}}
	if err := badInt.Validate(); err == nil {
		t.Error("unknown interferent must fail")
	}
	ok := Requirements{Targets: []TargetSpec{{Species: "glucose"}}}
	if err := ok.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBudgetArithmetic(t *testing.T) {
	a := Budget{1, 2, 3}
	b := Budget{10, 20, 30}
	sum := a.Add(b)
	if sum.AreaMM2 != 11 || sum.PowerUW != 22 || sum.Cost != 33 {
		t.Fatalf("sum %v", sum)
	}
	sc := a.Scale(2)
	if sc.AreaMM2 != 2 || sc.PowerUW != 4 || sc.Cost != 6 {
		t.Fatalf("scale %v", sc)
	}
}

func TestCandidateThroughput(t *testing.T) {
	c := &Candidate{CycleTime: 360}
	if math.Abs(c.Throughput()-10) > 1e-9 {
		t.Fatalf("throughput %g", c.Throughput())
	}
}

func TestDedupeRemovesEquivalentChamberPolicies(t *testing.T) {
	// With a single CA target, shared-chamber and per-technique and
	// per-electrode chambers coincide structurally; Explore must dedupe.
	cands, err := Explore(Requirements{Targets: []TargetSpec{{Species: "glucose"}}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, c := range cands {
		seen[c.structuralKey()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("duplicate structural key %q", k)
		}
	}
}

func TestReplicasArrays(t *testing.T) {
	req := Requirements{
		Targets:  []TargetSpec{{Species: "glucose"}, {Species: "lactate"}},
		Replicas: 3,
	}
	best, err := Best(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Electrodes) != 6 {
		t.Fatalf("3× replica of 2 targets must give 6 WEs, got %d", len(best.Electrodes))
	}
	// Names must stay unique.
	seen := map[string]bool{}
	for _, e := range best.Electrodes {
		if seen[e.Name] {
			t.Fatalf("duplicate electrode name %s", e.Name)
		}
		seen[e.Name] = true
	}
	// Cost and panel time must exceed the single-set design.
	single, err := Best(Requirements{Targets: req.Targets})
	if err != nil {
		t.Fatal(err)
	}
	if best.Budget.AreaMM2 <= single.Budget.AreaMM2 {
		t.Fatal("replicas must cost area")
	}
	if best.PanelTime <= single.PanelTime {
		t.Fatal("sequential replicas must cost panel time")
	}
	// Synthesis must still produce a checkable netlist.
	p, err := Synthesize(best)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Design.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicasValidation(t *testing.T) {
	req := Requirements{Targets: []TargetSpec{{Species: "glucose"}}, Replicas: -1}
	if err := req.Validate(); err == nil {
		t.Fatal("negative replicas must fail")
	}
	req.Replicas = 1000
	if err := req.Validate(); err == nil {
		t.Fatal("absurd replica count must fail")
	}
}

func TestSynthesizeDedicatedChains(t *testing.T) {
	req := Requirements{Targets: []TargetSpec{{Species: "glucose"}, {Species: "benzphetamine"}}}
	asn := map[string]enzyme.Assay{
		"glucose":       enzyme.AssaysFor("glucose")[0],
		"benzphetamine": enzyme.AssaysFor("benzphetamine")[0],
	}
	cand, err := Evaluate(req, Choice{
		Assays: asn, Chambers: ChamberPerElectrode, Sharing: DedicatedChains,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cand.Feasible {
		t.Fatalf("dedicated/isolated design infeasible: %v", cand.Violations)
	}
	if !cand.Parallel {
		t.Fatal("isolated chambers + dedicated chains must run in parallel")
	}
	p, err := Synthesize(cand)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Design.Check(); err != nil {
		t.Fatal(err)
	}
	// Dedicated designs carry one readout and ADC per electrode.
	if n := len(p.Design.BlocksOf(netlistReadoutKind())); n != 2 {
		t.Fatalf("%d readouts, want 2", n)
	}
	// And no multiplexer.
	if n := len(p.Design.BlocksOf(netlistMuxKind())); n != 0 {
		t.Fatalf("%d muxes, want 0", n)
	}
	// Chains come back without a mux.
	chain, err := p.ChainFor(cand.Electrodes[0].Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Mux != nil {
		t.Fatal("dedicated chain must not route through a mux")
	}
}
