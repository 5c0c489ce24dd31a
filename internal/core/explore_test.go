package core

import (
	"errors"
	"runtime"
	"sort"
	"testing"

	"advdiag/internal/enzyme"
)

// serialExplore is the reference implementation: the seed repo's plain
// nested-loop enumeration, kept here so the concurrent engine can be
// checked against it bit for bit.
func serialExplore(req Requirements) ([]*Candidate, []error) {
	req = req.WithDefaults()
	var out []*Candidate
	var errs []error
	for _, choice := range enumerateChoices(req) {
		cand, err := Evaluate(req, choice)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, cand)
	}
	out = dedupeCandidates(out)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		if a.Budget.Cost != b.Budget.Cost {
			return a.Budget.Cost < b.Budget.Cost
		}
		if a.Budget.AreaMM2 != b.Budget.AreaMM2 {
			return a.Budget.AreaMM2 < b.Budget.AreaMM2
		}
		return a.PanelTime < b.PanelTime
	})
	return out, errs
}

// candidateFingerprint projects every externally observable field of a
// candidate for equality checks across explorer variants.
func candidateFingerprint(c *Candidate) string {
	s := c.Summary()
	for _, v := range c.Violations {
		s += "|" + v.String()
	}
	for _, e := range c.Electrodes {
		s += "|" + e.Name + "/" + e.Readout.Name
	}
	return s
}

func TestExploreCollectsChoiceErrors(t *testing.T) {
	req := Requirements{Targets: []TargetSpec{
		{Species: "glucose"}, {Species: "lactate"},
	}}.WithDefaults()
	choices := enumerateChoices(req)
	// Poison the enumeration with a choice that cannot be planned: it
	// assigns no assay to lactate.
	poisoned := Choice{
		Assays:   map[string]enzyme.Assay{"glucose": enzyme.AssaysFor("glucose")[0]},
		Chambers: SharedChamber,
		Sharing:  SharedMux,
	}
	choices = append(choices, poisoned)

	cands, err := runExplore(req, choices, ExploreOptions{Workers: 4})
	if err == nil {
		t.Fatal("poisoned choice must surface an error")
	}
	var ce *ChoiceError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not wrap a *ChoiceError", err)
	}
	if ce.Choice.Assays["glucose"].Probe != "glucose oxidase" || len(ce.Choice.Assays) != 1 {
		t.Fatalf("ChoiceError carries the wrong choice: %+v", ce.Choice)
	}
	// All healthy candidates must survive the failure.
	want, _ := serialExplore(Requirements{Targets: req.Targets})
	if len(cands) != len(want) {
		t.Fatalf("%d candidates survived, want %d", len(cands), len(want))
	}
}

func TestEvaluateRejectsMissingAssay(t *testing.T) {
	req := Requirements{Targets: []TargetSpec{{Species: "glucose"}}}
	_, err := Evaluate(req, Choice{Assays: map[string]enzyme.Assay{}})
	if err == nil {
		t.Fatal("evaluating a choice with no assay must fail, not panic")
	}
}

func TestBestWithMatchesBest(t *testing.T) {
	req := fig4Targets()
	a, err := Best(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BestWith(req, ExploreOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if candidateFingerprint(a) != candidateFingerprint(b) {
		t.Fatalf("BestWith diverges from Best:\n%s\n%s", a.Summary(), b.Summary())
	}
}

func TestParetoFrontEdgeCases(t *testing.T) {
	// Empty input.
	if front := ParetoFront(nil); len(front) != 0 {
		t.Fatalf("empty input gave %d front members", len(front))
	}
	// All infeasible: nothing qualifies.
	inf := []*Candidate{
		{Feasible: false, Budget: Budget{AreaMM2: 1, PowerUW: 1, Cost: 1}},
		{Feasible: false, Budget: Budget{AreaMM2: 2, PowerUW: 2, Cost: 2}},
	}
	if front := ParetoFront(inf); len(front) != 0 {
		t.Fatalf("all-infeasible input gave %d front members", len(front))
	}
	// Ties on every axis: no candidate dominates another, all stay.
	tie := func() *Candidate {
		return &Candidate{Feasible: true, Budget: Budget{AreaMM2: 5, PowerUW: 7, Cost: 3}, PanelTime: 11}
	}
	ties := []*Candidate{tie(), tie(), tie()}
	if front := ParetoFront(ties); len(front) != 3 {
		t.Fatalf("all-tied input kept %d of 3", len(front))
	}
	for _, a := range ties {
		for _, b := range ties {
			if a != b && dominates(a, b) {
				t.Fatal("a tie on every axis must not dominate")
			}
		}
	}
	// Strict domination still removes the loser.
	better := &Candidate{Feasible: true, Budget: Budget{AreaMM2: 1, PowerUW: 1, Cost: 1}, PanelTime: 1}
	worse := &Candidate{Feasible: true, Budget: Budget{AreaMM2: 2, PowerUW: 2, Cost: 2}, PanelTime: 2}
	front := ParetoFront([]*Candidate{worse, better})
	if len(front) != 1 || front[0] != better {
		t.Fatalf("domination filter broken: %d members", len(front))
	}
	// Infeasible candidates cannot dominate feasible ones off the front.
	infBetter := &Candidate{Feasible: false, Budget: Budget{AreaMM2: 0.1, PowerUW: 0.1, Cost: 0.1}, PanelTime: 0.1}
	front = ParetoFront([]*Candidate{worse, infBetter})
	if len(front) != 1 || front[0] != worse {
		t.Fatal("infeasible candidates must not dominate the front")
	}
}

// benchRequirements is a deliberately heavy requirement set: six
// targets (≥4), replicated sensors, so each Evaluate prices dozens of
// electrodes and the per-choice work dominates scheduling overhead.
func benchRequirements() Requirements {
	req := fig4Targets()
	req.Replicas = 8
	req.WithBlankCDS = true
	return req
}

func BenchmarkExploreSerial(b *testing.B) {
	req := benchRequirements()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExploreWith(req, ExploreOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExploreParallel(b *testing.B) {
	req := benchRequirements()
	workers := runtime.NumCPU()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExploreWith(req, ExploreOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}
