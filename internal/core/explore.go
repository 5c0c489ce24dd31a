package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"advdiag/internal/analog"
	"advdiag/internal/conc"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
	"advdiag/internal/species"
)

// ExploreOptions tunes the design-space exploration engine. The zero
// value explores the full space on one worker per available CPU.
type ExploreOptions struct {
	// Workers is the number of goroutines evaluating candidates;
	// values < 1 default to runtime.GOMAXPROCS(0). Regardless of the
	// worker count the candidate list is byte-identical to a serial
	// enumeration: results are collected in enumeration order before
	// deduplication and sorting.
	Workers int
}

// withDefaults resolves the zero-value knobs.
func (o ExploreOptions) withDefaults() ExploreOptions {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// ChoiceError records one design point whose evaluation failed. The
// exploration continues past it; callers get every failure alongside
// the surviving candidates.
type ChoiceError struct {
	// Choice is the offending design point.
	Choice Choice
	// Err is the underlying evaluation error.
	Err error
}

func (e *ChoiceError) Error() string {
	return fmt.Sprintf("core: evaluate %v/%v/group=%v: %v",
		e.Choice.Chambers, e.Choice.Sharing, e.Choice.GroupSameIsoform, e.Err)
}

func (e *ChoiceError) Unwrap() error { return e.Err }

// Explore enumerates the design space for the given requirements:
// every probe assignment × isoform grouping × chamber policy ×
// readout sharing, each evaluated against the feasibility rules and
// the cost model. Candidates are returned sorted: feasible first, then
// by cost, area, and panel time. Evaluation runs on a worker pool
// sized to the available CPUs; use ExploreWith to tune it.
func Explore(req Requirements) ([]*Candidate, error) {
	return ExploreWith(req, ExploreOptions{})
}

// ExploreWith is Explore with explicit engine options. When individual
// choices fail to evaluate, the surviving candidates are still
// returned, together with every failure joined into the error (each one
// a *ChoiceError). The returned ordering is independent of
// opts.Workers.
func ExploreWith(req Requirements, opts ExploreOptions) ([]*Candidate, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return runExplore(req, enumerateChoices(req), opts)
}

// enumerateChoices lists the structural design space in deterministic
// order: probe assignment × isoform grouping × chamber policy ×
// readout sharing.
func enumerateChoices(req Requirements) []Choice {
	// Each assignment expands into 2 groupings × 3 chambers × 2
	// sharings.
	assignments := enumerateAssays(req.Targets)
	out := make([]Choice, 0, 12*len(assignments))
	for _, asn := range assignments {
		for _, group := range []bool{true, false} {
			for _, chambers := range []ChamberPolicy{SharedChamber, ChamberPerTechnique, ChamberPerElectrode} {
				for _, sharing := range []ReadoutSharing{SharedMux, DedicatedChains} {
					out = append(out, Choice{Assays: asn, GroupSameIsoform: group, Chambers: chambers, Sharing: sharing})
				}
			}
		}
	}
	return out
}

// Electrode and chamber names up to 32 come from fixed tables: the
// explorer stamps the same names onto every enumerated candidate, so
// building them with Sprintf per plan is the planning phase's single
// largest allocation source.
var weNameTab, chamberNameTab [32]string

func init() {
	for i := range weNameTab {
		weNameTab[i] = fmt.Sprintf("WE%d", i+1)
		chamberNameTab[i] = fmt.Sprintf("chamber%d", i+1)
	}
}

// weName returns "WE<i>" (1-based).
func weName(i int) string {
	if i >= 1 && i <= len(weNameTab) {
		return weNameTab[i-1]
	}
	return fmt.Sprintf("WE%d", i)
}

// chamberName returns "chamber<i>" (1-based).
func chamberName(i int) string {
	if i >= 1 && i <= len(chamberNameTab) {
		return chamberNameTab[i-1]
	}
	return fmt.Sprintf("chamber%d", i)
}

// memoEntry holds the one priced candidate for a structural key. The
// sync.Once guarantees duplicate structures are priced exactly once
// even when several workers reach the same key together.
type memoEntry struct {
	once sync.Once
	cand *Candidate
}

// runExplore evaluates the given choices on a bounded worker pool and
// assembles the deterministic candidate list. req must already carry
// its defaults.
func runExplore(req Requirements, choices []Choice, opts ExploreOptions) ([]*Candidate, error) {
	opts = opts.withDefaults()

	// Slots indexed by enumeration position keep the output ordering
	// identical to the serial enumeration regardless of worker count.
	cands := make([]*Candidate, len(choices))
	fails := make([]error, len(choices))
	// structuralKey → *memoEntry. A plain mutex-guarded map: lookups are
	// brief, workers are few, and unlike sync.Map it needs no speculative
	// entry allocation or interface boxing per choice.
	var memoMu sync.Mutex
	memo := make(map[string]*memoEntry, len(choices))

	evaluate := func(i int) {
		choice := choices[i]
		cand, err := planCandidate(req, choice)
		if err != nil {
			fails[i] = &ChoiceError{Choice: choice, Err: err}
			return
		}
		key := cand.structuralKey()
		memoMu.Lock()
		entry := memo[key]
		if entry == nil {
			entry = &memoEntry{}
			memo[key] = entry
		}
		memoMu.Unlock()
		entry.once.Do(func() {
			priceCandidate(req, cand)
			entry.cand = cand
		})
		if entry.cand != cand {
			// Duplicate structure: reuse the priced fields (they are a
			// deterministic function of the structural key) and keep
			// only this slot's own Choice. The structural slices are
			// shared read-only from here on.
			cp := *entry.cand
			cp.Choice = choice
			cand = &cp
		}
		cands[i] = cand
	}

	conc.ForEach(len(choices), opts.Workers, evaluate)

	out := make([]*Candidate, 0, len(choices))
	var errs []error
	for i := range choices {
		if fails[i] != nil {
			errs = append(errs, fails[i])
			continue
		}
		out = append(out, cands[i])
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
	return out, errors.Join(errs...)
}

// Best returns the cheapest feasible candidate.
func Best(req Requirements) (*Candidate, error) {
	return BestWith(req, ExploreOptions{})
}

// BestWith is Best with explicit exploration options. A feasible
// candidate is returned even when unrelated design points failed to
// evaluate; the per-choice failures only surface when nothing feasible
// remains.
func BestWith(req Requirements, opts ExploreOptions) (*Candidate, error) {
	cands, err := ExploreWith(req, opts)
	for _, c := range cands {
		if c.Feasible {
			return c, nil
		}
	}
	if err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("core: no feasible platform for the given requirements")
}

// enumerateAssays builds the cartesian product of per-target probe
// options.
func enumerateAssays(targets []TargetSpec) []map[string]enzyme.Assay {
	result := []map[string]enzyme.Assay{{}}
	for _, t := range targets {
		options := enzyme.AssaysFor(t.Species)
		var next []map[string]enzyme.Assay
		for _, partial := range result {
			// The first option extends the partial in place — each map in
			// result is uniquely owned and discarded after this level, so
			// only the second and later options need copies (whose
			// t.Species entry is overwritten, making copy order
			// irrelevant). Single-option targets then build the whole
			// product copy-free.
			for oi, opt := range options {
				m := partial
				if oi > 0 {
					m = make(map[string]enzyme.Assay, len(partial)+1)
					for k, v := range partial {
						m[k] = v
					}
				}
				m[t.Species] = opt
				next = append(next, m)
			}
		}
		result = next
	}
	return result
}

// dedupeCandidates removes structurally identical candidates (e.g.
// chamber-per-technique equals shared-chamber when only one technique
// is present).
func dedupeCandidates(cands []*Candidate) []*Candidate {
	seen := make(map[string]bool, len(cands))
	out := make([]*Candidate, 0, len(cands))
	for _, c := range cands {
		key := c.structuralKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}

// structuralKey identifies the candidate's structure: everything the
// pricing phase depends on. The key is computed once and cached; a
// memo copy inherits the cache, which stays valid because copies share
// the same structure by construction.
func (c *Candidate) structuralKey() string {
	if c.key != "" {
		return c.key
	}
	// Assembled in a byte buffer: the final string conversion is the
	// only allocation (the buffer does not escape it).
	buf := make([]byte, 0, 160)
	buf = append(buf, c.Choice.Sharing.String()...)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, c.Parallel)
	buf = append(buf, '|')
	for i := range c.Electrodes {
		e := &c.Electrodes[i]
		buf = append(buf, e.Name...)
		buf = append(buf, ':')
		for _, a := range e.Assays {
			buf = append(buf, a.Probe...)
			buf = append(buf, '/')
			buf = append(buf, a.Target.Name...)
			buf = append(buf, ',')
		}
		buf = append(buf, '@')
		buf = append(buf, c.ChamberFor(i)...)
		buf = append(buf, ';')
	}
	c.key = string(buf)
	return c.key
}

// Evaluate scores one structural choice against the requirements.
func Evaluate(req Requirements, choice Choice) (*Candidate, error) {
	req = req.WithDefaults()
	cand, err := planCandidate(req, choice)
	if err != nil {
		return nil, err
	}
	priceCandidate(req, cand)
	return cand, nil
}

// planCandidate runs the cheap structural phase of an evaluation:
// electrode planning, chamber partitioning, and the parallelism flag —
// everything structuralKey depends on. req must already carry its
// defaults.
func planCandidate(req Requirements, choice Choice) (*Candidate, error) {
	cand := &Candidate{Choice: choice, Feasible: true}
	plans, err := planElectrodes(req, choice)
	if err != nil {
		return nil, err
	}
	cand.Electrodes = plans
	assignChambers(cand)
	// Parallel operation needs isolated cells and dedicated electronics.
	cand.Parallel = choice.Chambers == ChamberPerElectrode && choice.Sharing == DedicatedChains
	return cand, nil
}

// priceCandidate runs the expensive phase on a planned candidate: the
// feasibility rules, readout selection, timing and the cost model. It
// is a deterministic function of (req, structural plan), which is what
// makes memoizing it by structuralKey sound.
func priceCandidate(req Requirements, cand *Candidate) {
	// --- Rule: CV peak separation on grouped electrodes ----------------
	for i := range cand.Electrodes {
		p := &cand.Electrodes[i]
		if p.Technique != enzyme.CyclicVoltammetry || len(p.Assays) < 2 {
			continue
		}
		minSep := phys.Voltage(math.Inf(1))
		for a := 0; a < len(p.Assays); a++ {
			for b := a + 1; b < len(p.Assays); b++ {
				d := p.Assays[a].Binding.PeakPotential - p.Assays[b].Binding.PeakPotential
				if d < 0 {
					d = -d
				}
				if d < minSep {
					minSep = d
				}
			}
		}
		if minSep < req.PeakSeparationMin {
			cand.fail("peak-separation", fmt.Sprintf(
				"electrode %s carries peaks %.0f mV apart (< %.0f mV): heights become inseparable",
				p.Name, minSep.MilliVolts(), req.PeakSeparationMin.MilliVolts()))
		}
	}

	// --- Rule: readout class selection ---------------------------------
	for i := range cand.Electrodes {
		p := &cand.Electrodes[i]
		if p.Blank {
			continue
		}
		rc, err := SelectReadout(p.MaxCurrent, p.ResRequired)
		if err != nil {
			cand.fail("readout-class", fmt.Sprintf("electrode %s: %v", p.Name, err))
			continue
		}
		p.Readout = rc
	}
	// Blank electrodes adopt the finest readout in use (they mimic the
	// sensing channel they correct).
	finest := ReadoutClass{}
	for _, p := range cand.Electrodes {
		if p.Blank || p.Readout.Name == "" {
			continue
		}
		if finest.Name == "" || p.Readout.Resolution < finest.Resolution {
			finest = p.Readout
		}
	}
	for i := range cand.Electrodes {
		if cand.Electrodes[i].Blank && finest.Name != "" {
			cand.Electrodes[i].Readout = finest
			cand.Electrodes[i].ProtocolTime = caProtocolTime
		}
	}

	// --- Rule: potentiostat drive covers the potential window ----------
	pstat := analog.DefaultPotentiostat()
	for _, p := range cand.Electrodes {
		for _, a := range p.Assays {
			var extremes []phys.Voltage
			if a.Technique == enzyme.Chronoamperometry {
				extremes = []phys.Voltage{a.Oxidase.Applied}
			} else {
				extremes = []phys.Voltage{a.Binding.PeakPotential + cvMargin, a.Binding.PeakPotential - cvMargin}
			}
			for _, e := range extremes {
				if e > pstat.MaxDrive || e < -pstat.MaxDrive {
					cand.fail("drive-range", fmt.Sprintf("potential %v outside the potentiostat drive ±%v", e, pstat.MaxDrive))
				}
			}
		}
	}

	// --- Rule: sweep rate ----------------------------------------------
	if err := analog.CheckSweepRate(defaultCVRate); err != nil {
		cand.fail("sweep-rate", err.Error())
	}

	// --- Rule: co-chamber oxidase cross-talk ----------------------------
	checkCrosstalk(req, cand)

	// --- Rule: direct-oxidizer interferents ----------------------------
	checkInterferents(req, cand)

	// --- Timing ----------------------------------------------------------
	computeTiming(req, cand)

	// --- Rule: throughput ------------------------------------------------
	if req.SamplePeriod > 0 && cand.CycleTime > req.SamplePeriod {
		cand.fail("throughput", fmt.Sprintf("cycle time %.0f s exceeds required sample period %.0f s",
			cand.CycleTime, req.SamplePeriod))
	}

	// --- Cost -------------------------------------------------------------
	computeBudget(cand)
}

func (c *Candidate) fail(rule, detail string) {
	c.Feasible = false
	c.Violations = append(c.Violations, Violation{Rule: rule, Detail: detail})
}

func (c *Candidate) warn(rule, detail string) {
	c.Violations = append(c.Violations, Violation{Rule: rule, Detail: detail, Warning: true})
}

// planElectrodes maps targets onto working electrodes according to the
// probe choices and grouping flag, replicating the full set for array
// requirements.
func planElectrodes(req Requirements, choice Choice) ([]ElectrodePlan, error) {
	set, err := planElectrodeSet(req, choice)
	if err != nil {
		return nil, err
	}
	replicas := req.Replicas
	if replicas < 1 {
		replicas = 1
	}
	if replicas == 1 {
		return set, nil
	}
	plans := make([]ElectrodePlan, 0, replicas*len(set))
	for r := 0; r < replicas; r++ {
		for _, p := range set {
			q := p
			q.Name = weName(len(plans) + 1)
			plans = append(plans, q)
		}
	}
	return plans, nil
}

// planElectrodeSet builds one un-replicated electrode set.
func planElectrodeSet(req Requirements, choice Choice) ([]ElectrodePlan, error) {
	plans := make([]ElectrodePlan, 0, len(req.Targets)+1)
	// Targets already covered, as a bitmask: requirements cap the target
	// count far below 64, and the mask keeps this per-choice planner off
	// the heap for its bookkeeping.
	var used uint64
	name := func() string { return weName(len(plans) + 1) }
	// Singleton Assays/Specs slices are carved from two shared chunks
	// (full slice expressions, so a grouping append copies out instead
	// of clobbering a sibling). The chunks never regrow: one slot per
	// target is an upper bound.
	assayChunk := make([]enzyme.Assay, 0, len(req.Targets))
	specChunk := make([]TargetSpec, 0, len(req.Targets))

	for i, t := range req.Targets {
		if used&(1<<uint(i)) != 0 {
			continue
		}
		a, ok := choice.Assays[t.Species]
		if !ok || (a.Oxidase == nil && a.CYP == nil) {
			return nil, fmt.Errorf("core: choice assigns no assay to target %q", t.Species)
		}
		k := len(assayChunk)
		assayChunk = append(assayChunk, a)
		specChunk = append(specChunk, t)
		plan := ElectrodePlan{
			Name:      name(),
			Nano:      CitedNano(a),
			Assays:    assayChunk[k : k+1 : k+1],
			Specs:     specChunk[k : k+1 : k+1],
			Technique: a.Technique,
		}
		used |= 1 << uint(i)
		// Grouping: pull later targets sensed by the same CYP isoform
		// onto this electrode.
		if choice.GroupSameIsoform && a.Technique == enzyme.CyclicVoltammetry {
			for j := i + 1; j < len(req.Targets); j++ {
				if used&(1<<uint(j)) != 0 {
					continue
				}
				t2 := req.Targets[j]
				a2 := choice.Assays[t2.Species]
				if a2.Technique == enzyme.CyclicVoltammetry && a2.CYP == a.CYP {
					plan.Assays = append(plan.Assays, a2)
					plan.Specs = append(plan.Specs, t2)
					used |= 1 << uint(j)
				}
			}
		}
		if err := plan.PlanCurrents(); err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	if req.WithBlankCDS {
		plans = append(plans, ElectrodePlan{
			Name:      name(),
			Nano:      electrode.Bare,
			Technique: enzyme.Chronoamperometry,
			Blank:     true,
		})
	}
	return plans, nil
}

// Shared chamber lists for the policies with fixed layouts. Chamber
// slices are structural: read-only once assigned (memo copies already
// share them), so candidates can share these package singletons too.
var (
	sharedChamberList = []string{"chamber1"}
	chamberListCA     = []string{"chamberCA"}
	chamberListCV     = []string{"chamberCV"}
	chamberListCACV   = []string{"chamberCA", "chamberCV"}
)

// assignChambers builds the chamber list for the candidate's policy
// (per-electrode membership is computed on demand by ChamberFor).
func assignChambers(c *Candidate) {
	switch c.Choice.Chambers {
	case SharedChamber:
		c.Chambers = sharedChamberList
	case ChamberPerTechnique:
		haveCA, haveCV := false, false
		for _, p := range c.Electrodes {
			if p.Technique == enzyme.Chronoamperometry {
				haveCA = true
			} else {
				haveCV = true
			}
		}
		switch {
		case haveCA && haveCV:
			c.Chambers = chamberListCACV
		case haveCA:
			c.Chambers = chamberListCA
		case haveCV:
			c.Chambers = chamberListCV
		}
	case ChamberPerElectrode:
		c.Chambers = make([]string, 0, len(c.Electrodes))
		for i := range c.Electrodes {
			c.Chambers = append(c.Chambers, chamberName(i+1))
		}
	}
}

// checkCrosstalk applies the paper's §II-A co-chamber argument
// quantitatively: parasitic current from co-chambered oxidase
// neighbours must stay within the budgeted fraction of each sensor's
// smallest meaningful signal (its 3σ LOD current).
func checkCrosstalk(req Requirements, c *Candidate) {
	area := float64(electrode.ReferenceArea)
	for i := range c.Electrodes {
		p := &c.Electrodes[i]
		if p.Blank || p.Technique != enzyme.Chronoamperometry {
			continue
		}
		var parasitic float64
		for j := range c.Electrodes {
			q := &c.Electrodes[j]
			if i == j || q.Blank || q.Technique != enzyme.Chronoamperometry {
				continue
			}
			if c.ChamberFor(i) != c.ChamberFor(j) {
				continue
			}
			parasitic += 0.01 * float64(q.MaxCurrent) // cell.DefaultCrosstalk
		}
		if parasitic == 0 {
			continue
		}
		minSignal := 3 * float64(p.ResRequired) // the 3σ LOD current
		_ = area
		if parasitic > req.CrosstalkBudget*minSignal {
			c.fail("crosstalk", fmt.Sprintf(
				"electrode %s: co-chamber parasitic %.3g A exceeds %.0f%% of its LOD signal %.3g A",
				p.Name, parasitic, 100*req.CrosstalkBudget, minSignal))
		}
	}
}

// checkInterferents flags direct-oxidizer species in the matrix: they
// add current at any electrode held at an oxidizing potential, and they
// defeat the blank-electrode CDS correction (paper §II-C).
func checkInterferents(req Requirements, c *Candidate) {
	for _, name := range req.Interferents {
		sp, err := species.Lookup(name)
		if err != nil || !sp.DirectOxidizer {
			continue
		}
		hasCA := false
		for _, p := range c.Electrodes {
			if !p.Blank && p.Technique == enzyme.Chronoamperometry {
				hasCA = true
			}
		}
		if hasCA {
			c.warn("direct-oxidizer", fmt.Sprintf(
				"%s oxidizes directly at +%.0f mV; chronoamperometric channels see added current",
				name, sp.OxidationPotential.MilliVolts()))
		}
		if req.WithBlankCDS {
			c.warn("cds-blank", fmt.Sprintf(
				"%s also reacts at the enzyme-free blank, so CDS subtracts the interferent into the reading",
				name))
		}
	}
}

// computeTiming fills PanelTime/CycleTime from the Parallel flag set
// during planning.
func computeTiming(req Requirements, c *Candidate) {
	if c.Parallel {
		maxT := 0.0
		for _, p := range c.Electrodes {
			if p.ProtocolTime > maxT {
				maxT = p.ProtocolTime
			}
		}
		c.PanelTime = maxT
	} else {
		settle := 0.01
		if c.Choice.Sharing == SharedMux {
			settle = 0.05 // analog.DefaultMux settle
		}
		total := 0.0
		for _, p := range c.Electrodes {
			total += settle + p.ProtocolTime
		}
		c.PanelTime = total
	}
	c.CycleTime = c.PanelTime + recoveryTime
}

// computeBudget fills the cost model.
func computeBudget(c *Candidate) {
	var b Budget
	// Bio-interface: working electrodes plus RE+CE per chamber plus
	// chamber packaging.
	b = b.Add(ElectrodeBudget.Scale(float64(len(c.Electrodes))))
	b = b.Add(ElectrodeBudget.Scale(2 * float64(len(c.Chambers))))
	b = b.Add(ChamberBudget.Scale(float64(len(c.Chambers))))
	// One potentiostat per chamber.
	b = b.Add(PotentiostatBudget.Scale(float64(len(c.Chambers))))

	anyCV := false
	for _, p := range c.Electrodes {
		for _, a := range p.Assays {
			if a.Technique == enzyme.CyclicVoltammetry {
				anyCV = true
			}
		}
	}
	switch c.Choice.Sharing {
	case SharedMux:
		// One generator, muxes sized to the electrode count, one readout
		// instance per distinct class, one ADC.
		b = b.Add(SelectVGen(anyCV).Budget)
		nMux := (len(c.Electrodes) + MuxChannels - 1) / MuxChannels
		b = b.Add(MuxBudget.Scale(float64(nMux)))
		classes := map[string]ReadoutClass{}
		for _, p := range c.Electrodes {
			if p.Readout.Name != "" {
				classes[p.Readout.Name] = p.Readout
			}
		}
		for _, rc := range classes {
			b = b.Add(rc.Budget)
		}
		b = b.Add(ADCBudget)
	case DedicatedChains:
		// Readout + ADC per electrode; generator per chamber (electrodes
		// in one chamber share the solution potential).
		for _, p := range c.Electrodes {
			if p.Readout.Name != "" {
				b = b.Add(p.Readout.Budget)
			}
			b = b.Add(ADCBudget)
		}
		for range c.Chambers {
			b = b.Add(SelectVGen(anyCV).Budget)
		}
	}
	b = b.Add(ControllerBudget)
	c.Budget = b
}

// ParetoFront filters candidates to the (area, power, panel-time)
// Pareto-optimal feasible set.
func ParetoFront(cands []*Candidate) []*Candidate {
	var front []*Candidate
	for _, c := range cands {
		if !c.Feasible {
			continue
		}
		dominated := false
		for _, d := range cands {
			if d == c || !d.Feasible {
				continue
			}
			if dominates(d, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	return front
}

func dominates(a, b *Candidate) bool {
	notWorse := a.Budget.AreaMM2 <= b.Budget.AreaMM2 &&
		a.Budget.PowerUW <= b.Budget.PowerUW &&
		a.PanelTime <= b.PanelTime
	better := a.Budget.AreaMM2 < b.Budget.AreaMM2 ||
		a.Budget.PowerUW < b.Budget.PowerUW ||
		a.PanelTime < b.PanelTime
	return notWorse && better
}
