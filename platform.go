package advdiag

import (
	"fmt"
	"strings"

	"advdiag/internal/core"
	rt "advdiag/internal/runtime"
)

// MaxSampleConcentrationMM bounds accepted sample concentrations (see
// runtime.ValidateSample): pure water is 5.5e4 mM, so no aqueous sample
// can reach this.
const MaxSampleConcentrationMM = rt.MaxSampleConcentrationMM

// Platform is a synthesized multi-target sensing platform: the outcome
// of the paper's design-space exploration, ready to run full panels.
type Platform struct {
	inner   *core.Platform
	seed    uint64
	explore core.ExploreOptions
	// exec is the shared panel-execution engine (internal/runtime): it
	// owns sample validation, seeding, the calibration cache and panel
	// assembly. RunPanel, the Lab and the Fleet all delegate to it.
	exec *rt.Executor
}

// PlatformOption customizes platform design.
type PlatformOption func(*core.Requirements, *Platform)

// WithInterferents declares matrix species (e.g. "dopamine") present in
// every sample.
func WithInterferents(names ...string) PlatformOption {
	return func(r *core.Requirements, _ *Platform) { r.Interferents = append(r.Interferents, names...) }
}

// WithSamplePeriod requires one full panel at least every given number
// of seconds.
func WithSamplePeriod(seconds float64) PlatformOption {
	return func(r *core.Requirements, _ *Platform) { r.SamplePeriod = seconds }
}

// WithCDSBlank adds an enzyme-free working electrode for correlated
// double sampling.
func WithCDSBlank() PlatformOption {
	return func(r *core.Requirements, _ *Platform) { r.WithBlankCDS = true }
}

// WithPlatformSeed fixes the noise seed used by panel runs.
func WithPlatformSeed(seed uint64) PlatformOption {
	return func(_ *core.Requirements, p *Platform) { p.seed = seed }
}

// WithExploreWorkers sets the design-space exploration concurrency; 0
// (the default) uses one worker per available CPU. The chosen design
// is identical at any worker count — only the wall-clock time changes.
func WithExploreWorkers(n int) PlatformOption {
	return func(_ *core.Requirements, p *Platform) { p.explore.Workers = n }
}

// WithReplicas replicates the full sensor set k times (the paper's §II
// sensor array): replicate readings are averaged, cutting uncorrelated
// blank noise by √k at the cost of k× electrode area and panel time.
func WithReplicas(k int) PlatformOption {
	return func(r *core.Requirements, _ *Platform) { r.Replicas = k }
}

// DesignPlatform explores the design space for the given targets and
// synthesizes the cheapest feasible candidate — the workflow of the
// paper's §III platform example.
func DesignPlatform(targets []string, opts ...PlatformOption) (*Platform, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("advdiag: a platform needs at least one target")
	}
	req := core.Requirements{}
	for _, t := range targets {
		req.Targets = append(req.Targets, core.TargetSpec{Species: t})
	}
	p := &Platform{seed: 1}
	for _, opt := range opts {
		opt(&req, p)
	}
	best, err := core.BestWith(req, p.explore)
	if err != nil {
		return nil, err
	}
	inner, err := core.Synthesize(best)
	if err != nil {
		return nil, err
	}
	p.inner = inner
	p.exec = rt.NewExecutor(inner, p.seed)
	return p, nil
}

// Describe returns the platform's block inventory and wiring as text
// (the paper's Fig. 2/Fig. 4 content).
func (p *Platform) Describe() string { return p.inner.Design.ASCII() }

// DOT returns the Graphviz rendering of the platform netlist.
func (p *Platform) DOT() string { return p.inner.Design.DOT() }

// Schedule returns the panel acquisition timeline.
func (p *Platform) Schedule() string { return p.inner.Plan.String() }

// WorkingElectrodes lists the WE names in schedule order.
func (p *Platform) WorkingElectrodes() []string {
	var out []string
	for _, ep := range p.inner.Candidate.Electrodes {
		out = append(out, ep.Name)
	}
	return out
}

// Targets returns the sorted species names this platform's panel
// measures (blank electrodes excluded). The Fleet's affinity router
// matches samples against it.
func (p *Platform) Targets() []string { return p.exec.Targets() }

// MonitorTargets returns the sorted species names this platform can
// continuously monitor: the subset of Targets served by a
// chronoamperometric (oxidase) electrode. Monitor campaigns against
// any other target fail inside their outcome.
func (p *Platform) MonitorTargets() []string { return p.exec.MonitorTargets() }

// CostSummary reports the platform budget.
func (p *Platform) CostSummary() string {
	c := p.inner.Candidate
	return fmt.Sprintf("%s; panel %.0f s, %.1f samples/h", c.Budget, c.PanelTime, c.Throughput())
}

// Violations lists advisory warnings from the design evaluation.
func (p *Platform) Violations() []string {
	var out []string
	for _, v := range p.inner.Candidate.Violations {
		out = append(out, v.String())
	}
	return out
}

// TargetReading is one panel result.
type TargetReading struct {
	// Target is the molecule.
	Target string
	// WE names the electrode that produced the reading.
	WE string
	// Probe is the assay used.
	Probe string
	// MeasuredMicroAmps is the raw signal (steady-state current for
	// chronoamperometry, baseline-corrected peak height for CV).
	MeasuredMicroAmps float64
	// EstimatedMM is the concentration estimate in mM from the factory
	// calibration.
	EstimatedMM float64
	// TrueMM is the sample's actual concentration (known in simulation).
	TrueMM float64
	// PeakMV is the detected peak potential for CV readings (0 for CA).
	PeakMV float64
}

// String renders the reading.
func (r TargetReading) String() string {
	s := fmt.Sprintf("%-14s %-5s %-18s  %8.4g µA → %7.3g mM (true %.3g mM)",
		r.Target, r.WE, r.Probe, r.MeasuredMicroAmps, r.EstimatedMM, r.TrueMM)
	if r.PeakMV != 0 {
		s += fmt.Sprintf("  [peak %+.0f mV]", r.PeakMV)
	}
	return s
}

// PanelResult is one full multi-target acquisition.
type PanelResult struct {
	// Readings per target, in schedule order.
	Readings []TargetReading
	// PanelSeconds is the scheduled panel time.
	PanelSeconds float64
}

// panelResult converts the runtime package's panel into the public
// type. runtime.Reading and TargetReading are field-for-field
// identical, so the conversion cannot change any bit the Fingerprint
// hashes.
func panelResult(p rt.Panel) PanelResult {
	out := PanelResult{PanelSeconds: p.PanelSeconds}
	if len(p.Readings) > 0 {
		out.Readings = make([]TargetReading, len(p.Readings))
		for i, r := range p.Readings {
			out.Readings[i] = TargetReading(r)
		}
	}
	return out
}

// String renders the panel like a report table.
func (pr PanelResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Panel (%.0f s):\n", pr.PanelSeconds)
	for _, r := range pr.Readings {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

// Fingerprint hashes the result exactly: every label and the raw
// float64 bit pattern of every numeric field feed an FNV-1a stream.
// Equal fingerprints mean byte-identical results — the determinism
// tests use this to prove panel results do not depend on the Lab
// worker count or the Fleet shard count.
func (pr PanelResult) Fingerprint() uint64 {
	h := newFingerprinter()
	h.float(pr.PanelSeconds)
	h.word(uint64(len(pr.Readings)))
	for _, r := range pr.Readings {
		h.str(r.Target)
		h.str(r.WE)
		h.str(r.Probe)
		h.float(r.MeasuredMicroAmps)
		h.float(r.EstimatedMM)
		h.float(r.TrueMM)
		h.float(r.PeakMV)
	}
	return uint64(h)
}

// RunPanel measures one sample: sample maps target names to
// concentrations in mM. Every chamber receives the same sample (the
// platform's fluidics distribute it). Concentrations must be finite,
// non-negative and below MaxSampleConcentrationMM, and every species
// must be registered; anything else is an error before the instrument
// is touched. For batches or streaming use a Lab; for multi-platform
// dispatch use a Fleet — both run the same execution engine and share
// this platform's calibration cache.
func (p *Platform) RunPanel(sample map[string]float64) (PanelResult, error) {
	res, err := p.exec.Run(sample, p.seed)
	if err != nil {
		return PanelResult{}, err
	}
	return panelResult(res), nil
}

// ExploreDesigns runs the full design-space exploration and returns a
// human-readable summary line per candidate (feasible first) plus the
// Pareto-front subset. Individual design points that fail to evaluate
// do not abort the exploration: the surviving candidates are returned
// together with the joined per-choice failures (each a
// *core.ChoiceError), so callers with a non-nil error still get every
// healthy design.
func ExploreDesigns(targets []string, opts ...PlatformOption) (all []string, pareto []string, err error) {
	req := core.Requirements{}
	for _, t := range targets {
		req.Targets = append(req.Targets, core.TargetSpec{Species: t})
	}
	p := &Platform{}
	for _, opt := range opts {
		opt(&req, p)
	}
	cands, err := core.ExploreWith(req, p.explore)
	for _, c := range cands {
		all = append(all, c.Summary())
	}
	for _, c := range core.ParetoFront(cands) {
		pareto = append(pareto, c.Summary())
	}
	return all, pareto, err
}
