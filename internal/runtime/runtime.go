// Package runtime is the shared panel-execution engine behind the
// public serving layers. It owns the four concerns every panel run
// needs, exactly once:
//
//   - sample validation (ValidateSample — finite, non-negative,
//     physically plausible, registered species);
//   - deterministic per-sample seeding (SampleSeed — a splitmix64 mix
//     of a base seed and the sample index);
//   - the calibration table (the per-electrode inversion constants
//     and CV calibrations — flux basis, unit peaks, fit plan — built
//     once per platform, one entry per electrode construction that its
//     replicas share; the hand-held Sensor builds the same CVCalib);
//   - panel assembly (Executor.Run — protocol dispatch, template
//     decomposition, replica merging, concentration inversion).
//
// Platform.RunPanel, the Lab and the Fleet are thin adapters over an
// Executor: they add batching, scheduling and statistics but never
// duplicate execution logic. An Executor is safe for any number of
// concurrent Run calls — each run builds its own measurement engine
// and only reads the calibration table.
package runtime

import (
	"fmt"
	"sort"
	"sync"

	"advdiag/internal/core"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
	"advdiag/internal/phys"
	"advdiag/internal/schedule"
)

// Reading is one assay result inside a panel. The public
// advdiag.TargetReading converts from it field-for-field.
type Reading struct {
	// Target is the molecule; WE the electrode; Probe the assay.
	Target, WE, Probe string
	// MeasuredMicroAmps is the raw signal, EstimatedMM the inverted
	// concentration estimate, TrueMM the sample's known value, PeakMV
	// the detected CV peak potential (0 for chronoamperometry).
	MeasuredMicroAmps, EstimatedMM, TrueMM, PeakMV float64
}

// Panel is one full multi-target acquisition, in schedule order.
type Panel struct {
	Readings     []Reading
	PanelSeconds float64
}

// Executor runs panels over one synthesized platform. It pairs the
// design (core.Platform) with the calibration table and the base noise
// seed that together define the platform's run-time identity.
type Executor struct {
	inner *core.Platform
	seed  uint64

	// calib holds one calibration entry per planned electrode, indexed
	// like Candidate.Electrodes; calibOnce builds it (see calibration).
	calibOnce sync.Once
	calib     []*weCalib
	calibErr  error

	// scratch pools panelScratch values (the reusable cell + engine +
	// chain + trace state of a panel run) so sequential runs recycle
	// their allocations. See panelScratch in batch.go.
	scratch sync.Pool
	// monitors pools monitorScratch values the same way for
	// RunMonitor. See monitorScratch in monitor.go.
	monitors sync.Pool
}

// NewExecutor builds the execution engine for a synthesized platform.
// The calibration table is built by Warm or by the first run,
// whichever comes first.
func NewExecutor(inner *core.Platform, seed uint64) *Executor {
	return &Executor{inner: inner, seed: seed}
}

// Plan returns the platform's acquisition schedule.
func (e *Executor) Plan() *schedule.Plan { return e.inner.Plan }

// Seed returns the platform's base noise seed.
func (e *Executor) Seed() uint64 { return e.seed }

// Targets returns the sorted species names the platform's electrodes
// measure (blank electrodes excluded). Routers use it for panel-type
// affinity.
func (e *Executor) Targets() []string {
	seen := map[string]bool{}
	var out []string
	for _, ep := range e.inner.Candidate.Electrodes {
		if ep.Blank {
			continue
		}
		for _, a := range ep.Assays {
			if !seen[a.Target.Name] {
				seen[a.Target.Name] = true
				out = append(out, a.Target.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// MonitorTargets returns the sorted species names the platform can
// continuously monitor — the subset of Targets served by a
// chronoamperometric (oxidase) electrode. A species the design serves
// by cyclic voltammetry is measurable in a panel but not monitorable.
func (e *Executor) MonitorTargets() []string {
	seen := map[string]bool{}
	var out []string
	for _, ep := range e.inner.Candidate.Electrodes {
		if ep.Blank || ep.Technique != enzyme.Chronoamperometry {
			continue
		}
		for _, a := range ep.Assays {
			if !seen[a.Target.Name] {
				seen[a.Target.Name] = true
				out = append(out, a.Target.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Warm builds the calibration table of every electrode, once, so the
// serving path only ever reads it.
func (e *Executor) Warm() error {
	_, err := e.calibration()
	return err
}

// SampleSeed mixes a base seed with a sample index (splitmix64
// finalizer) so every sample owns an independent, deterministic noise
// stream regardless of which worker — or which shard — runs it. This
// is the whole replay-checkable determinism contract of the fleet
// layer: a result can be recomputed bit-identically from (base seed,
// submission index, sample) alone, on any shard of any topology —
// Fleet.ReplayPanel is exactly this call on a healthy executor.
func SampleSeed(base uint64, idx int) uint64 {
	return mathx.Mix64(base + mathx.SplitmixGamma*(uint64(idx)+1))
}

// Run executes one panel: one measurement engine (and so one noise
// stream) per call, all calibration state read from the table. Two
// calls with the same sample and seed produce byte-identical results
// on any goroutine.
//
//advdiag:hotpath
func (e *Executor) Run(sample map[string]float64, seed uint64) (Panel, error) {
	return e.RunFouled(sample, seed, nil)
}

// RunFouled is Run with an optional injected electrode fault. A nil
// fault is exactly Run — the healthy path pays one nil check. A
// non-nil fault perturbs each matching electrode's measured signal
// (the chronoamperometric step current, the voltammetric fitted
// amplitude) before concentration inversion, deterministically per
// (fault seed, sample seed, target). The Executor itself stays
// stateless: the fault travels with the call, so one Executor can
// serve healthy and fouled shards concurrently.
//
//advdiag:hotpath
func (e *Executor) RunFouled(sample map[string]float64, seed uint64, fault *Fouling) (Panel, error) {
	s := e.getScratch()
	out, err := e.runWith(s, sample, seed, fault)
	e.putScratch(s)
	return out, err
}

// MergeReplicas averages replicate readings of the same target (array
// platforms measure each target on several electrodes). Single readings
// pass through unchanged. The merged reading takes its first replica's
// place and labels; its WE reads "<first WE>+(×n)", and its current and
// estimate are the replicas' sums, in reading order, divided by n.
// A panel holds about a dozen readings, so a scan of the ones before
// each reading finds its replicas without a map.
func MergeReplicas(in []Reading) []Reading {
	if len(in) == 0 {
		return nil
	}
	out := make([]Reading, 0, len(in))
next:
	for i, r := range in {
		for _, q := range in[:i] {
			if q.Target == r.Target {
				continue next // merged into its first replica
			}
		}
		n := 1
		for _, q := range in[i+1:] {
			if q.Target == r.Target {
				r.MeasuredMicroAmps += q.MeasuredMicroAmps
				r.EstimatedMM += q.EstimatedMM
				n++
			}
		}
		if n > 1 {
			r.MeasuredMicroAmps /= float64(n)
			r.EstimatedMM /= float64(n)
			r.WE = fmt.Sprintf("%s+(×%d)", r.WE, n)
		}
		out = append(out, r)
	}
	return out
}

// InvertEffective converts a fitted effective concentration back to a
// bulk concentration (saturation inversion: C = x·Km/(Km−x)).
func InvertEffective(b *enzyme.Binding, x float64) phys.Concentration {
	if x <= 0 {
		return 0
	}
	km := float64(b.Km)
	if x >= 0.99*km {
		x = 0.99 * km
	}
	return phys.Concentration(x * km / (km - x))
}
