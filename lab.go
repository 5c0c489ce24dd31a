package advdiag

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"advdiag/internal/conc"
	rt "advdiag/internal/runtime"
)

// Sample is one specimen queued for a panel: an identifier (patient,
// tube, time point) plus the target concentrations in mM.
type Sample struct {
	// ID labels the sample in results; the Fleet's consistent-hash
	// router also keys on it (same ID → same shard), but it carries no
	// other semantics.
	ID string
	// Concentrations maps species name → mM. The same validation as
	// Platform.RunPanel applies: finite, non-negative, known species.
	Concentrations map[string]float64
}

// PanelOutcome is the serving stack's result for one sample.
type PanelOutcome struct {
	// Index is the sample's position in a Lab batch, or its fleet-wide
	// submission index in a Fleet. It also seeds the panel's noise
	// stream, which is why outcomes are byte-identical at any worker
	// count — and, in a Fleet, at any shard count.
	Index int
	// ID echoes the sample ID.
	ID string
	// Shard is the index of the Fleet shard that ran the panel (0 for
	// a plain Lab).
	Shard int
	// Result is the panel; valid only when Err is nil.
	Result PanelResult
	// Err is the per-sample failure; other samples are unaffected.
	Err error
	// ScheduledStartSeconds is when this panel starts on the physical
	// instrument's timeline: back-to-back cycles of the platform's
	// acquisition schedule (position × schedule cycle time; in a Fleet
	// the position is per-shard, since each shard is its own
	// instrument).
	ScheduledStartSeconds float64
	// WallSeconds is the simulation wall-clock cost of this panel.
	WallSeconds float64
}

// Lab is a reusable, concurrent panel-execution service over a designed
// Platform — the run-time counterpart of the design-time explorer. A
// Lab precomputes the platform's per-electrode calibration state once
// (CV calibrations, Michaelis–Menten inversion constants)
// and then runs batches on a bounded set of workers. All execution
// logic lives in internal/runtime; the Lab adds batching, scheduling
// and statistics.
//
// Concurrency model: every panel run builds its own measurement engine
// (NewEngine is cheap), seeded deterministically from the platform seed
// and the sample index, honouring the one-engine-per-goroutine
// contract. No mutable state is shared between in-flight panels except
// the read-only calibration table and the stats counters, so results
// are byte-identical at any worker count — PanelResult.Fingerprint
// proves it.
//
// A Lab runs whole batches (RunPanels) and single monitoring
// acquisitions (RunMonitor). For samples that arrive over time, or for
// dispatching across several platforms, use a Fleet: a one-shard Fleet
// with the same seed is bit-identical to a Lab.
type Lab struct {
	core    *execCore
	workers int
}

// LabOption customizes a Lab.
type LabOption func(*Lab)

// WithLabWorkers sets the panel concurrency; 0 (the default) uses one
// worker per available CPU. The worker count changes wall-clock time
// only, never results.
func WithLabWorkers(n int) LabOption {
	return func(l *Lab) { l.workers = n }
}

// NewLab builds a Lab over a designed platform and warms its
// calibration table: every electrode construction's calibration state
// (including the expensive unit-template diffusion simulations for
// voltammetric electrodes) is computed here, once per platform, so the
// serving path only ever reads it.
func NewLab(p *Platform, opts ...LabOption) (*Lab, error) {
	if p == nil || p.inner == nil {
		return nil, fmt.Errorf("advdiag: NewLab needs a designed platform")
	}
	l := &Lab{}
	for _, opt := range opts {
		opt(l)
	}
	if l.workers <= 0 {
		l.workers = runtime.NumCPU()
	}
	core, err := newExecCore(p, p.seed)
	if err != nil {
		return nil, err
	}
	l.core = core
	return l, nil
}

// Workers reports the batch concurrency.
func (l *Lab) Workers() int { return l.workers }

// RunPanels measures a batch of samples on the Lab's workers and
// returns one outcome per sample, in sample order. Per-sample failures
// land in the outcome's Err; the rest of the batch is unaffected.
//
// Samples run in contiguous chunks so each chunk shares one executor
// scratch (cell, engine, chains, trace arena — see runtime.RunBatch);
// results are byte-identical to one-panel-at-a-time execution at any
// worker count, because each panel's noise stream derives only from its
// sample index. Each outcome's WallSeconds is its chunk's wall time
// spread evenly over the chunk.
func (l *Lab) RunPanels(samples []Sample) []PanelOutcome {
	n := len(samples)
	out := make([]PanelOutcome, n)
	if n == 0 {
		return out
	}
	chunk := n / l.workers
	if chunk < 1 {
		chunk = 1
	}
	if chunk > labBatchMax {
		chunk = labBatchMax
	}
	nChunks := (n + chunk - 1) / chunk
	conc.ForEach(nChunks, l.workers, func(ci int) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		jobs := make([]fleetJob, hi-lo)
		for j := range jobs {
			jobs[j] = fleetJob{seedIdx: lo + j, schedIdx: lo + j, sample: samples[lo+j]}
		}
		l.core.runBatch(jobs, nil, out[lo:hi])
	})
	return out
}

// execCore runs panels and monitoring acquisitions on one designed
// platform's executor and keeps the aggregate service counters. A Lab
// is one core plus a worker count; every Fleet shard owns one core and
// drives it from the shard's own workers.
type execCore struct {
	p    *Platform
	seed uint64

	mu              sync.Mutex
	panels          uint64
	failures        uint64
	monitors        uint64
	monitorFailures uint64
	firstStart      time.Time
	lastEnd         time.Time
}

// newExecCore warms the platform's calibration table and returns a core
// that seeds panels from seed.
func newExecCore(p *Platform, seed uint64) (*execCore, error) {
	if err := p.exec.Warm(); err != nil {
		return nil, err
	}
	return &execCore{p: p, seed: seed}, nil
}

// labBatchMax bounds how many panels one coalesced batch runs over a
// single executor scratch. Large enough to amortize the scratch's cell,
// engine and chain reuse across a whole queue burst, small enough that
// a batch never holds a worker for more than a handful of panels at a
// time.
const labBatchMax = 16

// record folds one run of n panels (or monitor acquisitions), failed of
// them failing, into the aggregate stats.
func (c *execCore) record(start, end time.Time, monitor bool, n, failed uint64) {
	c.mu.Lock()
	if monitor {
		c.monitors += n
		c.monitorFailures += failed
	} else {
		c.panels += n
		c.failures += failed
	}
	if c.firstStart.IsZero() || start.Before(c.firstStart) {
		c.firstStart = start
	}
	if end.After(c.lastEnd) {
		c.lastEnd = end
	}
	c.mu.Unlock()
}

// runBatch executes a coalesced run of panels over one executor scratch
// and writes the outcome for jobs[i] into out[i]. Each job's seedIdx
// picks its deterministic noise stream and schedIdx its slot on the
// instrument timeline (they coincide for Lab batches and diverge on
// Fleet shards). fault, when non-nil, is an injected electrode fouling
// (a Fleet shard with a FaultFouledElectrode armed). Every panel is
// bit-identical to a standalone run of its sample and seed (the batch
// kernel reuses allocations, never noise streams). The aggregate stats
// advance once per batch, and WallSeconds reports the batch's
// wall-clock cost spread evenly across its panels, since the shared
// scratch makes per-panel attribution meaningless; a batch of one
// reports its own panel's cost.
func (c *execCore) runBatch(jobs []fleetJob, fault *rt.Fouling, out []PanelOutcome) {
	start := time.Now()
	concs := make([]map[string]float64, len(jobs))
	seeds := make([]uint64, len(jobs))
	for i, j := range jobs {
		concs[i] = j.sample.Concentrations
		seeds[i] = rt.SampleSeed(c.seed, j.seedIdx)
	}
	panels, errs := c.p.exec.RunBatch(concs, seeds, fault)
	end := time.Now()

	per := end.Sub(start).Seconds() / float64(len(jobs))
	var failures uint64
	for i, j := range jobs {
		o := PanelOutcome{
			Index:                 j.seedIdx,
			ID:                    j.sample.ID,
			Err:                   errs[i],
			ScheduledStartSeconds: float64(j.schedIdx) * c.p.inner.Plan.CycleTime(),
			WallSeconds:           per,
		}
		if errs[i] == nil {
			o.Result = panelResult(panels[i])
		} else {
			failures++
		}
		out[i] = o
	}
	c.record(start, end, false, uint64(len(jobs)), failures)
}

// LabStats is an aggregate snapshot of a Lab's service counters.
type LabStats struct {
	// Workers is the batch concurrency (per shard in a Fleet).
	Workers int
	// PanelsRun counts finished panels (including failed ones);
	// Failures counts the failed subset.
	PanelsRun, Failures uint64
	// MonitorsRun counts finished monitoring acquisitions (including
	// failed ones); MonitorFailures the failed subset.
	MonitorsRun, MonitorFailures uint64
	// WallSeconds spans the first panel start to the last panel end.
	WallSeconds float64
	// PanelsPerSecond is PanelsRun over WallSeconds (simulation
	// throughput, not instrument throughput).
	PanelsPerSecond float64
	// PanelSeconds and CycleSeconds come from the platform's
	// acquisition schedule; InstrumentPanelsPerHour is the physical
	// instrument's ceiling (schedule.Plan.Throughput).
	PanelSeconds, CycleSeconds float64
	InstrumentPanelsPerHour    float64
}

// String renders the snapshot as one report line.
func (s LabStats) String() string {
	return fmt.Sprintf("lab: %d workers, %d panels (%d failed), %.1f panels/s wall, instrument %.1f panels/h",
		s.Workers, s.PanelsRun, s.Failures, s.PanelsPerSecond, s.InstrumentPanelsPerHour)
}

// Stats returns the current aggregate counters.
func (l *Lab) Stats() LabStats { return l.core.stats(l.workers) }

// stats snapshots the core's counters as a LabStats for a pool of
// workers.
func (c *execCore) stats(workers int) LabStats {
	plan := c.p.inner.Plan
	st := LabStats{
		Workers:                 workers,
		PanelSeconds:            plan.PanelTime(),
		CycleSeconds:            plan.CycleTime(),
		InstrumentPanelsPerHour: plan.Throughput(),
	}
	c.mu.Lock()
	st.PanelsRun, st.Failures = c.panels, c.failures
	st.MonitorsRun, st.MonitorFailures = c.monitors, c.monitorFailures
	if !c.firstStart.IsZero() {
		st.WallSeconds = c.lastEnd.Sub(c.firstStart).Seconds()
	}
	c.mu.Unlock()
	if st.WallSeconds > 0 {
		st.PanelsPerSecond = float64(st.PanelsRun) / st.WallSeconds
	}
	return st
}
