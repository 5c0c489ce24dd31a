package advdiag

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"advdiag/internal/mathx"
	rt "advdiag/internal/runtime"
)

// ErrFleetSaturated is returned by TrySubmit when the routed shard's
// bounded queue is full: explicit backpressure for callers that would
// rather shed load (or route elsewhere) than block.
var ErrFleetSaturated = errors.New("advdiag: fleet shard queue is full")

// ErrFleetClosed is the sentinel a closed Fleet returns from Submit,
// TrySubmit and a second Close.
var ErrFleetClosed = errors.New("advdiag: fleet is closed")

// Fleet is a sharded multi-platform dispatcher: N shards, each a
// designed Platform with its own workers and bounded input queue,
// behind one routing front door. Where a Lab runs batches on one
// platform, a Fleet multiplexes heterogeneous panel traffic across many
// (possibly different) platforms, the way a clinical integration layer
// multiplexes assay requests across backend analyzers.
//
// Determinism: every accepted sample gets a fleet-wide submission
// index, and its noise stream is seeded from the fleet seed and that
// index alone (runtime.SampleSeed — the same derivation a Lab uses).
// Which shard runs a sample, how many shards exist, and which routing
// policy chose the shard therefore never influence the result: for the
// same submission sequence, a Fleet of identical platforms is
// byte-identical to a single Lab, at any shard count, under any
// Router. The index is the fleet's lifetime acceptance counter, so the
// k-th sample ever accepted matches the k-th sample of the Lab run — a
// second RunPanels batch on a reused Fleet continues the sequence
// rather than restarting at 0 the way Lab.RunPanels does; compare whole
// submission histories (or use a fresh Fleet per comparison).
//
// The contract survives topology changes: AddShard and RemoveShard
// reshape the fleet under live load, so "byte-identical to one fixed
// Lab run" relaxes to the replay-checkable per-sample invariant —
// given a result's submission index and sample, ReplayPanel recomputes
// it bit-identically on any shard of any topology, because the seed
// carries the determinism and the seed never depends on where (or
// after how many reroutes) the sample actually ran.
//
// Backpressure: each shard's queue is bounded. Submit blocks until the
// routed shard has room (natural backpressure for pipelines);
// TrySubmit returns ErrFleetSaturated instead of blocking (explicit
// load-shedding for latency-sensitive front ends). Rejections are
// counted in FleetStats.
//
// Any number of submitters may share one Fleet: streaming Submit
// callers, concurrent RunPanels batches, a Server and an in-process
// MonitorScheduler. Jobs accepted through RunPanels or a Server carry
// their own completion target, so their outcomes never appear on
// Results or MonitorResults, which serve only Submit and SubmitMonitor
// traffic.
//
// Lifecycle: Drain waits for everything accepted so far to finish
// (keep consuming Results); Close stops intake, drains, and closes
// Results. Both are safe under concurrent submissions.
type Fleet struct {
	shards  []*fleetShard
	router  Router
	seed    uint64
	workers int
	depth   int
	// failThreshold / restoreThreshold are the circuit breaker's
	// consecutive-probe counts: that many probe failures in a row open a
	// healthy shard's breaker, that many known-good probes in a row
	// close a quarantined shard's breaker and restore it. Immutable
	// after construction (see WithFleetProbePolicy).
	failThreshold    int
	restoreThreshold int
	// probeSeed seeds every probe panel. Probes live outside the
	// submission-index seed sequence, so probing never perturbs serving
	// results.
	probeSeed uint64

	results  chan PanelOutcome
	mresults chan MonitorOutcome
	workWG   sync.WaitGroup // shard worker goroutines

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when completed advances
	submitted int
	completed int
	rejected  uint64
	routeErrs uint64
	// Monitor counters, separate from the panel counters above: panel
	// seeds derive from the panel submission index, so monitor traffic
	// must never advance it.
	msubmitted int
	mcompleted int
	mrejected  uint64
	faultPlan  *FaultPlan
	closed     bool
	submitWG   sync.WaitGroup // Submits between closed-check and enqueue
	first      time.Time
	last       time.Time
	// events is the lifecycle history ring (capacity fleetEventCap);
	// eventSeq counts everything ever recorded, so eventSeq%cap is the
	// next write position once the ring is full.
	events   []FleetEvent
	eventSeq int
}

// fleetShard is one backend: an execution core over its platform plus
// the shard's dispatch state.
type fleetShard struct {
	index   int
	core    *execCore
	targets []string
	queue   chan fleetJob
	// fault is the shard's armed fault state; nil is the healthy fast
	// path (one atomic load per job).
	fault atomic.Pointer[shardFaultState]
	// quarantined removes the shard from the router's view; guarded by
	// the Fleet mutex.
	quarantined bool
	// removed marks a shard retired by RemoveShard: out of the routing
	// view forever, workers shutting down, index kept (never reused) so
	// stats, replay and operator timelines stay stable. Guarded by the
	// Fleet mutex.
	removed bool
	// retired is set by the retire goroutine once the removed shard's
	// queue has been closed; Close must not close it again. Guarded by
	// the Fleet mutex (and ordered before Close's read by submitWG).
	retired bool
	// handoffs counts in-flight deliveries aimed at this shard — a
	// Submit or reroute that routed here under the lock but enqueues
	// outside it. RemoveShard waits for them before closing the queue.
	handoffs sync.WaitGroup
	// breaker is the shard's circuit-breaker position; probeFails /
	// probeGoods its consecutive probe counters; restores how often the
	// breaker closed again automatically. All guarded by the Fleet
	// mutex.
	breaker    BreakerState
	probeFails int
	probeGoods int
	restores   uint64
	// probeSample (every target at probeConcMM) and probeGood (its
	// healthy fingerprint) are fixed at shard construction.
	probeSample map[string]float64
	probeGood   uint64
	// stalled holds jobs a dead shard's workers dequeued but must not
	// run — a hung instrument keeping its accepted work. Guarded by the
	// Fleet mutex; drained by Quarantine or run in place after
	// ClearFaults.
	stalled []fleetJob
	// sched is the shard's instrument-timeline position counter:
	// assigned at routing time, so back-to-back cycles follow arrival
	// order on the shard.
	sched int
	// pending counts samples accepted for this shard and not yet
	// delivered (queued + executing). It is guarded by the
	// Fleet mutex and updated at accept/complete time, so the router's
	// load snapshot never loses sight of a job in the dequeue window.
	pending int
	// routed counts everything ever enqueued.
	routed atomic.Uint64
}

// fleetJob carries one routed sample: seedIdx is the fleet-wide
// submission index (the determinism anchor), schedIdx the per-shard
// instrument slot. When monitor is non-nil the job is a monitoring
// acquisition instead: seedIdx is then the monitor acceptance index
// (ordering only — the request carries its own seed) and schedIdx is
// unused, because monitor campaigns live on a virtual timeline, not
// the shard's back-to-back instrument schedule.
//
// A job travels with its completion target through queues, reroutes,
// parking and stalls: done (panels) or mdone (monitors) receives the
// outcome when set, Results or MonitorResults when nil. The callbacks
// run on the worker that completes the job and must not block. ctx,
// when set, is the requester's context: a job whose ctx is done by the
// time a worker would run it completes with ctx.Err() without running.
type fleetJob struct {
	seedIdx, schedIdx int
	sample            Sample
	monitor           *MonitorRequest
	ctx               context.Context
	done              func(PanelOutcome)
	mdone             func(MonitorOutcome)
}

// abandoned returns the requester's context error once it has gone
// away, nil while the job should still run.
func (j *fleetJob) abandoned() error {
	if j.ctx == nil {
		return nil
	}
	return j.ctx.Err()
}

// routingSample is the router's view of the job.
func (j *fleetJob) routingSample() Sample {
	if j.monitor != nil {
		return monitorRoutingSample(*j.monitor)
	}
	return j.sample
}

// shardFaultState is the compiled, immutable fault configuration a
// shard's workers consult before each job. It is swapped atomically as
// a whole: workers either see the previous state or the next, never a
// torn mix. nil means healthy.
type shardFaultState struct {
	// fouling perturbs the analog chain of matching electrodes
	// (FaultFouledElectrode).
	fouling *rt.Fouling
	// dead parks dequeued jobs instead of running them
	// (FaultDeadShard).
	dead bool
	// delay stalls each job before it runs (FaultSlowShard).
	delay time.Duration
	// flaky stalls jobs that land on down slots of a seeded duty cycle
	// (FaultFlakyShard).
	flaky *flakyState
	// lifted is closed when the dead fault lifts (quarantine, clear, or
	// fleet close); parked workers resume from it.
	lifted chan struct{}
}

// flakyState is a FaultFlakyShard's compiled duty cycle: a shared slot
// counter — jobs and health probes draw from the same sequence, so the
// breaker sees the same intermittency the traffic does — mapped onto a
// period of down-then-up slots, phase-shifted by the fault seed.
type flakyState struct {
	period, down, offset uint64
	n                    atomic.Uint64
}

// downNow consumes one slot and reports whether it is a down slot.
func (fk *flakyState) downNow() bool {
	slot := fk.n.Add(1) - 1
	return (fk.offset+slot)%fk.period < fk.down
}

// BreakerState is a shard's circuit-breaker position, surfaced in
// FleetShardStats.
type BreakerState int

const (
	// BreakerClosed is the healthy position: the shard is in the routing
	// view and serves traffic.
	BreakerClosed BreakerState = iota
	// BreakerOpen means consecutive probe failures — or a quarantine
	// verdict from the Diagnoser or an operator — tripped the breaker:
	// the shard is out of the routing view and sees probe traffic only.
	BreakerOpen
	// BreakerHalfOpen means an open shard's probes have started matching
	// its known-good fingerprint again: still out of the routing view,
	// but restoreThreshold consecutive matches away from being restored.
	BreakerHalfOpen
)

// String names the breaker position.
func (b BreakerState) String() string {
	switch b {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(b))
	}
}

// MarshalJSON encodes the position as its String form — what the
// operator-facing stats JSON wants.
func (b BreakerState) MarshalJSON() ([]byte, error) { return json.Marshal(b.String()) }

// UnmarshalJSON decodes the String form.
func (b *BreakerState) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "closed":
		*b = BreakerClosed
	case "open":
		*b = BreakerOpen
	case "half-open":
		*b = BreakerHalfOpen
	default:
		return fmt.Errorf("advdiag: unknown breaker state %q", s)
	}
	return nil
}

// Fleet lifecycle event kinds, as recorded in the history ring. They
// mirror the wire package's DiagnosisEvent vocabulary.
const (
	EventShardAdded   = "shard_added"
	EventShardRemoved = "shard_removed"
	EventQuarantined  = "quarantined"
	EventProbed       = "probed"
	EventRestored     = "restored"
)

// FleetEvent is one timestamped entry of the fleet's lifecycle
// history: topology changes, quarantine verdicts, probe transitions,
// automatic restores. The fleet keeps the most recent fleetEventCap
// entries; the Diagnoser attaches them to every Diagnosis, so
// GET /v1/diagnosis serves an operator timeline.
type FleetEvent struct {
	At     time.Time
	Kind   string
	Shard  int
	Detail string
}

// fleetEventCap bounds the history ring.
const fleetEventCap = 256

// recordEventLocked appends one event to the history ring (callers
// hold f.mu).
func (f *Fleet) recordEventLocked(kind string, shard int, detail string) {
	ev := FleetEvent{At: time.Now(), Kind: kind, Shard: shard, Detail: detail}
	if len(f.events) < fleetEventCap {
		f.events = append(f.events, ev)
	} else {
		f.events[f.eventSeq%fleetEventCap] = ev
	}
	f.eventSeq++
}

// Events returns the lifecycle history, oldest first — at most the
// most recent fleetEventCap entries.
func (f *Fleet) Events() []FleetEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FleetEvent, 0, len(f.events))
	if f.eventSeq > len(f.events) {
		start := f.eventSeq % fleetEventCap
		out = append(out, f.events[start:]...)
		out = append(out, f.events[:start]...)
	} else {
		out = append(out, f.events...)
	}
	return out
}

// FleetOption customizes a Fleet.
type FleetOption func(*Fleet)

// WithFleetRouter selects the routing policy (default
// LeastLoadedRouter).
func WithFleetRouter(r Router) FleetOption {
	return func(f *Fleet) { f.router = r }
}

// WithFleetWorkers sets each shard's worker count (default 1). Worker
// count changes wall-clock time only, never results.
func WithFleetWorkers(n int) FleetOption {
	return func(f *Fleet) { f.workers = n }
}

// WithFleetQueueDepth bounds each shard's input queue (default
// 2×workers, minimum 1). A fuller queue means more buffering before
// Submit blocks or TrySubmit rejects.
func WithFleetQueueDepth(n int) FleetOption {
	return func(f *Fleet) { f.depth = n }
}

// WithFleetSeed sets the base noise seed per-sample streams derive
// from (default: the first platform's seed). A Lab with the same seed
// over the same platform produces byte-identical results.
func WithFleetSeed(seed uint64) FleetOption {
	return func(f *Fleet) { f.seed = seed }
}

// WithFleetFaultPlan arms a replayable fault plan at construction —
// the fleet starts life already degraded, which is how the scenario
// tests create a sick shard on purpose. See FaultPlan and
// Fleet.InjectFaults.
func WithFleetFaultPlan(plan FaultPlan) FleetOption {
	return func(f *Fleet) { f.faultPlan = &plan }
}

// WithFleetProbePolicy sets the circuit breaker's consecutive-probe
// thresholds: a healthy shard's breaker opens (quarantining it) after
// failures probe failures in a row, and a quarantined shard is
// restored after restores consecutive probe panels matching its
// known-good fingerprint. Both default to 3; values below 1 clamp
// to 1. See Fleet.ProbeShards.
func WithFleetProbePolicy(failures, restores int) FleetOption {
	return func(f *Fleet) {
		f.failThreshold = failures
		f.restoreThreshold = restores
	}
}

// NewFleet builds a dispatcher over the given designed platforms (one
// shard each — they may serve different target panels) and starts the
// shard workers. Every shard's calibration cache is warmed here, so
// the serving path only ever reads it.
func NewFleet(platforms []*Platform, opts ...FleetOption) (*Fleet, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("advdiag: NewFleet needs at least one platform")
	}
	for i, p := range platforms {
		if p == nil || p.inner == nil {
			return nil, fmt.Errorf("advdiag: NewFleet shard %d: platform is not designed", i)
		}
	}
	f := &Fleet{router: LeastLoadedRouter{}, seed: platforms[0].seed, workers: 1,
		failThreshold: 3, restoreThreshold: 3}
	for _, opt := range opts {
		opt(f)
	}
	if f.workers < 1 {
		f.workers = 1
	}
	if f.depth < 1 {
		f.depth = 2 * f.workers
	}
	if f.router == nil {
		f.router = LeastLoadedRouter{}
	}
	if f.failThreshold < 1 {
		f.failThreshold = 1
	}
	if f.restoreThreshold < 1 {
		f.restoreThreshold = 1
	}
	f.probeSeed = mathx.Mix64(f.seed ^ mathx.SplitmixGamma)
	f.cond = sync.NewCond(&f.mu)
	f.results = make(chan PanelOutcome, len(platforms)*f.depth)
	f.mresults = make(chan MonitorOutcome, len(platforms)*f.depth)
	// Build every shard before starting any worker: a construction
	// failure on a later shard must not leak goroutines blocked on the
	// earlier shards' queues.
	for i, p := range platforms {
		core, err := newExecCore(p, f.seed)
		if err != nil {
			return nil, fmt.Errorf("advdiag: NewFleet shard %d: %w", i, err)
		}
		sh := &fleetShard{
			index:   i,
			core:    core,
			targets: p.Targets(),
			queue:   make(chan fleetJob, f.depth),
		}
		if err := f.probeBaseline(sh); err != nil {
			return nil, fmt.Errorf("advdiag: NewFleet shard %d probe baseline: %w", i, err)
		}
		f.shards = append(f.shards, sh)
	}
	for _, sh := range f.shards {
		for w := 0; w < f.workers; w++ {
			f.workWG.Add(1)
			go f.shardWorker(sh)
		}
	}
	if f.faultPlan != nil {
		if err := f.InjectFaults(*f.faultPlan); err != nil {
			f.Close() //nolint:errcheck // construction bail-out
			return nil, err
		}
	}
	return f, nil
}

// Shards reports the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// shardWorker executes routed jobs for one shard until its queue
// closes, consulting the shard's fault state before each job. The
// healthy path costs one atomic nil-check, and opportunistically
// coalesces whatever compatible panel jobs are already queued into one
// bounded batch over a shared executor scratch: the drain is
// non-blocking (a worker never waits for a batch to fill), stops at
// monitor jobs and at fault states that need per-job handling, and
// preserves queue order, so submission indices — and with them every
// panel's noise stream — are untouched.
func (f *Fleet) shardWorker(sh *fleetShard) {
	defer f.workWG.Done()
	jobs := make([]fleetJob, 0, labBatchMax)
	for job := range sh.queue {
		fs := sh.fault.Load()
		if job.monitor != nil || !batchableFault(fs) {
			f.dispatchJob(sh, job)
			continue
		}
		jobs = append(jobs[:0], job)
		var (
			tail    fleetJob // monitor job that ended the drain
			hasTail bool
			closed  bool
		)
	drain:
		for len(jobs) < labBatchMax {
			select {
			case next, ok := <-sh.queue:
				if !ok {
					closed = true
					break drain
				}
				if next.monitor != nil {
					tail, hasTail = next, true
					break drain
				}
				jobs = append(jobs, next)
			default:
				break drain
			}
		}
		f.runJobBatch(sh, jobs, fs)
		if hasTail {
			f.dispatchJob(sh, tail)
		}
		if closed {
			return
		}
	}
}

// batchableFault reports whether a shard's fault state allows coalesced
// execution: healthy shards and fouled-electrode shards batch (fouling
// is a pure per-panel signal perturbation), while dead, flaky and slow
// shards need dispatchJob's per-job park/stall/delay handling.
func batchableFault(fs *shardFaultState) bool {
	return fs == nil || (!fs.dead && fs.flaky == nil && fs.delay == 0)
}

// runJobBatch executes a coalesced run of panel jobs under one fault
// snapshot and delivers the outcomes in submission order; abandoned
// jobs complete first, without running. Fault states injected mid-batch
// take effect from the next dequeue, exactly as a fault injected
// mid-panel waits for the next job on the per-job path.
func (f *Fleet) runJobBatch(sh *fleetShard, jobs []fleetJob, fs *shardFaultState) {
	var fouling *rt.Fouling
	if fs != nil {
		fouling = fs.fouling
	}
	live := jobs[:0]
	for _, j := range jobs {
		if err := j.abandoned(); err != nil {
			f.failJob(sh, j, err)
			continue
		}
		live = append(live, j)
	}
	switch len(live) {
	case 0:
		return
	case 1:
		f.runJob(sh, live[0], fouling)
		return
	}
	outs := make([]PanelOutcome, len(live))
	sh.core.runBatch(live, fouling, outs)
	for i, j := range live {
		outs[i].Shard = sh.index
		f.finishPanel(sh, j, outs[i])
	}
}

// dispatchJob runs, parks, or stalls one dequeued job according to the
// shard's fault state.
func (f *Fleet) dispatchJob(sh *fleetShard, job fleetJob) {
	for {
		fs := sh.fault.Load()
		if fs != nil && fs.dead {
			f.parkJob(sh, fs, job)
			return
		}
		if fs != nil && fs.flaky != nil && fs.flaky.downNow() {
			if f.stallJob(sh, fs, job) {
				return
			}
			// The fault state changed between the slot draw and the
			// stall — re-evaluate against the current state.
			continue
		}
		if fs != nil && fs.delay > 0 && job.abandoned() == nil {
			time.Sleep(fs.delay)
		}
		var fouling *rt.Fouling
		if fs != nil {
			fouling = fs.fouling
		}
		f.runJob(sh, job, fouling)
		return
	}
}

// stallJob holds a job that hit a flaky shard's down slot. Unlike a
// dead shard's parkJob, the worker does not block: the job joins the
// stalled list (rescued by Quarantine, RemoveShard, or ClearFaults —
// never lost) and the worker moves on, because a flaky shard still
// serves its up slots. Returns false when the fault state changed
// under the stall, in which case the caller re-evaluates: ClearFaults
// reroutes the stalled list it collected under the same lock, so
// parking against a stale state would orphan the job.
func (f *Fleet) stallJob(sh *fleetShard, fs *shardFaultState, job fleetJob) bool {
	f.mu.Lock()
	if sh.quarantined || sh.removed {
		// The shard's backlog was already drained: hand the straggler to
		// the reroute path.
		moves, fails := f.rerouteLocked(sh, []fleetJob{job})
		f.mu.Unlock()
		f.deliver(moves, fails)
		return true
	}
	if sh.fault.Load() != fs {
		f.mu.Unlock()
		return false
	}
	sh.stalled = append(sh.stalled, job)
	f.mu.Unlock()
	return true
}

// runJob executes one routed job on its shard and delivers the outcome;
// an abandoned job completes with its context error without running.
func (f *Fleet) runJob(sh *fleetShard, job fleetJob, fouling *rt.Fouling) {
	if err := job.abandoned(); err != nil {
		f.failJob(sh, job, err)
		return
	}
	if job.monitor != nil {
		out := sh.core.runMonitor(job.seedIdx, *job.monitor)
		out.Shard = sh.index
		f.finishMonitor(sh, job, out)
		return
	}
	out := sh.core.runIndexed(job.seedIdx, job.schedIdx, job.sample, fouling)
	out.Shard = sh.index
	f.finishPanel(sh, job, out)
}

// finishPanel hands a panel outcome to its job's completion target —
// the submitter's done callback, or Results — and records the
// completion against sh.
func (f *Fleet) finishPanel(sh *fleetShard, job fleetJob, o PanelOutcome) {
	if job.done != nil {
		job.done(o)
	} else {
		f.results <- o
	}
	f.complete(sh, false)
}

// finishMonitor is finishPanel for monitor jobs.
func (f *Fleet) finishMonitor(sh *fleetShard, job fleetJob, o MonitorOutcome) {
	if job.mdone != nil {
		job.mdone(o)
	} else {
		f.mresults <- o
	}
	f.complete(sh, true)
}

// failJob completes a job that will never run — abandoned by its
// requester, or unservable after a reroute — with err in an outcome of
// its kind, attributed to sh.
func (f *Fleet) failJob(sh *fleetShard, job fleetJob, err error) {
	if job.monitor != nil {
		f.finishMonitor(sh, job, MonitorOutcome{
			Index: job.seedIdx, ID: job.monitor.ID, Tick: job.monitor.Tick, Shard: sh.index, Err: err,
		})
		return
	}
	f.finishPanel(sh, job, PanelOutcome{Index: job.seedIdx, ID: job.sample.ID, Shard: sh.index, Err: err})
}

// parkJob holds a job a dead shard's worker dequeued: the job joins the
// shard's stalled list and the worker blocks until the fault lifts —
// a hung instrument that keeps its accepted work. Quarantine reroutes
// the stalled list to siblings; ClearFaults (and Close) release the
// workers to run whatever is still parked themselves.
func (f *Fleet) parkJob(sh *fleetShard, fs *shardFaultState, job fleetJob) {
	f.mu.Lock()
	if sh.quarantined || sh.removed {
		// Quarantine or removal already drained this shard: hand the
		// straggler to the reroute path instead of parking it forever.
		moves, fails := f.rerouteLocked(sh, []fleetJob{job})
		f.mu.Unlock()
		f.deliver(moves, fails)
		return
	}
	sh.stalled = append(sh.stalled, job)
	f.mu.Unlock()

	<-fs.lifted
	// The fault lifted. Quarantine empties the stalled list before
	// closing the channel, so anything still here was released by
	// ClearFaults or Close and belongs to this (no longer dead) shard.
	f.mu.Lock()
	jobs := sh.stalled
	sh.stalled = nil
	f.mu.Unlock()
	for _, j := range jobs {
		f.runJob(sh, j, nil)
	}
}

// complete records one finished job of sh's, advancing the completion
// counters and waking Drain.
func (f *Fleet) complete(sh *fleetShard, monitor bool) {
	now := time.Now()
	f.mu.Lock()
	sh.pending--
	if monitor {
		f.mcompleted++
	} else {
		f.completed++
	}
	if f.last.Before(now) {
		f.last = now
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// snapshotLocked builds the router's view (callers hold f.mu).
func (f *Fleet) snapshotLocked() []ShardInfo {
	view := make([]ShardInfo, len(f.shards))
	for i, sh := range f.shards {
		// pending covers queued + executing; whatever is not in the
		// queue right now is on a worker (or about to be — either way
		// it is load the router must see).
		ql := len(sh.queue)
		inflight := sh.pending - ql
		if inflight < 0 {
			inflight = 0
		}
		view[i] = ShardInfo{
			Index:    i,
			Targets:  sh.targets,
			QueueLen: ql,
			QueueCap: f.depth,
			InFlight: inflight,
			Load:     float64(sh.pending) / float64(f.depth+f.workers),
		}
	}
	return view
}

// routeViewLocked is the router's view: the current snapshot minus
// quarantined and removed shards. Filtering here — instead of flagging
// ShardInfo — keeps every Router topology-aware for free: a policy
// that never heard of quarantine or removal simply cannot pick a shard
// it cannot see. With no routable shard left the view is empty and
// routers answer ErrNoShard. Callers hold f.mu.
func (f *Fleet) routeViewLocked() []ShardInfo {
	view := f.snapshotLocked()
	healthy := view[:0]
	for i, sh := range f.shards {
		if !sh.quarantined && !sh.removed {
			healthy = append(healthy, view[i])
		}
	}
	return healthy
}

// route runs the router on the current view and validates its answer.
// Callers hold f.mu.
func (f *Fleet) routeLocked(s Sample) (*fleetShard, error) {
	idx, err := f.router.Route(s, f.routeViewLocked())
	if err != nil {
		f.routeErrs++
		return nil, err
	}
	if idx < 0 || idx >= len(f.shards) {
		f.routeErrs++
		return nil, fmt.Errorf("advdiag: router returned shard %d outside [0,%d)", idx, len(f.shards))
	}
	if f.shards[idx].quarantined || f.shards[idx].removed {
		f.routeErrs++
		return nil, fmt.Errorf("advdiag: router returned unroutable (quarantined or removed) shard %d", idx)
	}
	return f.shards[idx], nil
}

// Submit routes one sample and enqueues it on its shard, blocking
// while that shard's queue is full (backpressure). It returns the
// router's error for unroutable samples and ErrFleetClosed after
// Close. Consume Results concurrently.
func (f *Fleet) Submit(s Sample) error {
	return f.submit([]fleetJob{{sample: s}}, true)[0]
}

// TrySubmit is Submit without blocking: when the routed shard's queue
// is full it returns ErrFleetSaturated (counted in FleetStats) and the
// sample is not accepted.
func (f *Fleet) TrySubmit(s Sample) error {
	return f.submit([]fleetJob{{sample: s}}, false)[0]
}

// SubmitMonitor routes one monitoring acquisition and enqueues it on
// its shard, blocking while that shard's queue is full. Monitors share
// the shard queues and workers with panel traffic but keep their own
// acceptance counter and Results channel; because every monitor
// carries its own seed, interleaving with panels (or other monitors)
// never changes any result. Consume MonitorResults concurrently.
func (f *Fleet) SubmitMonitor(req MonitorRequest) error {
	return f.submit([]fleetJob{{monitor: &req}}, true)[0]
}

// TrySubmitMonitor is SubmitMonitor without blocking: when the routed
// shard's queue is full it returns ErrFleetSaturated (counted in
// FleetStats.MonitorsRejected) and the request is not accepted.
func (f *Fleet) TrySubmitMonitor(req MonitorRequest) error {
	return f.submit([]fleetJob{{monitor: &req}}, false)[0]
}

// submit routes and accepts jobs under one hold of the fleet lock, so
// the accepted panels take contiguous submission indices against every
// other submitter. With wait set, every routable job is accepted and
// submit blocks, outside the lock, until each has entered its shard
// queue (Submit's backpressure); without it a job whose shard queue is
// full is shed with ErrFleetSaturated and its acceptance rolled back
// (TrySubmit's). errs[i] is jobs[i]'s rejection, nil when accepted.
func (f *Fleet) submit(jobs []fleetJob, wait bool) []error {
	errs := make([]error, len(jobs))
	var handoffs []handoff
	f.mu.Lock()
	for i := range jobs {
		if f.closed {
			errs[i] = ErrFleetClosed
			continue
		}
		job := &jobs[i]
		sh, err := f.routeLocked(job.routingSample())
		if err != nil {
			errs[i] = err
			continue
		}
		f.acceptLocked(sh, job)
		if wait {
			handoffs = append(handoffs, f.handoffLocked(sh, *job))
			continue
		}
		select {
		case sh.queue <- *job:
		default:
			f.unacceptLocked(sh, job)
			errs[i] = ErrFleetSaturated
		}
	}
	f.mu.Unlock()
	f.deliver(handoffs, nil)
	return errs
}

// acceptLocked stamps an accepted job with its acceptance index — the
// panel submission index or the monitor acceptance index — and, for a
// panel, the shard's next instrument slot (callers hold f.mu). Monitors
// never advance the slot counter: campaigns run on a virtual timeline,
// and panel schedule positions must not depend on monitor traffic.
func (f *Fleet) acceptLocked(sh *fleetShard, job *fleetJob) {
	if f.first.IsZero() {
		f.first = time.Now()
	}
	if job.monitor != nil {
		job.seedIdx = f.msubmitted
		f.msubmitted++
	} else {
		job.seedIdx, job.schedIdx = f.submitted, sh.sched
		f.submitted++
		sh.sched++
	}
	sh.pending++
	sh.routed.Add(1)
}

// unacceptLocked rolls back the acceptance just made for a job that
// never entered its queue and counts the rejection (callers hold
// f.mu): neither the acceptance index nor the shard slot may advance,
// or a later Lab comparison would desync.
func (f *Fleet) unacceptLocked(sh *fleetShard, job *fleetJob) {
	if job.monitor != nil {
		f.msubmitted--
		f.mrejected++
	} else {
		f.submitted--
		sh.sched--
		f.rejected++
	}
	sh.pending--
	sh.routed.Add(^uint64(0))
}

// monitorRoutingSample is the router's view of a monitor request: the
// campaign ID keys consistent-hash routing (same campaign → same
// shard, the patient→instrument affinity longitudinal tracking wants)
// and the target keys panel-type affinity.
func monitorRoutingSample(req MonitorRequest) Sample {
	return Sample{ID: req.ID, Concentrations: map[string]float64{req.Target: req.ConcentrationMM}}
}

// MonitorResults returns the merged monitor output channel for
// SubmitMonitor and TrySubmitMonitor traffic. Outcomes arrive in
// completion order, each tagged with its acceptance Index, campaign ID
// and Tick, and the Shard that ran it; Close closes the channel once
// every accepted request has been measured. A Server's monitor
// requests take delivery themselves and never appear here, so an
// in-process MonitorScheduler can consume this channel while a Server
// serves the same fleet.
func (f *Fleet) MonitorResults() <-chan MonitorOutcome { return f.mresults }

// Results returns the merged output channel for Submit and TrySubmit
// traffic (RunPanels and Server outcomes go to their own requesters).
// Outcomes arrive in completion order, each tagged with its fleet-wide
// Index and the Shard that ran it; Close closes the channel once every
// accepted sample has been measured.
func (f *Fleet) Results() <-chan PanelOutcome { return f.results }

// Drain blocks until every sample accepted before the call has been
// measured and delivered. Submissions may continue from other
// goroutines; Drain tracks the count it observed at entry. The caller
// must keep consuming Results (or rely on its buffering) while
// draining. Note that a shard held dead by FaultDeadShard never
// completes its jobs: Drain then blocks until the shard is quarantined
// (rerouting its backlog) or the fault is cleared.
func (f *Fleet) Drain() {
	f.mu.Lock()
	target, mtarget := f.submitted, f.msubmitted
	for f.completed < target || f.mcompleted < mtarget {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Close stops intake, waits for in-flight panels, and closes Results.
// The first Close returns nil; later ones return ErrFleetClosed.
// Like Drain, Close requires Results to keep being consumed (or to
// have buffer room) while the queues empty.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	f.closed = true
	// Lift every fault before shutting the queues: workers parked by a
	// dead fault must wake, run the work they were holding, and observe
	// the queue close — otherwise workWG.Wait would hang on them.
	shards := f.shards
	for _, sh := range shards {
		f.liftFaultLocked(sh)
	}
	f.mu.Unlock()

	// Wait out Submits caught between their closed-check and the queue
	// handoff (reroute deliveries and retire goroutines count too),
	// then shut the shard queues down. A removed shard's retire
	// goroutine closed its queue itself — retired is ordered before
	// this read by the retire goroutine's submitWG registration.
	f.submitWG.Wait()
	for _, sh := range shards {
		if !sh.retired {
			close(sh.queue)
		}
	}
	f.workWG.Wait()
	close(f.results)
	close(f.mresults)
	return nil
}

// InjectFault arms one fault on its target shard at run time. Faults
// of different kinds compose on a shard (a shard can be fouled and
// slow at once); re-injecting a kind replaces the earlier instance.
// Injection is atomic per shard: workers observe either the previous
// fault state or the new one, never a torn mix.
func (f *Fleet) InjectFault(ft Fault) error {
	if err := ft.Validate(len(f.shards)); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFleetClosed
	}
	if f.shards[ft.Shard].removed {
		return fmt.Errorf("advdiag: fault targets removed shard %d", ft.Shard)
	}
	f.injectLocked(ft)
	return nil
}

// InjectFaults arms a whole plan, validating every fault before arming
// any — a plan takes effect completely or not at all.
func (f *Fleet) InjectFaults(plan FaultPlan) error {
	if err := plan.Validate(len(f.shards)); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFleetClosed
	}
	for _, ft := range plan.Faults {
		if f.shards[ft.Shard].removed {
			return fmt.Errorf("advdiag: fault targets removed shard %d", ft.Shard)
		}
	}
	for _, ft := range plan.Faults {
		f.injectLocked(ft)
	}
	return nil
}

// injectLocked compiles one fault into its shard's state (callers hold
// f.mu). Copy-on-write: the previous state object stays intact for any
// worker that already loaded it.
func (f *Fleet) injectLocked(ft Fault) {
	sh := f.shards[ft.Shard]
	ns := &shardFaultState{}
	if prev := sh.fault.Load(); prev != nil {
		*ns = *prev
	}
	switch ft.Kind {
	case FaultFouledElectrode:
		ns.fouling = &rt.Fouling{Target: ft.Target, Severity: ft.Severity, Seed: ft.Seed}
	case FaultSlowShard:
		ns.delay = ft.Delay
	case FaultDeadShard:
		ns.dead = true
		if ns.lifted == nil {
			ns.lifted = make(chan struct{})
		}
	case FaultFlakyShard:
		down := int(math.Round(ft.Severity * float64(ft.Period)))
		if down < 1 {
			down = 1
		}
		if down > ft.Period-1 {
			down = ft.Period - 1
		}
		ns.flaky = &flakyState{
			period: uint64(ft.Period),
			down:   uint64(down),
			offset: mathx.Mix64(ft.Seed) % uint64(ft.Period),
		}
	}
	sh.fault.Store(ns)
}

// liftFaultLocked clears a shard's fault state, waking workers parked
// by a dead fault (callers hold f.mu).
func (f *Fleet) liftFaultLocked(sh *fleetShard) {
	fs := sh.fault.Swap(nil)
	if fs != nil && fs.lifted != nil {
		close(fs.lifted)
	}
}

// liftForQuarantineLocked is the fault lift Quarantine applies
// (callers hold f.mu). Dead, fouled and slow faults are cleared: a
// dead fault parks workers that must wake to stay able to serve
// stragglers already in a Submit handoff, and a fouled or slow fault
// would distort or delay the straggler that still completes here. A
// flaky fault persists through quarantine — its down slots never run
// a job in place (stallJob reroutes off a quarantined shard) and its
// up slots run healthy, so keeping it is fingerprint-safe — and it
// keeps the shard demonstrably broken, so health probes hold the
// breaker open until ClearFaults actually heals the hardware rather
// than restoring the shard the moment its breaker opens.
func (f *Fleet) liftForQuarantineLocked(sh *fleetShard) {
	fs := sh.fault.Load()
	if fs == nil {
		return
	}
	if fs.flaky == nil {
		f.liftFaultLocked(sh)
		return
	}
	// Same flakyState pointer: the duty-cycle slot counter keeps
	// advancing across the quarantine, like the real intermittent
	// hardware it models.
	sh.fault.Store(&shardFaultState{flaky: fs.flaky})
	if fs.lifted != nil {
		close(fs.lifted)
	}
}

// ClearFaults lifts every injected fault: fouled electrodes heal, slow
// shards speed back up, dead shards' workers wake and run the jobs
// they were holding (healthy — the fault is gone), and jobs stalled by
// a flaky shard's down slots are rerouted (often back to the very
// shard, now healthy — no worker is waiting on them, so they must
// travel through the reroute path rather than run in place).
// Quarantine decisions are not reversed; quarantine is a routing-layer
// verdict, not a fault — health probes lift it once the shard proves
// itself (see ProbeShards).
func (f *Fleet) ClearFaults() {
	f.mu.Lock()
	var moves []handoff
	var fails []rerouteFail
	for _, sh := range f.shards {
		fs := sh.fault.Load()
		hadDead := fs != nil && fs.dead
		f.liftFaultLocked(sh)
		// A dead shard's parked workers own the stalled list — they wake
		// on the lifted channel and run it in place. Quarantined and
		// removed shards were drained already. Anything else stalled
		// (flaky down-slot jobs) has no owner, so reroute it here.
		if !hadDead && !sh.quarantined && !sh.removed && len(sh.stalled) > 0 {
			jobs := sh.stalled
			sh.stalled = nil
			mv, fl := f.rerouteLocked(sh, jobs)
			moves = append(moves, mv...)
			fails = append(fails, fl...)
		}
	}
	f.mu.Unlock()
	f.deliver(moves, fails)
}

// Quarantine removes one shard from every router's view and reroutes
// its backlog — queued jobs plus any jobs its workers were holding
// under a dead fault — to the surviving shards. A rerouted panel keeps
// its fleet submission index, so its noise stream (and therefore its
// fingerprint) is unchanged: quarantine loses zero panels. Jobs no
// surviving shard can serve complete with an error outcome instead of
// vanishing, so Drain and batches never hang on them. Dead, fouled and
// slow faults on the shard are lifted (its workers must stay able to
// serve stragglers already in a Submit handoff — such a job still
// completes on this shard, healthy); a flaky fault persists, keeping
// the shard demonstrably broken under quarantine so health probes only
// restore it once ClearFaults heals it (see liftForQuarantineLocked).
// Quarantining an already-quarantined shard is a no-op; with every
// shard quarantined routers see an empty fleet and new submissions
// fail with ErrNoShard.
//
// Quarantine may block delivering rerouted jobs when every surviving
// queue is full (the same backpressure a Submit obeys) — keep
// consuming Results, as with Submit.
func (f *Fleet) Quarantine(shard int) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	if shard < 0 || shard >= len(f.shards) {
		f.mu.Unlock()
		return fmt.Errorf("advdiag: quarantine shard %d outside [0,%d)", shard, len(f.shards))
	}
	sh := f.shards[shard]
	if sh.removed {
		f.mu.Unlock()
		return fmt.Errorf("advdiag: quarantine removed shard %d", shard)
	}
	if sh.quarantined {
		f.mu.Unlock()
		return nil
	}
	sh.quarantined = true
	// Every quarantine opens the breaker — whether it came from probe
	// failures, a Diagnoser conviction, or an operator — so health
	// probes can restore any quarantined shard once it proves healthy.
	sh.breaker = BreakerOpen
	sh.probeGoods = 0
	sh.probeFails = 0
	// Collect the backlog: parked work first (it was accepted first),
	// then whatever is still queued. Workers mid-park that have not yet
	// taken the lock will see quarantined and reroute their own job.
	jobs := sh.stalled
	sh.stalled = nil
drain:
	for {
		select {
		case j := <-sh.queue:
			jobs = append(jobs, j)
		default:
			break drain
		}
	}
	f.liftForQuarantineLocked(sh)
	moves, fails := f.rerouteLocked(sh, jobs)
	f.recordEventLocked(EventQuarantined, shard, fmt.Sprintf("breaker open, %d backlog jobs rerouted", len(jobs)))
	f.mu.Unlock()
	f.deliver(moves, fails)
	return nil
}

// Quarantined reports the quarantined shard indices, in order.
func (f *Fleet) Quarantined() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int
	for _, sh := range f.shards {
		if sh.quarantined {
			out = append(out, sh.index)
		}
	}
	return out
}

// AddShard grows the fleet by one shard over the given designed
// platform, at run time and under live load. The new shard takes the
// next index (indices are stable for the fleet's lifetime — removal
// never renumbers), starts its workers immediately, and joins the
// routing view with a closed breaker. Determinism is unaffected: noise
// seeds derive from the fleet-wide submission index alone, so a sample
// routed to the new shard produces exactly the panel it would have
// produced anywhere else (see ReplayPanel).
func (f *Fleet) AddShard(p *Platform) (int, error) {
	if p == nil || p.inner == nil {
		return 0, fmt.Errorf("advdiag: AddShard: platform is not designed")
	}
	core, err := newExecCore(p, f.seed)
	if err != nil {
		return 0, fmt.Errorf("advdiag: AddShard: %w", err)
	}
	sh := &fleetShard{
		core:    core,
		targets: p.Targets(),
		queue:   make(chan fleetJob, f.depth),
	}
	if err := f.probeBaseline(sh); err != nil {
		return 0, fmt.Errorf("advdiag: AddShard probe baseline: %w", err)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrFleetClosed
	}
	sh.index = len(f.shards)
	f.shards = append(f.shards, sh)
	// Starting workers under the same mutex Close takes to set closed
	// orders this workWG.Add strictly before Close's workWG.Wait.
	for w := 0; w < f.workers; w++ {
		f.workWG.Add(1)
		go f.shardWorker(sh)
	}
	f.recordEventLocked(EventShardAdded, sh.index, "targets "+strings.Join(sh.targets, ","))
	f.mu.Unlock()
	return sh.index, nil
}

// RemoveShard retires one shard at run time and under live load: the
// shard leaves the routing view immediately, its backlog (queued jobs
// plus anything stalled under a fault) is rerouted to siblings with
// submission indices — and therefore fingerprints — preserved, and its
// workers shut down once every in-flight handoff has landed. Zero
// panels are lost; jobs no surviving shard can serve complete with
// error outcomes instead of vanishing. The index is never reused: the
// shard stays in FleetStats (marked Removed) and ReplayPanel still
// accepts it, so operator timelines and replay checks survive the
// topology change. Removing the last routable shard is allowed —
// submissions then fail with ErrNoShard until AddShard grows the fleet
// again. Removal lifts the shard's fault, so a job a worker had
// dequeued but not yet parked runs healthy on the removed shard, like
// the straggler handoffs retireShard waits for.
//
// Like Quarantine, RemoveShard may block delivering rerouted jobs when
// every surviving queue is full — keep consuming Results.
func (f *Fleet) RemoveShard(shard int) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	if shard < 0 || shard >= len(f.shards) {
		f.mu.Unlock()
		return fmt.Errorf("advdiag: remove shard %d outside [0,%d)", shard, len(f.shards))
	}
	sh := f.shards[shard]
	if sh.removed {
		f.mu.Unlock()
		return fmt.Errorf("advdiag: shard %d is already removed", shard)
	}
	sh.removed = true
	jobs := sh.stalled
	sh.stalled = nil
drain:
	for {
		select {
		case j := <-sh.queue:
			jobs = append(jobs, j)
		default:
			break drain
		}
	}
	f.liftFaultLocked(sh)
	moves, fails := f.rerouteLocked(sh, jobs)
	f.recordEventLocked(EventShardRemoved, shard, fmt.Sprintf("%d backlog jobs rerouted", len(jobs)))
	// The retire goroutine registers on submitWG so Close cannot shut
	// the fleet down between the drain above and the queue close below.
	f.submitWG.Add(1)
	go f.retireShard(sh)
	f.mu.Unlock()
	f.deliver(moves, fails)
	return nil
}

// retireShard closes a removed shard's queue once every straggler
// handoff — a Submit or reroute delivery that routed here before the
// removal — has landed. The shard's workers drain whatever those
// stragglers enqueued (running it healthy, exactly like quarantine
// stragglers) and exit on the close.
func (f *Fleet) retireShard(sh *fleetShard) {
	defer f.submitWG.Done()
	sh.handoffs.Wait()
	f.mu.Lock()
	sh.retired = true
	f.mu.Unlock()
	close(sh.queue)
}

// Removed reports the removed shard indices, in order.
func (f *Fleet) Removed() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int
	for _, sh := range f.shards {
		if sh.removed {
			out = append(out, sh.index)
		}
	}
	return out
}

// ReplayPanel recomputes the panel a sample produced (or would
// produce) at a given fleet submission index, on the chosen shard's
// platform, healthy and outside the serving path. Because noise
// streams derive from the fleet seed and the submission index alone,
// the replay is bit-identical to the served outcome no matter which
// shard — on which topology, after how many reroutes — actually ran
// it: this is the replay-checkable determinism contract that survives
// AddShard and RemoveShard. Removed shards stay replayable, and on a
// fleet of identical platforms any shard verifies any result. Replays
// never touch shard statistics or the fault harness.
func (f *Fleet) ReplayPanel(shard, index int, s Sample) (PanelResult, error) {
	f.mu.Lock()
	if shard < 0 || shard >= len(f.shards) {
		n := len(f.shards)
		f.mu.Unlock()
		return PanelResult{}, fmt.Errorf("advdiag: replay on shard %d outside [0,%d)", shard, n)
	}
	sh := f.shards[shard]
	f.mu.Unlock()
	if index < 0 {
		return PanelResult{}, fmt.Errorf("advdiag: replay index %d is negative", index)
	}
	p, err := sh.core.p.exec.RunFouled(s.Concentrations, rt.SampleSeed(f.seed, index), nil)
	if err != nil {
		return PanelResult{}, err
	}
	return panelResult(p), nil
}

// probeConcMM is the concentration every probe panel measures each
// target at — well inside every assay's linear range.
const probeConcMM = 1.0

// probeBaseline fixes the shard's probe panel (every target at
// probeConcMM) and records its known-good fingerprint by running it
// healthy through the platform executor directly — bypassing the Lab
// so probe traffic never perturbs the serving-path statistics the
// Diagnoser watches.
func (f *Fleet) probeBaseline(sh *fleetShard) error {
	sample := make(map[string]float64, len(sh.targets))
	for _, t := range sh.targets {
		sample[t] = probeConcMM
	}
	sh.probeSample = sample
	p, err := sh.core.p.exec.RunFouled(sample, f.probeSeed, nil)
	if err != nil {
		return err
	}
	sh.probeGood = panelResult(p).Fingerprint()
	return nil
}

// probeOnce runs one probe panel on the shard through the fault
// harness and reports whether the result matches the shard's
// known-good fingerprint. Probes consume a flaky fault's slot sequence
// (an intermittent shard fails probes intermittently, like its
// traffic), fail on a dead shard, and see fouling exactly as real jobs
// do — but skip a slow shard's delay, because slowness changes timing,
// never results, and probes judge correctness.
func (f *Fleet) probeOnce(sh *fleetShard) bool {
	fs := sh.fault.Load()
	if fs != nil {
		if fs.dead {
			return false
		}
		if fs.flaky != nil && fs.flaky.downNow() {
			return false
		}
	}
	var fouling *rt.Fouling
	if fs != nil {
		fouling = fs.fouling
	}
	p, err := sh.core.p.exec.RunFouled(sh.probeSample, f.probeSeed, fouling)
	if err != nil {
		return false
	}
	return panelResult(p).Fingerprint() == sh.probeGood
}

// ProbeShards runs one health-probe sweep over every shard that is not
// removed, quarantined or healthy alike, and advances each breaker on
// the outcome:
//
//   - a healthy shard failing its probe counts toward the failure
//     threshold; reaching it opens the breaker, quarantining the shard
//     exactly as Fleet.Quarantine would (backlog rerouted losslessly);
//   - a quarantined shard whose probe matches its known-good
//     fingerprint moves to half-open (probe traffic only) and, after
//     restoreThreshold consecutive matches, is restored — quarantine
//     lifted, breaker closed, back in the routing view with no manual
//     un-quarantine call;
//   - one failed probe on a quarantined shard re-opens the breaker and
//     resets the restore progress.
//
// ProbeShards returns the indices of shards restored by this sweep.
// StartHealthProbes runs sweeps on a ticker; tests may call
// ProbeShards directly for deterministic stepping.
func (f *Fleet) ProbeShards() []int {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	shards := make([]*fleetShard, 0, len(f.shards))
	for _, sh := range f.shards {
		if !sh.removed {
			shards = append(shards, sh)
		}
	}
	f.mu.Unlock()

	var restored []int
	var trip []int
	for _, sh := range shards {
		healthy := f.probeOnce(sh)
		f.mu.Lock()
		if f.closed || sh.removed {
			f.mu.Unlock()
			continue
		}
		switch {
		case sh.quarantined && healthy:
			sh.breaker = BreakerHalfOpen
			sh.probeGoods++
			if sh.probeGoods >= f.restoreThreshold {
				sh.quarantined = false
				sh.breaker = BreakerClosed
				sh.probeGoods = 0
				sh.probeFails = 0
				sh.restores++
				restored = append(restored, sh.index)
				f.recordEventLocked(EventRestored, sh.index, fmt.Sprintf("%d consecutive known-good probes, breaker closed", f.restoreThreshold))
			} else {
				f.recordEventLocked(EventProbed, sh.index, fmt.Sprintf("known-good probe %d/%d, breaker half-open", sh.probeGoods, f.restoreThreshold))
			}
		case sh.quarantined: // quarantined, probe failed
			if sh.breaker == BreakerHalfOpen {
				f.recordEventLocked(EventProbed, sh.index, "probe failed, breaker re-opened")
			}
			sh.breaker = BreakerOpen
			sh.probeGoods = 0
		case healthy:
			sh.probeFails = 0
		default: // healthy shard, probe failed
			sh.probeFails++
			f.recordEventLocked(EventProbed, sh.index, fmt.Sprintf("probe failure %d/%d", sh.probeFails, f.failThreshold))
			if sh.probeFails >= f.failThreshold {
				trip = append(trip, sh.index)
			}
		}
		f.mu.Unlock()
	}
	for _, idx := range trip {
		// Quarantine re-checks state under the lock; a shard that was
		// quarantined, removed, or closed in the meantime is a no-op or
		// benign error.
		f.Quarantine(idx) //nolint:errcheck // racing removal/close is benign
	}
	return restored
}

// StartHealthProbes runs ProbeShards every interval until the returned
// stop function is called. Stop blocks until the loop exits and is
// safe to call more than once. Probing a closed fleet is a no-op, but
// stop the loop before Close to avoid pointless sweeps.
func (f *Fleet) StartHealthProbes(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				f.ProbeShards()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// handoff is one accepted job bound for a shard queue, enqueued outside
// the fleet lock by deliver; rerouteFail is one rerouted job no
// surviving shard can serve.
type handoff struct {
	to  *fleetShard
	job fleetJob
}

type rerouteFail struct {
	from *fleetShard
	job  fleetJob
	err  error
}

// handoffLocked registers a job's coming enqueue on to (callers hold
// f.mu). Handoffs race with Close and RemoveShard the way accepted
// Submits do: registering on submitWG and the destination's handoff
// count before the lock is released keeps the destination queue open
// until the job lands.
func (f *Fleet) handoffLocked(to *fleetShard, job fleetJob) handoff {
	f.submitWG.Add(1)
	to.handoffs.Add(1)
	return handoff{to: to, job: job}
}

// rerouteLocked plans new homes for a quarantined shard's backlog
// (callers hold f.mu; deliver executes the plan outside the lock).
// Moved jobs keep their seed index and completion target — determinism
// and delivery travel with the job — but take a fresh instrument slot
// on their destination's timeline. A failed job stays pending on from
// until deliver completes it.
func (f *Fleet) rerouteLocked(from *fleetShard, jobs []fleetJob) ([]handoff, []rerouteFail) {
	var moves []handoff
	var fails []rerouteFail
	for _, job := range jobs {
		to, err := f.routeLocked(job.routingSample())
		if err != nil {
			fails = append(fails, rerouteFail{from: from, job: job, err: err})
			continue
		}
		from.pending--
		to.pending++
		to.routed.Add(1)
		if job.monitor == nil {
			job.schedIdx = to.sched
			to.sched++
		}
		moves = append(moves, f.handoffLocked(to, job))
	}
	return moves, fails
}

// deliver executes handoffs outside the fleet lock: jobs enqueue on
// their shards (blocking when those queues are full) and unservable
// reroutes complete with error outcomes.
func (f *Fleet) deliver(moves []handoff, fails []rerouteFail) {
	for _, mv := range moves {
		mv.to.queue <- mv.job
		mv.to.handoffs.Done()
		f.submitWG.Done()
	}
	for _, fl := range fails {
		f.failJob(fl.from, fl.job, fmt.Errorf("advdiag: rerouting from quarantined shard %d: %w", fl.from.index, fl.err))
	}
}

// RunPanels routes and measures a batch, returning one outcome per
// sample in sample order. Per-sample failures land in the outcome's
// Err: a sample rejected before acceptance (unroutable, or the fleet
// closed) carries Index and Shard -1, while one that failed during
// measurement carries its real submission Index and Shard. Successful
// outcomes carry their fleet-wide submission Index; a batch's accepted
// samples take contiguous indices.
//
// RunPanels blocks on full shard queues like Submit. Each outcome goes
// straight to its sample's position, never through Results, so
// RunPanels may run concurrently with Submit, TrySubmit, other
// RunPanels calls and a Results consumer.
func (f *Fleet) RunPanels(samples []Sample) []PanelOutcome {
	out := make([]PanelOutcome, len(samples))
	var wg sync.WaitGroup
	wg.Add(len(samples))
	jobs := make([]fleetJob, len(samples))
	for i, s := range samples {
		jobs[i] = fleetJob{sample: s, done: func(o PanelOutcome) {
			out[i] = o
			wg.Done()
		}}
	}
	for i, err := range f.submit(jobs, true) {
		if err != nil {
			out[i] = PanelOutcome{Index: -1, ID: samples[i].ID, Shard: -1, Err: err}
			wg.Done()
		}
	}
	wg.Wait()
	return out
}

// FleetStats is an aggregate snapshot of the dispatcher and its
// shards.
type FleetStats struct {
	// Shards holds one entry per shard, in index order.
	Shards []FleetShardStats
	// Submitted counts accepted samples; Completed the measured
	// subset; Rejected the TrySubmit load-shed count; RouteErrors the
	// samples no shard could serve.
	Submitted, Completed, Rejected, RouteErrors uint64
	// MonitorsSubmitted/MonitorsCompleted/MonitorsRejected are the same
	// counters for monitoring acquisitions, which keep their own
	// acceptance sequence (RouteErrors covers both kinds).
	MonitorsSubmitted, MonitorsCompleted, MonitorsRejected uint64
	// PanelsPerSecond is fleet-wide throughput: completed panels over
	// the wall-clock span from first acceptance to last completion.
	PanelsPerSecond float64
	// WallSeconds is that span.
	WallSeconds float64
	// CacheHitRate aggregates every shard's calibration-cache
	// counters.
	CacheHitRate float64
}

// FleetShardStats is one shard's slice of the snapshot.
type FleetShardStats struct {
	// Index is the shard number; Targets its panel.
	Index int
	// Targets lists the species the shard's platform measures.
	Targets []string
	// Lab is the shard's service-layer snapshot (panels/sec, cache hit
	// rate, schedule-derived timing).
	Lab LabStats
	// QueueLen/QueueCap/InFlight describe the dispatch state at
	// snapshot time; Routed counts everything ever enqueued here.
	QueueLen, QueueCap, InFlight int
	Routed                       uint64
	// Quarantined marks a shard removed from the routing view (see
	// Fleet.Quarantine); it receives no new work.
	Quarantined bool
	// Breaker is the shard's circuit-breaker position (see ProbeShards);
	// ProbeFailures/ProbeGoods are its consecutive probe counters and
	// Restores counts automatic un-quarantines.
	Breaker       BreakerState
	ProbeFailures int
	ProbeGoods    int
	Restores      uint64
	// Removed marks a shard retired by RemoveShard — kept in the
	// snapshot so indices stay stable.
	Removed bool
}

// String renders the snapshot as a small report.
func (s FleetStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d shards, %d submitted / %d completed (%d rejected, %d unroutable), %.1f panels/s, cache %.0f%% hit\n",
		len(s.Shards), s.Submitted, s.Completed, s.Rejected, s.RouteErrors, s.PanelsPerSecond, 100*s.CacheHitRate)
	if s.MonitorsSubmitted > 0 || s.MonitorsCompleted > 0 || s.MonitorsRejected > 0 {
		fmt.Fprintf(&b, "  monitors: %d submitted / %d completed (%d rejected)\n",
			s.MonitorsSubmitted, s.MonitorsCompleted, s.MonitorsRejected)
	}
	for _, sh := range s.Shards {
		mark := ""
		switch {
		case sh.Removed:
			mark = " REMOVED"
		case sh.Quarantined:
			mark = fmt.Sprintf(" QUARANTINED breaker=%s", sh.Breaker)
		case sh.Breaker != BreakerClosed:
			mark = fmt.Sprintf(" breaker=%s", sh.Breaker)
		}
		fmt.Fprintf(&b, "  shard %d [%s]:%s %d routed, queue %d/%d, %d in flight, %.1f panels/s, cache %.0f%% hit\n",
			sh.Index, strings.Join(sh.Targets, ","), mark, sh.Routed, sh.QueueLen, sh.QueueCap, sh.InFlight,
			sh.Lab.PanelsPerSecond, 100*sh.Lab.CacheHitRate)
	}
	return b.String()
}

// Stats returns the current aggregate counters.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	st := FleetStats{
		Submitted:         uint64(f.submitted),
		Completed:         uint64(f.completed),
		Rejected:          f.rejected,
		RouteErrors:       f.routeErrs,
		MonitorsSubmitted: uint64(f.msubmitted),
		MonitorsCompleted: uint64(f.mcompleted),
		MonitorsRejected:  f.mrejected,
	}
	if !f.first.IsZero() && f.last.After(f.first) {
		st.WallSeconds = f.last.Sub(f.first).Seconds()
	}
	// Capture the shard slice together with the view: AddShard may grow
	// f.shards concurrently, and the per-shard flags must match the
	// same snapshot the view describes.
	shards := f.shards
	view := f.snapshotLocked()
	type shardFlags struct {
		quarantined, removed bool
		breaker              BreakerState
		probeFails           int
		probeGoods           int
		restores             uint64
	}
	flags := make([]shardFlags, len(shards))
	for i, sh := range shards {
		flags[i] = shardFlags{
			quarantined: sh.quarantined,
			removed:     sh.removed,
			breaker:     sh.breaker,
			probeFails:  sh.probeFails,
			probeGoods:  sh.probeGoods,
			restores:    sh.restores,
		}
	}
	f.mu.Unlock()
	if st.WallSeconds > 0 {
		st.PanelsPerSecond = float64(st.Completed) / st.WallSeconds
	}
	var hits, lookups uint64
	for i, sh := range shards {
		ls := sh.core.stats(f.workers)
		hits += ls.CacheHits
		lookups += ls.CacheHits + ls.CacheMisses
		st.Shards = append(st.Shards, FleetShardStats{
			Index:         sh.index,
			Targets:       sh.targets,
			Lab:           ls,
			QueueLen:      view[i].QueueLen,
			QueueCap:      f.depth,
			InFlight:      view[i].InFlight,
			Routed:        sh.routed.Load(),
			Quarantined:   flags[i].quarantined,
			Breaker:       flags[i].breaker,
			ProbeFailures: flags[i].probeFails,
			ProbeGoods:    flags[i].probeGoods,
			Restores:      flags[i].restores,
			Removed:       flags[i].removed,
		})
	}
	if lookups > 0 {
		// Shards sharing one Platform also share its cache counters,
		// so the absolute sums may count the same platform N times;
		// the rate is unaffected.
		st.CacheHitRate = float64(hits) / float64(lookups)
	}
	return st
}
