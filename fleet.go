package advdiag

import (
	"context"
	"errors"
	"fmt"
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
// A job travels with its completion target through queues, reroutes
// and holds: done (panels) or mdone (monitors) receives the
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

// NewFleet builds a dispatcher over the given designed platforms (one
// shard each — they may serve different target panels) and starts the
// shard workers. Every shard's calibration cache is warmed here, so
// the serving path only ever reads it. The noise seed per-sample
// streams derive from is the first platform's, so a Lab over that
// platform produces byte-identical results.
func NewFleet(platforms []*Platform, opts ...FleetOption) (*Fleet, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("advdiag: NewFleet needs at least one platform")
	}
	for i, p := range platforms {
		if p == nil || p.inner == nil {
			return nil, fmt.Errorf("advdiag: NewFleet shard %d: platform is not designed", i)
		}
	}
	f := &Fleet{router: LeastLoadedRouter{}, seed: platforms[0].seed, workers: 1}
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
	return f, nil
}

// Shards reports the shard count, removed shards included (AddShard may
// grow it concurrently).
func (f *Fleet) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.shards)
}

// shardWorker executes routed jobs for one shard until its queue
// closes. Each dequeue takes one fault snapshot. While that snapshot
// allows coalescing, the worker also drains the panel jobs already
// queued behind the first one — without waiting for more, up to
// labBatchMax, stopping after a monitor job — so a burst runs over one
// shared executor scratch. Every run, a single job included, goes
// through exec. Queue order is preserved, so submission indices, and
// with them every panel's noise stream, are untouched.
func (f *Fleet) shardWorker(sh *fleetShard) {
	defer f.workWG.Done()
	jobs := make([]fleetJob, 0, labBatchMax)
	for job := range sh.queue {
		fs := sh.fault.Load()
		jobs = append(jobs[:0], job)
		closed := false
		if job.monitor == nil && fs.coalesces() {
		drain:
			for len(jobs) < labBatchMax {
				select {
				case next, ok := <-sh.queue:
					if !ok {
						closed = true
						break drain
					}
					jobs = append(jobs, next)
					if next.monitor != nil {
						break drain
					}
				default:
					break drain
				}
			}
		}
		f.exec(sh, fs, jobs)
		if closed {
			return
		}
	}
}

// exec is the one place a dequeued job turns into an outcome. Under
// the fault snapshot fs, each job in turn is gated (a dead shard or a
// flaky down slot sends it to hold), delayed by a slow shard while its
// requester is still waiting, and dropped with its context error once
// the requester has gone. The surviving panels then run as one batch
// over one executor scratch, and a trailing monitor job — a run holds
// at most one, always last — runs after them. A fault injected
// mid-run takes effect from the next dequeue.
//
//advdiag:hotpath
func (f *Fleet) exec(sh *fleetShard, fs *shardFaultState, jobs []fleetJob) {
	live := jobs[:0]
	for _, j := range jobs {
		if fs.down() {
			if !f.hold(sh, fs, j) {
				// Cold: the fault state changed under the hold, so the
				// job is judged afresh against the current one.
				f.exec(sh, sh.fault.Load(), []fleetJob{j})
			}
			continue
		}
		if fs != nil && fs.delay > 0 && j.abandoned() == nil {
			time.Sleep(fs.delay)
		}
		if err := j.abandoned(); err != nil {
			f.failJob(sh, j, err)
			continue
		}
		live = append(live, j)
	}
	var mon *fleetJob
	if n := len(live); n > 0 && live[n-1].monitor != nil {
		mon, live = &live[n-1], live[:n-1]
	}
	if len(live) > 0 {
		outs := make([]PanelOutcome, len(live))
		sh.core.runBatch(live, fs.fouled(), outs)
		for i, j := range live {
			outs[i].Shard = sh.index
			f.finishPanel(sh, j, outs[i])
		}
	}
	if mon != nil {
		out := sh.core.runMonitor(mon.seedIdx, *mon.monitor)
		out.Shard = sh.index
		f.finishMonitor(sh, *mon, out)
	}
}

// hold keeps a job the gate refused, never losing it. On a shard that
// Quarantine or RemoveShard already drained, the job goes straight to
// the reroute path. Otherwise it joins the shard's stalled list. A
// flaky shard's worker then moves on, because the shard still serves
// its up slots; the job waits for Quarantine, RemoveShard or
// ClearFaults to reroute it. A dead shard's worker blocks until the
// fault lifts — a hung instrument keeping its accepted work — and then
// runs whatever is still stalled through exec, healthy, one job at a
// time. hold returns false, stalling nothing, when the fault state
// changed since fs was loaded: the callers that rescue the stalled
// list collect it under the same lock, so stalling against a stale
// state could orphan the job. The caller then re-evaluates it.
func (f *Fleet) hold(sh *fleetShard, fs *shardFaultState, job fleetJob) bool {
	f.mu.Lock()
	if sh.quarantined || sh.removed {
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
	if !fs.dead {
		return true
	}
	<-fs.lifted
	// Quarantine empties the stalled list before closing the channel,
	// so anything still here was released by ClearFaults or Close and
	// belongs to this (no longer dead) shard.
	f.mu.Lock()
	jobs := sh.stalled
	sh.stalled = nil
	f.mu.Unlock()
	for i := range jobs {
		f.exec(sh, nil, jobs[i:i+1])
	}
	return true
}

// finishPanel hands a panel outcome to its job's completion target —
// the submitter's done callback, or Results — and records the
// completion against sh. A callback runs after the completion is
// recorded, so a requester holding its outcome never reads stats that
// lag it; a Results send is counted once it has landed, so Drain
// implies delivery on Results.
func (f *Fleet) finishPanel(sh *fleetShard, job fleetJob, o PanelOutcome) {
	if job.done != nil {
		f.complete(sh, false)
		job.done(o)
		return
	}
	f.results <- o
	f.complete(sh, false)
}

// finishMonitor is finishPanel for monitor jobs.
func (f *Fleet) finishMonitor(sh *fleetShard, job fleetJob, o MonitorOutcome) {
	if job.mdone != nil {
		f.complete(sh, true)
		job.mdone(o)
		return
	}
	f.mresults <- o
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
// measured and delivered onto Results or MonitorResults (a RunPanels
// or Server requester's callback may still be running; those
// requesters wait for their own outcomes). Submissions may continue
// from other goroutines; Drain tracks the count it observed at entry.
// The caller must keep consuming Results (or rely on its buffering)
// while draining. Note that a shard held dead by FaultDeadShard never
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
// dequeued but not yet held runs healthy on the removed shard, like
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
	jobs := sh.takeBacklogLocked()
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

// takeBacklogLocked empties the shard's backlog for a reroute and
// returns it: stalled jobs first (they were accepted first), then
// whatever is still queued (callers hold f.mu).
func (sh *fleetShard) takeBacklogLocked() []fleetJob {
	jobs := sh.stalled
	sh.stalled = nil
	for {
		select {
		case j := <-sh.queue:
			jobs = append(jobs, j)
		default:
			return jobs
		}
	}
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
	defer f.mu.Unlock()
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
		st.PanelsPerSecond = float64(st.Completed) / st.WallSeconds
	}
	var hits, lookups uint64
	for i, v := range f.snapshotLocked() {
		sh := f.shards[i]
		ls := sh.core.stats(f.workers)
		hits += ls.CacheHits
		lookups += ls.CacheHits + ls.CacheMisses
		st.Shards = append(st.Shards, FleetShardStats{
			Index:         sh.index,
			Targets:       sh.targets,
			Lab:           ls,
			QueueLen:      v.QueueLen,
			QueueCap:      f.depth,
			InFlight:      v.InFlight,
			Routed:        sh.routed.Load(),
			Quarantined:   sh.quarantined,
			Breaker:       sh.breaker,
			ProbeFailures: sh.probeFails,
			ProbeGoods:    sh.probeGoods,
			Restores:      sh.restores,
			Removed:       sh.removed,
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
