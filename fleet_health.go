package advdiag

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"advdiag/internal/mathx"
	rt "advdiag/internal/runtime"
)

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

// coalesces reports whether a shard in this state may run queued panel
// jobs as one batch: healthy and fouled shards may (fouling is a pure
// per-panel signal perturbation), while dead, flaky and slow shards
// gate or delay each job on its own. Like down and fouled, it treats a
// nil state as healthy.
func (fs *shardFaultState) coalesces() bool {
	return fs == nil || (!fs.dead && fs.flaky == nil && fs.delay == 0)
}

// down reports whether the next job or probe must not run here: the
// shard is dead, or a flaky shard's duty cycle is in a down slot. On a
// flaky shard each call consumes one slot.
func (fs *shardFaultState) down() bool {
	return fs != nil && (fs.dead || fs.flaky != nil && fs.flaky.downNow())
}

// fouled is the injected electrode fouling, nil when there is none.
func (fs *shardFaultState) fouled() *rt.Fouling {
	if fs == nil {
		return nil
	}
	return fs.fouling
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

// InjectFault arms one fault on its target shard at run time. Faults
// of different kinds compose on a shard (a shard can be fouled and
// slow at once); re-injecting a kind replaces the earlier instance.
// Injection is atomic per shard: workers observe either the previous
// fault state or the new one, never a torn mix.
func (f *Fleet) InjectFault(ft Fault) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := ft.Validate(len(f.shards)); err != nil {
		return err
	}
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
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := plan.Validate(len(f.shards)); err != nil {
		return err
	}
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
// a job in place (hold reroutes off a quarantined shard) and its
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
	// Workers about to stall a job that have not yet taken the lock
	// will see quarantined and reroute their own job.
	jobs := sh.takeBacklogLocked()
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

// probeConcMM is the concentration every probe panel measures each
// target at — well inside every assay's linear range.
const probeConcMM = 1.0

// The circuit breaker's consecutive-probe counts: failThreshold probe
// failures in a row open a healthy shard's breaker, restoreThreshold
// known-good probes in a row close a quarantined shard's breaker and
// restore it.
const (
	failThreshold    = 3
	restoreThreshold = 3
)

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
	if fs.down() {
		return false
	}
	p, err := sh.core.p.exec.RunFouled(sh.probeSample, f.probeSeed, fs.fouled())
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
			if sh.probeGoods >= restoreThreshold {
				sh.quarantined = false
				sh.breaker = BreakerClosed
				sh.probeGoods = 0
				sh.probeFails = 0
				sh.restores++
				restored = append(restored, sh.index)
				f.recordEventLocked(EventRestored, sh.index, fmt.Sprintf("%d consecutive known-good probes, breaker closed", restoreThreshold))
			} else {
				f.recordEventLocked(EventProbed, sh.index, fmt.Sprintf("known-good probe %d/%d, breaker half-open", sh.probeGoods, restoreThreshold))
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
			f.recordEventLocked(EventProbed, sh.index, fmt.Sprintf("probe failure %d/%d", sh.probeFails, failThreshold))
			if sh.probeFails >= failThreshold {
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
