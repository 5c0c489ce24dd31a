package advdiag

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"advdiag/internal/longterm"
	"advdiag/internal/phys"
)

// MonitorBackend is the submission surface a MonitorScheduler drives:
// a Fleet implements it directly, and Client.MonitorBackend adapts the
// HTTP front door to it, so the same scheduler runs a cohort over an
// in-process fleet or a remote labserve.
//
// The scheduler must be the backend's only MonitorResults consumer for
// the duration of Run.
type MonitorBackend interface {
	// SubmitMonitor enqueues one acquisition, blocking on backpressure.
	SubmitMonitor(req MonitorRequest) error
	// TrySubmitMonitor enqueues without blocking; ErrFleetSaturated
	// means the caller should back off (the scheduler counts it as a
	// shed and falls back to the blocking path).
	TrySubmitMonitor(req MonitorRequest) error
	// MonitorResults is the merged outcome stream.
	MonitorResults() <-chan MonitorOutcome
}

// MonitorCampaign describes one recurring monitoring deployment — one
// patient, implant, or bioreactor line — for the population scheduler:
// the long-term campaign model of internal/longterm, parameterized for
// fleet execution (short per-tick traces, per-campaign recalibration
// cadence, rolling drift detection).
type MonitorCampaign struct {
	// ID names the campaign. It must be unique within a scheduler; the
	// consistent-hash router keys on it, and every tick's noise seed
	// derives from it.
	ID string
	// Target is the monitored metabolite; SampleMM the true
	// concentration presented at every reading and calibration.
	Target   string
	SampleMM float64
	// DurationHours is the deployment length; IntervalHours the reading
	// cadence; RecalEveryHours the scheduled recalibration cadence (0:
	// calibrate once at deployment and only when drift demands it).
	DurationHours, IntervalHours, RecalEveryHours float64
	// TraceSeconds and BaselineSeconds shape each tick's acquisition
	// (defaults 30 s and 5 s: a short two-phase trace whose
	// baseline-subtracted step feeds the estimate).
	TraceSeconds, BaselineSeconds float64
	// Injections, when set, turn every reading tick into a Fig. 3-style
	// injection experiment. Drift detection only applies to
	// zero-injection campaigns — an injection trace's step measures the
	// injected delta, not the standing concentration.
	Injections []InjectionEvent
	// Polymer applies the paper's §III polymer stabilization.
	Polymer bool
	// DriftThresholdPct and DriftWindow configure the rolling detector
	// (defaults 10 % over 3 consecutive readings); RecalOnDrift makes a
	// flagged campaign schedule a recalibration at its next tick
	// instead of only reporting the flag.
	DriftThresholdPct float64
	DriftWindow       int
	RecalOnDrift      bool
}

// WithDefaults fills unset fields with the scheduler's standard
// acquisition shape.
func (c MonitorCampaign) WithDefaults() MonitorCampaign {
	if c.TraceSeconds == 0 {
		c.TraceSeconds = 30
	}
	if c.BaselineSeconds == 0 {
		c.BaselineSeconds = 5
	}
	if c.DriftThresholdPct == 0 {
		c.DriftThresholdPct = longterm.DefaultDriftThresholdPct
	}
	if c.DriftWindow == 0 {
		c.DriftWindow = longterm.DefaultDriftWindow
	}
	return c
}

// CampaignReading is one timed estimate of a campaign.
type CampaignReading struct {
	// AtHours is the reading time since deployment.
	AtHours float64
	// EstimateMM uses the slope from the most recent recalibration;
	// ErrorPct is the relative error vs the campaign's true SampleMM.
	EstimateMM, ErrorPct float64
	// SinceRecalHours is the film age accumulated since the last
	// recalibration.
	SinceRecalHours float64
}

// CampaignReport is one campaign's slice of a cohort run.
type CampaignReport struct {
	// ID names the campaign.
	ID string
	// Readings in time order.
	Readings []CampaignReading
	// Recals counts calibrations (including the initial one);
	// DriftRecals the subset triggered by the rolling detector.
	Recals, DriftRecals int
	// MaxErrorPct and FinalErrorPct summarize the drift.
	MaxErrorPct, FinalErrorPct float64
	// DriftFlagged reports whether the rolling detector ever fired.
	DriftFlagged bool
	// Err is the failure that ended the campaign early, nil when it ran
	// to completion.
	Err error
	// Fingerprint folds the campaign's readings and summary into one
	// 64-bit value; equal fingerprints mean byte-identical campaign
	// results.
	Fingerprint uint64
}

// CohortReport is a full scheduler run: one report per campaign,
// sorted by campaign ID (a deterministic order whatever the completion
// interleaving was).
type CohortReport struct {
	Campaigns []CampaignReport
}

// Fingerprint folds every campaign fingerprint (in ID order) into one
// cohort value. Two runs of the same cohort are byte-identical exactly
// when their cohort fingerprints match — the scheduler's determinism
// tests compare it across worker and shard counts.
func (r *CohortReport) Fingerprint() uint64 {
	h := newFingerprinter()
	h.word(uint64(len(r.Campaigns)))
	for _, c := range r.Campaigns {
		h.str(c.ID)
		h.word(c.Fingerprint)
	}
	return uint64(h)
}

// DriftFlagged counts campaigns whose rolling detector fired.
func (r *CohortReport) DriftFlagged() int {
	n := 0
	for _, c := range r.Campaigns {
		if c.DriftFlagged {
			n++
		}
	}
	return n
}

// Failed counts campaigns that ended with an error.
func (r *CohortReport) Failed() int {
	n := 0
	for _, c := range r.Campaigns {
		if c.Err != nil {
			n++
		}
	}
	return n
}

// MonitorSchedulerStats is an aggregate snapshot of a scheduler.
type MonitorSchedulerStats struct {
	// Campaigns is the cohort size; Finished the campaigns done (run to
	// completion or failed).
	Campaigns, Finished int
	// TicksSubmitted/TicksCompleted/TickFailures count acquisitions;
	// Shed counts TrySubmit saturations (each retried on the blocking
	// path, so shed ticks are delayed, never lost).
	TicksSubmitted, TicksCompleted, TickFailures, Shed uint64
	// Recals counts calibration ticks; DriftFlags campaigns whose
	// rolling detector fired.
	Recals, DriftFlags uint64
	// ForcedRecals counts campaigns flagged by ForceRecal — diagnosis
	// verdicts (sensor fouling) demanding a recalibration ahead of the
	// scheduled cadence.
	ForcedRecals uint64
	// VirtualHours sums the simulated deployment hours of finished
	// campaigns — the population-scale time compression (a cohort
	// simulating years of monitoring in seconds of wall clock).
	VirtualHours float64
	// WallSeconds spans Run start to the snapshot (or Run end);
	// TicksPerSecond is TicksCompleted over it.
	WallSeconds    float64
	TicksPerSecond float64
}

// String renders the snapshot as one report line.
func (s MonitorSchedulerStats) String() string {
	forced := ""
	if s.ForcedRecals > 0 {
		forced = fmt.Sprintf(" (%d forced)", s.ForcedRecals)
	}
	return fmt.Sprintf("scheduler: %d campaigns (%d finished), %d ticks (%d failed, %d shed), %d recals%s, %d drift flags, %.0f virtual hours in %.1fs (%.0f ticks/s)",
		s.Campaigns, s.Finished, s.TicksCompleted, s.TickFailures, s.Shed,
		s.Recals, forced, s.DriftFlags, s.VirtualHours, s.WallSeconds, s.TicksPerSecond)
}

// tickKind is what a campaign's next acquisition is for.
type tickKind int

const (
	tickRecal tickKind = iota
	tickReading
)

// schedCampaign is one campaign's run state.
type schedCampaign struct {
	cfg     MonitorCampaign
	tracker *longterm.Tracker
	tick    int      // next tick index (per-campaign submission counter)
	atHours float64  // time of the next acquisition
	kind    tickKind // what the next acquisition is for
	drift   bool     // next recal was demanded by the drift detector
	// forceRecal schedules a recalibration at the next tick regardless
	// of cadence or drift (set by ForceRecal, guarded by ms.mu).
	forceRecal bool
	// done marks a finished campaign (run to completion or failed);
	// guarded by ms.mu so ForceRecal skips it.
	done   bool
	report CampaignReport
}

// MonitorScheduler multiplexes many recurring monitor campaigns over
// one MonitorBackend, in virtual time: each campaign is a state
// machine (recalibrate at deployment, read every IntervalHours,
// recalibrate on cadence or drift) whose ticks become MonitorRequests,
// and the film ages through the request's AgeHours field instead of
// wall-clock waiting — a 100 h deployment costs only its acquisitions.
//
// Determinism: every tick's noise seed derives from (scheduler seed,
// campaign ID, tick index) alone — MonitorSeed — and each campaign has
// at most one tick in flight, so its readings form a sequential chain.
// Global interleaving, worker counts, shard counts, and routing policy
// therefore never change any campaign's results: the cohort
// fingerprint is byte-identical across every fleet topology.
//
// A scheduler is single-shot: build, Add campaigns, Run once. Stats
// may be called concurrently with Run (a progress snapshot) or after
// it.
type MonitorScheduler struct {
	backend MonitorBackend
	seed    uint64

	campaigns []*schedCampaign
	byID      map[string]*schedCampaign

	mu    sync.Mutex
	ran   bool
	stats MonitorSchedulerStats
	start time.Time
}

// SchedulerOption customizes a MonitorScheduler.
type SchedulerOption func(*MonitorScheduler)

// WithSchedulerSeed sets the base seed campaign ticks derive their
// noise streams from (default 1).
func WithSchedulerSeed(seed uint64) SchedulerOption {
	return func(ms *MonitorScheduler) { ms.seed = seed }
}

// NewMonitorScheduler builds a scheduler over a backend (a Fleet, or a
// Client.MonitorBackend for a remote fleet).
func NewMonitorScheduler(backend MonitorBackend, opts ...SchedulerOption) (*MonitorScheduler, error) {
	if backend == nil {
		return nil, fmt.Errorf("advdiag: NewMonitorScheduler needs a backend")
	}
	ms := &MonitorScheduler{backend: backend, seed: 1, byID: map[string]*schedCampaign{}}
	for _, opt := range opts {
		opt(ms)
	}
	return ms, nil
}

// Add registers one campaign, validating it fully (timing, the
// acquisition shape, injections) so Run cannot trip over a malformed
// cohort mid-flight.
func (ms *MonitorScheduler) Add(c MonitorCampaign) error {
	c = c.WithDefaults()
	if c.ID == "" {
		return fmt.Errorf("advdiag: campaign needs an ID")
	}
	if _, dup := ms.byID[c.ID]; dup {
		return fmt.Errorf("advdiag: duplicate campaign ID %q", c.ID)
	}
	if !(c.SampleMM > 0) || math.IsInf(c.SampleMM, 0) {
		return fmt.Errorf("advdiag: campaign %s: sample %g mM is not a positive concentration", c.ID, c.SampleMM)
	}
	if !(c.IntervalHours > 0) || math.IsInf(c.IntervalHours, 0) {
		return fmt.Errorf("advdiag: campaign %s: reading interval %g h is not positive", c.ID, c.IntervalHours)
	}
	if !(c.DurationHours > 0) || math.IsInf(c.DurationHours, 0) {
		return fmt.Errorf("advdiag: campaign %s: duration %g h is not positive", c.ID, c.DurationHours)
	}
	if c.RecalEveryHours < 0 || math.IsNaN(c.RecalEveryHours) || math.IsInf(c.RecalEveryHours, 0) {
		return fmt.Errorf("advdiag: campaign %s: recalibration cadence %g h is not a valid interval", c.ID, c.RecalEveryHours)
	}
	// Validate the acquisition shape once, at the deployment's maximum
	// age — the same spec every tick reuses.
	probe := MonitorRequest{
		Target:          c.Target,
		ConcentrationMM: c.SampleMM,
		DurationSeconds: c.TraceSeconds,
		BaselineSeconds: c.BaselineSeconds,
		Injections:      c.Injections,
		AgeHours:        c.DurationHours,
		Polymer:         c.Polymer,
	}
	if err := probe.Validate(); err != nil {
		return fmt.Errorf("advdiag: campaign %s: %w", c.ID, err)
	}
	tr := longterm.NewTracker(c.SampleMM)
	tr.DriftWindow = c.DriftWindow
	tr.DriftThresholdPct = c.DriftThresholdPct
	if len(c.Injections) > 0 {
		// Drift detection is defined on zero-injection baseline runs
		// only: an infinite threshold disables the detector without a
		// second code path in the tracker.
		tr.DriftThresholdPct = math.Inf(1)
	}
	sc := &schedCampaign{
		cfg:     c,
		tracker: tr,
		kind:    tickRecal, // every deployment starts with a calibration at t=0
		report:  CampaignReport{ID: c.ID},
	}
	ms.campaigns = append(ms.campaigns, sc)
	ms.byID[c.ID] = sc

	ms.mu.Lock()
	ms.stats.Campaigns = len(ms.campaigns)
	ms.mu.Unlock()
	return nil
}

// campaignHeap orders ready campaigns by (next virtual time, ID): the
// dispatch order is deterministic, and earlier virtual times submit
// first so the cohort advances roughly in lockstep instead of one
// campaign racing to its end.
type campaignHeap []*schedCampaign

func (h campaignHeap) Len() int { return len(h) }
func (h campaignHeap) Less(i, j int) bool {
	if h[i].atHours != h[j].atHours {
		return h[i].atHours < h[j].atHours
	}
	return h[i].cfg.ID < h[j].cfg.ID
}
func (h campaignHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *campaignHeap) Push(x any)   { *h = append(*h, x.(*schedCampaign)) }
func (h *campaignHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// request builds the campaign's next acquisition and advances its tick
// counter. Recalibration ticks measure the clean standard (no
// injections); reading ticks carry the campaign's injection schedule.
func (ms *MonitorScheduler) request(sc *schedCampaign) MonitorRequest {
	req := MonitorRequest{
		ID:              sc.cfg.ID,
		Tick:            sc.tick,
		Target:          sc.cfg.Target,
		ConcentrationMM: sc.cfg.SampleMM,
		DurationSeconds: sc.cfg.TraceSeconds,
		BaselineSeconds: sc.cfg.BaselineSeconds,
		AgeHours:        sc.atHours,
		Polymer:         sc.cfg.Polymer,
		Seed:            MonitorSeed(ms.seed, sc.cfg.ID, sc.tick),
	}
	if sc.kind == tickReading {
		req.Injections = sc.cfg.Injections
	}
	sc.tick++
	return req
}

// ForceRecal flags every unfinished campaign monitoring target for a
// recalibration at its next acquisition, ahead of the scheduled
// cadence and regardless of the drift detector. This is the hook the
// Server's diagnoser pulls, for an attached scheduler, when it
// convicts a shard of sensor fouling on that target: a fouling verdict
// means the cohort's calibrations for the species are suspect, so the
// next tick re-measures the clean standard instead of trusting them.
// An empty target flags the whole cohort. Safe to call while Run is in
// flight; returns how many campaigns were flagged.
func (ms *MonitorScheduler) ForceRecal(target string) int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	n := 0
	for _, sc := range ms.campaigns {
		if sc.done || sc.forceRecal {
			continue
		}
		if target != "" && sc.cfg.Target != target {
			continue
		}
		sc.forceRecal = true
		n++
	}
	ms.stats.ForcedRecals += uint64(n)
	return n
}

// absorb processes one completed tick and decides the campaign's next
// move. It returns true when the campaign is finished.
func (sc *schedCampaign) absorb(out MonitorOutcome, st *MonitorSchedulerStats) bool {
	if out.Err != nil {
		sc.report.Err = fmt.Errorf("advdiag: campaign %s tick %d: %w", sc.cfg.ID, out.Tick, out.Err)
		st.TickFailures++
		return true
	}
	step := phys.Current(out.Result.StepMicroAmps * 1e-6)
	switch sc.kind {
	case tickRecal:
		if err := sc.tracker.Recalibrate(sc.atHours, step); err != nil {
			sc.report.Err = err
			return true
		}
		st.Recals++
		if sc.drift {
			sc.report.DriftRecals++
			sc.drift = false
		}
		// Whatever demanded a recalibration, this one satisfies it.
		sc.forceRecal = false
		// A recalibration at t>0 blocks the reading scheduled at the
		// same t (the longterm.Campaign ordering); the deployment
		// calibration at t=0 is followed by the first reading one
		// interval later.
		sc.kind = tickReading
		if sc.atHours == 0 {
			sc.atHours = sc.cfg.IntervalHours
			if sc.atHours > sc.cfg.DurationHours+1e-9 {
				return sc.finish()
			}
		}
		return false
	default: // tickReading
		r, err := sc.tracker.Reading(sc.atHours, step)
		if err != nil {
			sc.report.Err = err
			return true
		}
		sc.report.Readings = append(sc.report.Readings, CampaignReading{
			AtHours:         r.AtHours,
			EstimateMM:      r.EstimateMM,
			ErrorPct:        r.ErrorPct,
			SinceRecalHours: r.SinceRecalHours,
		})
		next := sc.atHours + sc.cfg.IntervalHours
		if next > sc.cfg.DurationHours+1e-9 {
			return sc.finish()
		}
		sc.atHours = next
		switch {
		case sc.forceRecal:
			sc.kind = tickRecal
		case sc.cfg.RecalEveryHours > 0 && next-sc.tracker.LastRecalHours() >= sc.cfg.RecalEveryHours:
			sc.kind = tickRecal
		case sc.cfg.RecalOnDrift && sc.tracker.NeedsRecal():
			sc.kind = tickRecal
			sc.drift = true
		default:
			sc.kind = tickReading
		}
		return false
	}
}

// finish seals the campaign's report.
func (sc *schedCampaign) finish() bool {
	res := sc.tracker.Result()
	sc.report.Recals = res.Recals
	sc.report.MaxErrorPct = res.MaxErrorPct
	sc.report.FinalErrorPct = res.FinalErrorPct
	sc.report.DriftFlagged = res.DriftFlagged
	sc.report.Fingerprint = sc.fingerprint()
	return true
}

// fingerprint folds the campaign's readings and summary into one
// 64-bit value (FNV-1a over exact float64 bit patterns).
func (sc *schedCampaign) fingerprint() uint64 {
	h := newFingerprinter()
	h.word(uint64(len(sc.report.Readings)))
	for _, r := range sc.report.Readings {
		h.float(r.AtHours)
		h.float(r.EstimateMM)
		h.float(r.ErrorPct)
		h.float(r.SinceRecalHours)
	}
	h.word(uint64(sc.report.Recals))
	h.word(uint64(sc.report.DriftRecals))
	h.float(sc.report.MaxErrorPct)
	h.float(sc.report.FinalErrorPct)
	h.flag(sc.report.DriftFlagged)
	return uint64(h)
}

// Run drives the whole cohort to completion and returns its report.
// The dispatcher keeps at most one tick per campaign in flight,
// preferring TrySubmit (counting saturations as sheds) and falling
// back to the blocking Submit; a collector goroutine consumes the
// backend's MonitorResults concurrently, so backpressure can never
// deadlock the loop. Run is single-shot.
func (ms *MonitorScheduler) Run() (*CohortReport, error) {
	ms.mu.Lock()
	if ms.ran {
		ms.mu.Unlock()
		return nil, errors.New("advdiag: scheduler already ran (build a fresh one per cohort)")
	}
	ms.ran = true
	ms.start = time.Now()
	ms.mu.Unlock()
	if len(ms.campaigns) == 0 {
		return &CohortReport{}, nil
	}

	// ready carries campaigns whose previous tick completed and who
	// have a next tick to submit. Each campaign has at most one token
	// anywhere (in flight, on ready, or on the heap), so the buffer
	// bound makes the collector's sends non-blocking. allDone is closed
	// exactly once when the last campaign finishes, whichever side
	// (collector or dispatcher) sees it.
	ready := make(chan *schedCampaign, len(ms.campaigns))
	allDone := make(chan struct{})
	var doneOnce sync.Once
	finishAll := func() { doneOnce.Do(func() { close(allDone) }) }
	remaining := len(ms.campaigns)

	go func() { // collector
		results := ms.backend.MonitorResults()
		for {
			select {
			case out, ok := <-results:
				if !ok {
					finishAll() // backend closed under us; unblock the dispatcher
					return
				}
				sc, known := ms.byID[out.ID]
				if !known {
					continue // not ours; tolerate a shared stream rather than corrupt a campaign
				}
				ms.mu.Lock()
				ms.stats.TicksCompleted++
				finished := sc.absorb(out, &ms.stats)
				if finished {
					sc.done = true
					remaining--
					ms.stats.Finished++
					ms.stats.VirtualHours += sc.cfg.DurationHours
					if sc.report.DriftFlagged {
						ms.stats.DriftFlags++
					}
				}
				last := remaining == 0
				ms.mu.Unlock()
				if last {
					finishAll()
					return
				}
				if !finished {
					ready <- sc
				}
			case <-allDone:
				return
			}
		}
	}()

	// Deterministic dispatch order: a heap by (virtual time, ID). The
	// initial heap holds every campaign's deployment calibration.
	h := make(campaignHeap, len(ms.campaigns))
	copy(h, ms.campaigns)
	heap.Init(&h)

	submit := func(sc *schedCampaign) {
		req := ms.request(sc)
		err := ms.backend.TrySubmitMonitor(req)
		if errors.Is(err, ErrFleetSaturated) {
			ms.mu.Lock()
			ms.stats.Shed++
			ms.mu.Unlock()
			err = ms.backend.SubmitMonitor(req)
		}
		if err != nil {
			// The backend refused the tick outright (unroutable target,
			// closed fleet): the campaign ends here, with no outcome to
			// wait for.
			ms.mu.Lock()
			sc.done = true
			sc.report.Err = fmt.Errorf("advdiag: campaign %s tick %d: %w", sc.cfg.ID, req.Tick, err)
			ms.stats.TickFailures++
			remaining--
			ms.stats.Finished++
			last := remaining == 0
			ms.mu.Unlock()
			if last {
				finishAll()
			}
			return
		}
		ms.mu.Lock()
		ms.stats.TicksSubmitted++
		ms.mu.Unlock()
	}

	for len(h) > 0 {
		submit(heap.Pop(&h).(*schedCampaign))
	}
dispatch:
	for {
		select {
		case sc := <-ready:
			// Batch whatever else is already ready back through the
			// heap so concurrent completions dispatch in deterministic
			// (virtual time, ID) order.
			heap.Push(&h, sc)
		drain:
			for {
				select {
				case sc := <-ready:
					heap.Push(&h, sc)
				default:
					break drain
				}
			}
			for len(h) > 0 {
				submit(heap.Pop(&h).(*schedCampaign))
			}
		case <-allDone:
			break dispatch
		}
	}
	ms.sealStats()

	report := &CohortReport{Campaigns: make([]CampaignReport, len(ms.campaigns))}
	for i, sc := range ms.campaigns {
		report.Campaigns[i] = sc.report
	}
	sort.Slice(report.Campaigns, func(i, j int) bool {
		return report.Campaigns[i].ID < report.Campaigns[j].ID
	})
	return report, nil
}

// sealStats records the final wall-clock numbers at the end of Run.
func (ms *MonitorScheduler) sealStats() {
	ms.mu.Lock()
	ms.stats.WallSeconds = time.Since(ms.start).Seconds()
	if ms.stats.WallSeconds > 0 {
		ms.stats.TicksPerSecond = float64(ms.stats.TicksCompleted) / ms.stats.WallSeconds
	}
	ms.mu.Unlock()
}

// Stats returns the current aggregate counters (a progress snapshot
// while Run is in flight, the final numbers after it returns).
func (ms *MonitorScheduler) Stats() MonitorSchedulerStats {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	st := ms.stats
	if ms.ran && st.WallSeconds == 0 && !ms.start.IsZero() {
		st.WallSeconds = time.Since(ms.start).Seconds()
		if st.WallSeconds > 0 {
			st.TicksPerSecond = float64(st.TicksCompleted) / st.WallSeconds
		}
	}
	return st
}
