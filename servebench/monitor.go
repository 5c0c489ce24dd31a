package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"advdiag"
	rt "advdiag/internal/runtime"
)

// monitorTargets are the two monitorable metabolites of the
// population example, with their campaign baselines in mM.
var monitorTargets = []string{"glucose", "lactate"}

var monitorBaseMM = map[string]float64{"glucose": 2.0, "lactate": 1.2}

const (
	// monitorDepth is the fleet queue depth of monitor-population.
	monitorDepth = 8
	// The campaign shape: a 7-day deployment read every 12 h, with the
	// scheduler's default 30 s / 5 s traces.
	campaignHours = 7 * 24
	readingHours  = 12
	traceSeconds  = 30
	baseSeconds   = 5
	// traceEvery samples the traced pass: one campaign in traceEvery is
	// traced, which keeps the span dump to a few MB.
	traceEvery = 16
)

var monitorPopulation = workload{
	name:  "monitor-population",
	shape: fmt.Sprintf("in-process MonitorScheduler over a 2-shard x 1-worker fleet (no HTTP), rounds of seeded glucose/lactate campaigns in the five shapes of examples/population (plain, scheduled recal, polymer, recal on drift, injection), %d h deployments read every %d h, %g s / %g s traces", campaignHours, readingHours, float64(traceSeconds), float64(baseSeconds)),
	why:   "the same Fleet and Executor through monitor lanes and RunMonitor, with the scheduler heap and queue hop a large share of each tick, so a Fleet change that costs monitors shows here",
	run:   runMonitor,
}

// cohort generates one round's campaigns from the seed, cycling through
// the five campaign shapes.
func cohort(seed uint64, round, n int) []advdiag.MonitorCampaign {
	rng := rand.New(rand.NewPCG(seed, 0xc0407+uint64(round)))
	out := make([]advdiag.MonitorCampaign, n)
	for i := range out {
		tgt := monitorTargets[i%len(monitorTargets)]
		base := monitorBaseMM[tgt]
		c := advdiag.MonitorCampaign{
			ID:            "r" + strconv.Itoa(round) + "-c" + strconv.Itoa(i),
			Target:        tgt,
			SampleMM:      base * (0.8 + 0.4*rng.Float64()),
			DurationHours: campaignHours,
			IntervalHours: readingHours,
		}
		switch i % 5 {
		case 1:
			c.RecalEveryHours = 4 * readingHours
		case 2:
			c.Polymer = true
		case 3:
			c.RecalOnDrift = true
			c.DriftThresholdPct = 5
			c.DriftWindow = 2
		case 4:
			c.Injections = []advdiag.InjectionEvent{{AtSeconds: traceSeconds / 2, DeltaMM: base / 2}}
		}
		out[i] = c
	}
	return out
}

// tickKey names one tick: campaign ID and tick index.
type tickKey struct {
	id   string
	tick int
}

// tickBackend is the MonitorBackend the scheduler drives: it passes
// every submission to the fleet and relays every outcome back,
// recording each tick's round trip from its first submission attempt
// to its outcome's arrival. It owns the fleet's MonitorResults stream
// for the stack's lifetime; the relay goroutine exits when the fleet
// closes.
type tickBackend struct {
	fleet *advdiag.Fleet
	hooks *hooks
	out   chan advdiag.MonitorOutcome
	done  chan struct{}

	mu   sync.Mutex
	sent map[tickKey]time.Time
	rtt  []float64 // ms, in arrival order
}

func newTickBackend(f *advdiag.Fleet, h *hooks) *tickBackend {
	b := &tickBackend{fleet: f, hooks: h, out: make(chan advdiag.MonitorOutcome), done: make(chan struct{}), sent: map[tickKey]time.Time{}}
	go b.relay()
	return b
}

func (b *tickBackend) relay() {
	defer close(b.done)
	defer close(b.out)
	for o := range b.fleet.MonitorResults() {
		now := time.Now()
		k := tickKey{o.ID, o.Tick}
		b.mu.Lock()
		t0, ok := b.sent[k]
		delete(b.sent, k)
		if ok {
			b.rtt = append(b.rtt, ms(now.Sub(t0)))
		}
		b.mu.Unlock()
		if t := b.hooks.tracer(); t != nil && ok {
			id := o.ID + "#" + strconv.Itoa(o.Tick)
			t.record(id, "tick", "", t0, now)
			t.record(id, "runtime.exec", "fleet.route", now.Add(-time.Duration(o.WallSeconds*float64(time.Second))), now)
		}
		b.out <- o
	}
}

// stamp records a tick's first submission attempt; a shed tick's retry
// keeps the original time.
func (b *tickBackend) stamp(req advdiag.MonitorRequest) {
	k := tickKey{req.ID, req.Tick}
	b.mu.Lock()
	if _, ok := b.sent[k]; !ok {
		b.sent[k] = time.Now()
	}
	b.mu.Unlock()
}

func (b *tickBackend) forget(req advdiag.MonitorRequest) {
	b.mu.Lock()
	delete(b.sent, tickKey{req.ID, req.Tick})
	b.mu.Unlock()
}

func (b *tickBackend) SubmitMonitor(req advdiag.MonitorRequest) error {
	b.stamp(req)
	err := b.fleet.SubmitMonitor(req)
	if err != nil {
		b.forget(req)
	}
	return err
}

func (b *tickBackend) TrySubmitMonitor(req advdiag.MonitorRequest) error {
	b.stamp(req)
	err := b.fleet.TrySubmitMonitor(req)
	if err != nil && !errors.Is(err, advdiag.ErrFleetSaturated) {
		b.forget(req)
	}
	return err
}

func (b *tickBackend) MonitorResults() <-chan advdiag.MonitorOutcome { return b.out }

// takeRTT returns the round trips recorded since the last call.
func (b *tickBackend) takeRTT() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.rtt
	b.rtt = nil
	return out
}

// cohortRecord is one campaign kept for the cohort check.
type cohortRecord struct {
	campaign    advdiag.MonitorCampaign
	fingerprint uint64
}

// verifyCohort re-runs the recorded campaigns on a fresh 1-shard ×
// 1-worker fleet over the same platform and requires equal
// per-campaign fingerprints: campaign results must not depend on the
// fleet topology or on the rest of the cohort.
func verifyCohort(p *advdiag.Platform, seed uint64, recs []cohortRecord) (err error) {
	if len(recs) == 0 {
		return nil
	}
	f, err := advdiag.NewFleet([]*advdiag.Platform{p}, advdiag.WithFleetWorkers(1))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	ms, err := advdiag.NewMonitorScheduler(f, advdiag.WithSchedulerSeed(seed))
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := ms.Add(r.campaign); err != nil {
			return err
		}
	}
	rep, err := ms.Run()
	if err != nil {
		return err
	}
	got := make(map[string]advdiag.CampaignReport, len(rep.Campaigns))
	for _, c := range rep.Campaigns {
		got[c.ID] = c
	}
	for _, r := range recs {
		c := got[r.campaign.ID]
		if c.Err != nil {
			return fmt.Errorf("campaign %s on the reference fleet: %w", r.campaign.ID, c.Err)
		}
		if c.Fingerprint != r.fingerprint {
			return fmt.Errorf("campaign %s: fingerprint %016x on the 2-shard fleet, %016x on 1 shard x 1 worker", r.campaign.ID, r.fingerprint, c.Fingerprint)
		}
	}
	return nil
}

// monitorPass is one timed pass of rounds; each round is a window.
type monitorPass struct {
	windows                        []windowStat
	proc                           procDelta // the whole pass
	ticks, submitted, failed, shed uint64
	campaigns, failedCampaigns     int
	recs                           []cohortRecord
}

// driveMonitor runs whole scheduler rounds until dur has passed (at
// least one round). After each round it calls between, when set, with
// an estimate of the rounds left including that one.
func driveMonitor(cfg config, b *tickBackend, pass int, dur time.Duration, between func(left int) error) (*monitorPass, error) {
	mp := &monitorPass{}
	b.takeRTT()
	first := snapshot()
	deadline := first.wall.Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		id := pass*1000 + round
		cs := cohort(cfg.seed, id, cfg.cohort)
		ms, err := advdiag.NewMonitorScheduler(b, advdiag.WithSchedulerSeed(cfg.seed))
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			if err := ms.Add(c); err != nil {
				return nil, fmt.Errorf("campaign %s: %w", c.ID, err)
			}
		}
		p0 := snapshot()
		rep, err := ms.Run()
		if err != nil {
			return nil, err
		}
		p1 := snapshot()
		if between != nil {
			if err := between(1 + int(deadline.Sub(p1.wall)/p1.wall.Sub(p0.wall))); err != nil {
				return nil, err
			}
		}
		st := ms.Stats()
		mp.windows = append(mp.windows, windowStat{proc: p0.to(p1), ops: int(st.TicksCompleted), lat: summarize(b.takeRTT(), "ms")})
		mp.ticks += st.TicksCompleted
		mp.submitted += st.TicksSubmitted
		mp.failed += st.TickFailures
		mp.shed += st.Shed
		mp.campaigns += len(cs)
		mp.failedCampaigns += rep.Failed()
		byID := make(map[string]advdiag.MonitorCampaign, len(cs))
		for _, c := range cs {
			byID[c.ID] = c
		}
		for i, c := range rep.Campaigns {
			if c.Err == nil && checked(cfg.seed+uint64(id), i, cfg.checkEvery) {
				mp.recs = append(mp.recs, cohortRecord{campaign: byID[c.ID], fingerprint: c.Fingerprint})
			}
		}
	}
	mp.proc = first.to(snapshot())
	return mp, nil
}

// runMonitor is the monitor-population workload.
func runMonitor(cfg config) (*report, error) {
	st, setups, err := standUp(cfg, stackSpec{targets: monitorTargets, depth: monitorDepth}, "scheduler")
	if err != nil {
		return nil, err
	}
	b := newTickBackend(st.fleet, st.hooks)
	defer func() {
		st.close() //nolint:errcheck // teardown after the result is computed
		<-b.done
	}()

	warm := cfg
	warm.cohort = max(cfg.cohort/4, 1)
	if _, err := driveMonitor(warm, b, 9, cfg.warmup, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Rounds are this workload's windows, so the pass is timed whole.
	measured := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measured /= 2
	}
	base, err := driveMonitor(cfg, b, 0, measured, setups.take)
	if err != nil {
		return nil, err
	}
	setup := setups.median()
	rep := newReport(int(base.submitted), int(base.failed))
	if base.failedCampaigns > 0 {
		rep.checkErr = fmt.Errorf("%d of %d campaigns failed", base.failedCampaigns, base.campaigns)
	} else {
		rep.checkErr = verifyCohort(st.platform, cfg.seed, base.recs)
	}
	rep.e2e["setup_s"] = setup.total().Seconds()
	windowMetrics(base.windows, rep.e2e)
	rep.notef("untraced pass: %d rounds of %d campaigns, %d ticks in %.2fs (%d failed, %d shed and retried), %d campaigns re-run on 1 shard x 1 worker",
		len(base.windows), cfg.cohort, base.ticks, base.proc.wall.Seconds(), base.failed, base.shed, len(base.recs))
	rep.lines = append(rep.lines, windowLines(base.windows, "ticks")...)
	rep.notef("setup (median of %d group means of %d set-ups spread over the rounds): design %.2f ms + fleet warm-up %.2f ms", min(setupGroups, len(setups.times)), len(setups.times), ms(setup.design), ms(setup.warm))
	rep.notef("cpu: %.1f ms user+sys over %.2fs wall, gc %.1f%%, throttled %s", ms(base.proc.cpu), base.proc.wall.Seconds(), base.proc.gcPct(), throttledText(base.proc))
	if !cfg.trace {
		return rep, nil
	}

	// Trace one campaign in traceEvery, all of its ticks: the router
	// sees the campaign ID, the relay the campaign ID and tick.
	tr := newTracer()
	tr.keep = func(trace string) bool {
		campaign, _, _ := strings.Cut(trace, "#")
		h := fnv.New32a()
		h.Write([]byte(campaign))
		return h.Sum32()%traceEvery == 0
	}
	st.hooks.tr.Store(tr)
	stopPoll := pollFleet(st.fleet)
	tp, err := driveMonitor(cfg, b, 1, measured, nil)
	fleetPeak := stopPoll()
	st.hooks.tr.Store(nil)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := verifyCohort(st.platform, cfg.seed, tp.recs); err != nil && rep.checkErr == nil {
		rep.checkErr = fmt.Errorf("traced pass: %w", err)
	}

	L := rep.layers
	rep.markNA("client.batch_rtt_p50_ms", "server.handle_p50_ms", "server.handle_p99_ms", "server.ready_ms",
		"loadgen.late_p99_ms", "loadgen.backlog")
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "wire.") {
			rep.markNA(d.name)
		}
	}
	fillProc(L, base.windows, tp.windows, base.proc, int(base.ticks))
	L["core.design_ms"] = ms(setup.design)
	L["runtime.warm_ms"] = ms(setup.warm)
	L["fleet.queue_len_max"] = float64(fleetPeak.queueMax)
	L["fleet.rejected"] = float64(fleetPeak.rejected)
	L["scheduler.shed_ratio"] = float64(base.shed) / float64(max(base.submitted, 1))

	ts := tickRows(tr)
	L["client.rtt_p50_ms"] = ts.rtt.p50
	L["client.rtt_p99_ms"] = ts.rtt.tail
	L["fleet.route_us"] = ts.routeUS
	L["fleet.wait_p50_ms"] = ts.wait.p50
	L["fleet.wait_p99_ms"] = ts.wait.tail
	L["runtime.exec_p50_ms"] = ts.exec.p50
	rep.notef("traced pass: %d ticks, %d spans (one campaign in %d traced); tick round trip (the scheduler is the fleet's client) %s; fleet wait %s; exec %s; route %.2f us",
		tp.ticks, len(tr.spans), traceEvery, ts.rtt, ts.wait, ts.exec, ts.routeUS)
	rep.notef("fleet polls: queue length max %d, %d rejected (shed) during the traced pass", fleetPeak.queueMax, fleetPeak.rejected)

	kr, err := probeMonitorKernels(monitorTargets, monitorSpecs(), cfg.kernelBudget)
	if err != nil {
		return nil, fmt.Errorf("kernel probe: %w", err)
	}
	kr.fill(L, rep.na, true)
	L["scheduler.overhead_us_per_tick"] = 1e3*medianOver(base.windows, windowStat.cpuPerOp) - kr.monitorUS
	rep.lines = append(rep.lines, kr.lines()...)
	lines, residual := layerTable("client.rtt_p50_ms (monitor-population, per tick, from first submission)", ts.rtt.p50, "ms", ts.rows)
	rep.lines = append(rep.lines, lines...)
	L["trace.residual_pct"] = residual
	klines, _ := kr.table()
	rep.lines = append(rep.lines, klines...)
	rep.notef("scheduler overhead: %.1f us CPU per tick beyond the isolated RunMonitor's %.1f us (scheduler heap, fleet queue hop, relay, GC); served ticks' RunMonitor averaged %.1f us wall, and a negative overhead means the isolated call costs more than the served mix",
		L["scheduler.overhead_us_per_tick"], kr.monitorUS, meanUS(tr.spansNamed("runtime.exec")))

	path, err := tr.write(cfg.outDir, "spans-monitor-population.jsonl")
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.notef("spans: %s", path)
	return rep, nil
}

// monitorSpecs are the probe's ticks: a plain reading of each target at
// mid-deployment with the workload's trace shape.
func monitorSpecs() []rt.MonitorSpec {
	var out []rt.MonitorSpec
	for _, t := range monitorTargets {
		out = append(out, rt.MonitorSpec{Target: t, ConcentrationMM: monitorBaseMM[t], DurationSeconds: traceSeconds,
			BaselineSeconds: baseSeconds, AgeHours: campaignHours / 2})
	}
	return out
}

// tickStats is the serving-path breakdown of a traced monitor pass.
type tickStats struct {
	rtt, wait, exec dist
	routeUS         float64
	rows            []tableRow
}

// tickRows joins each tick's spans. The router sees the campaign ID,
// and a campaign has at most one tick in flight, so a tick's route is
// the last Route call for its campaign that started inside the tick.
// Per tick the blocking path splits exactly into:
//
//	scheduler.dispatch = route start − first submission attempt
//	                     (submit lock, and a shed attempt's retry)
//	fleet.route        = the Route call
//	fleet.wait         = outcome arrival − route end − exec (queue wait,
//	                     result hop, relay)
//	runtime.exec       = the outcome's wall_s
func tickRows(tr *tracer) tickStats {
	tr.mu.Lock()
	routes := map[string][]span{}
	var ticks, execs []span
	for _, s := range tr.spans {
		switch s.Name {
		case "fleet.route":
			routes[s.Trace] = append(routes[s.Trace], s)
		case "tick":
			ticks = append(ticks, s)
		case "runtime.exec":
			execs = append(execs, s)
		}
	}
	tr.mu.Unlock()
	execBy := make(map[string]span, len(execs))
	for _, e := range execs {
		execBy[e.Trace] = e
	}
	for _, rs := range routes {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	}
	var rtt, wait, exec, dispatch, route []float64
	for _, t := range ticks {
		rs := routes[t.Trace[:strings.LastIndex(t.Trace, "#")]]
		i := sort.Search(len(rs), func(i int) bool { return rs[i].Start > t.End }) - 1
		if i < 0 || rs[i].Start < t.Start {
			continue
		}
		r, e := rs[i], execBy[t.Trace]
		rtt = append(rtt, ms(t.dur()))
		exec = append(exec, ms(e.dur()))
		wait = append(wait, ms(time.Duration(t.End-r.End)-e.dur()))
		dispatch = append(dispatch, ms(time.Duration(r.Start-t.Start)))
		route = append(route, ms(r.dur()))
	}
	out := tickStats{rtt: summarize(rtt, "ms"), wait: summarize(wait, "ms"), exec: summarize(exec, "ms"),
		routeUS: meanUS(tr.spansNamed("fleet.route"))}
	out.rows = []tableRow{
		{"scheduler.dispatch", median(dispatch), "submit up to routing, including shed retries"},
		{"fleet.route", median(route), "Router.Route"},
		{"fleet.wait", out.wait.p50, "queue wait, result hop, relay"},
		{"runtime.exec", out.exec.p50, "RunMonitor (outcome wall_s)"},
	}
	return out
}
