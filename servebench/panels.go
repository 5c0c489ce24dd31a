package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"advdiag"
)

// fig4Targets is the paper's six-target Fig. 4 demonstrator panel.
var fig4Targets = []string{"glucose", "lactate", "glutamate", "benzphetamine", "aminopyrine", "cholesterol"}

// pocTargets is the point-of-care panel: two oxidase (CA-only) targets.
var pocTargets = []string{"glucose", "lactate"}

// physiologicMM centres generated samples on physiologic values (the
// same baselines labserve's smoke cohorts use).
var physiologicMM = map[string]float64{
	"glucose": 2.0, "lactate": 1.0, "glutamate": 1.0,
	"benzphetamine": 0.8, "aminopyrine": 4.0, "cholesterol": 0.05,
}

const (
	// batchSize is the fig4-batch request size.
	batchSize = 16
	// pocRate is the poc-interactive Poisson arrival rate, panels/s.
	pocRate = 1000.0
	// pocBacklogBound is the most requests poc-interactive lets be due
	// and unanswered at once (a quarter second of arrivals). A run that
	// exceeds it measured a queue, not a latency, and is invalid.
	pocBacklogBound = 250
	// samplePoolSize is how many distinct samples a run cycles through.
	samplePoolSize = 512
)

var fig4Batch = workload{
	name:  "fig4-batch",
	shape: fmt.Sprintf("closed loop, one connection per CPU each posting %d-sample batches of the six-target Fig. 4 panel, negotiated (binary) codec, concentrations 0.5-2x physiologic, 2 shards x 1 worker, queue depth 32", batchSize),
	why:   "kernel-bound: noise, measure, fit and RunBatch coalescing do most of the CPU work and HTTP and wire costs spread over 16 panels, so kernel speedups show here and serving changes should not",
	run: func(cfg config) (*report, error) {
		return runPanels(cfg, panelWorkload{
			name:   "fig4-batch",
			spec:   stackSpec{targets: fig4Targets, depth: 32, http: true},
			closed: true,
		})
	},
}

var pocInteractive = workload{
	name:  "poc-interactive",
	shape: fmt.Sprintf("open loop, seeded Poisson arrivals at %.0f panels/s of single-sample JSON POST /v1/panels on a glucose+lactate CA-only platform, timed from each request's due time, 2 shards x 1 worker, queue depth 8", pocRate),
	why:   "serving-bound: the kernel is a small share and most of each request is HTTP, JSON, the Server's waiter demux and the Fleet queue hop, so serving changes show here and kernel speedups barely do",
	run: func(cfg config) (*report, error) {
		return runPanels(cfg, panelWorkload{
			name: "poc-interactive",
			spec: stackSpec{targets: pocTargets, depth: 8, http: true},
		})
	},
}

// panelWorkload is the part of a panel workload that differs between
// fig4-batch and poc-interactive.
type panelWorkload struct {
	name   string
	spec   stackSpec
	closed bool // closed-loop batches; otherwise open-loop single requests
}

// samplePool generates the run's concentrations from the seed: each
// target uniformly within 0.5-2x its physiologic value.
func samplePool(seed uint64, targets []string, n int) []map[string]float64 {
	rng := rand.New(rand.NewPCG(seed, 0x5eedb0a7))
	out := make([]map[string]float64, n)
	for i := range out {
		m := make(map[string]float64, len(targets))
		for _, t := range targets {
			m[t] = physiologicMM[t] * (0.5 + 1.5*rng.Float64())
		}
		out[i] = m
	}
	return out
}

// panelRecord is one served panel kept for the replay check.
type panelRecord struct {
	sample advdiag.Sample
	out    advdiag.PanelOutcome
}

// checked reports whether operation k is in the run's replay-checked
// subset: a seeded hash, so the subset is fixed by the seed.
func checked(seed uint64, k, every int) bool {
	if every <= 1 {
		return true
	}
	h := (seed ^ 0x9e3779b97f4a7c15) + uint64(k)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h%uint64(every) == 0
}

// outcomeError checks what can be checked on every served outcome: it
// succeeded, it answers this sample, and it reads every target of the
// panel at the concentration that was sent.
func outcomeError(s advdiag.Sample, o advdiag.PanelOutcome, targets int) error {
	if o.Err != nil {
		return o.Err
	}
	if o.ID != s.ID {
		return fmt.Errorf("outcome for sample %q answers %q", s.ID, o.ID)
	}
	if len(o.Result.Readings) != targets {
		return fmt.Errorf("sample %s: %d readings for a %d-target panel", s.ID, len(o.Result.Readings), targets)
	}
	for _, r := range o.Result.Readings {
		if r.TrueMM != s.Concentrations[r.Target] {
			return fmt.Errorf("sample %s: reading %s is for %g mM, sample had %g mM", s.ID, r.Target, r.TrueMM, s.Concentrations[r.Target])
		}
	}
	return nil
}

// verifyPanels re-runs each recorded outcome through Fleet.ReplayPanel
// and requires a bit-equal fingerprint.
func verifyPanels(f *advdiag.Fleet, recs []panelRecord) error {
	for _, r := range recs {
		ref, err := f.ReplayPanel(r.out.Shard, r.out.Index, r.sample)
		if err != nil {
			return fmt.Errorf("replay %s (index %d): %w", r.sample.ID, r.out.Index, err)
		}
		if got, want := r.out.Result.Fingerprint(), ref.Fingerprint(); got != want {
			return fmt.Errorf("sample %s (index %d, shard %d): served fingerprint %016x, replay %016x", r.sample.ID, r.out.Index, r.out.Shard, got, want)
		}
	}
	return nil
}

// panelOp is one operation of a panel pass: a single request
// (poc-interactive) or a batch (fig4-batch). It keeps timings and
// counts only; outcomes are checked as they arrive (collector.absorb).
type panelOp struct {
	id              string
	n, failed       int       // panels in the operation, and how many failed
	due, sent, done time.Time // closed loop: due is the dispatch time
	walls           []float64 // each panel's exec wall_s, traced pass only
	err             error
}

// sampleID is the ID of the operation's j-th sample, which the router
// sees as its trace ID.
func (op *panelOp) sampleID(j int) string {
	if op.n == 1 {
		return op.id
	}
	return op.id + "." + strconv.Itoa(j)
}

// collector checks each operation's outcomes as it completes and keeps
// what the replay check and the wire probe need. Operation goroutines
// share it.
type collector struct {
	seed           uint64
	every, targets int
	traced         bool

	mu       sync.Mutex
	recs     []panelRecord // the replay-checked subset
	wire     []panelRecord // the first wireSamples served panels
	firstBad error         // the first outcome that answered the wrong thing
}

// wireSamples is how many served panels the wire probe encodes.
const wireSamples = 64

// absorb checks one operation's outcomes; key numbers its first panel
// for the seeded choice of the replay-checked subset.
func (c *collector) absorb(op *panelOp, key int, samples []advdiag.Sample, outs []advdiag.PanelOutcome) {
	if op.err != nil {
		op.failed = op.n
		return
	}
	if c.traced {
		op.walls = make([]float64, len(outs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for j, s := range samples {
		o := outs[j]
		if e := outcomeError(s, o, c.targets); e != nil {
			op.failed++
			if o.Err == nil && c.firstBad == nil {
				c.firstBad = e
			}
			continue
		}
		if op.walls != nil {
			op.walls[j] = o.WallSeconds
		}
		if checked(c.seed, key+j, c.every) {
			c.recs = append(c.recs, panelRecord{sample: s, out: o})
		}
		if len(c.wire) < wireSamples {
			c.wire = append(c.wire, panelRecord{sample: s, out: o})
		}
	}
}

// panelPass is one timed pass of a panel workload, made of windows.
type panelPass struct {
	windows        []windowStat
	ops            []panelOp
	proc           procDelta // the whole pass
	panels, failed int
	backlog        int // most requests due and unanswered at once
	col            *collector
}

// drive runs one pass of the workload against st: windows back-to-back
// windows of dur each, a resource snapshot at every boundary. After
// each window it calls between, when set, with the number of windows
// left including that one. With a tracer installed on st.hooks every
// operation carries a trace ID.
func (pw panelWorkload) drive(st *stack, pool []map[string]float64, cfg config, pass, windows int, dur time.Duration, between func(left int) error) (*panelPass, error) {
	col := &collector{seed: cfg.seed + uint64(pass), every: cfg.checkEvery, targets: len(pw.spec.targets), traced: st.hooks.tracer() != nil}
	pp := &panelPass{col: col}
	next := 0 // operation keys continue across windows
	first := snapshot()
	for w := 0; w < windows; w++ {
		p0 := snapshot()
		var ops []panelOp
		var err error
		if pw.closed {
			ops = pw.closedLoop(st, pool, col, pass, &next, dur)
		} else {
			var backlog int
			ops, backlog, err = pw.openLoop(st, pool, col, cfg.seed, pass, w, &next, dur)
			pp.backlog = max(pp.backlog, backlog)
		}
		p1 := snapshot()
		if err != nil {
			return nil, err
		}
		ws := windowStat{proc: p0.to(p1)}
		var lat []float64
		done := 0
		for _, op := range ops {
			pp.panels += op.n
			pp.failed += op.failed
			done += op.n - op.failed
			if op.err == nil {
				lat = append(lat, ms(op.done.Sub(op.due)))
			}
		}
		ws.ops = done
		ws.lat = summarize(lat, "ms")
		pp.windows = append(pp.windows, ws)
		pp.ops = append(pp.ops, ops...)
		if between != nil {
			if err := between(windows - w); err != nil {
				return nil, err
			}
		}
	}
	pp.proc = first.to(snapshot())
	return pp, nil
}

// closedLoop runs one goroutine per connection, each posting batches
// back to back until dur has passed; the window ends when the last
// batch is answered. *next numbers the batches.
func (pw panelWorkload) closedLoop(st *stack, pool []map[string]float64, col *collector, pass int, next *int, dur time.Duration) []panelOp {
	conns := st.transport.MaxConnsPerHost
	deadline := time.Now().Add(dur)
	var counter atomic.Int64
	counter.Store(int64(*next))
	perConn := make([][]panelOp, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b := int(counter.Add(1) - 1)
				op := panelOp{id: "p" + strconv.Itoa(pass) + "b" + strconv.Itoa(b), n: batchSize}
				samples := make([]advdiag.Sample, batchSize)
				for j := range samples {
					samples[j] = advdiag.Sample{ID: op.sampleID(j), Concentrations: pool[(b*batchSize+j)%len(pool)]}
				}
				op.sent = time.Now()
				op.due = op.sent
				outs, err := st.client.RunPanels(context.WithValue(context.Background(), traceKey{}, op.id), samples)
				op.done, op.err = time.Now(), err
				st.hooks.tracer().record(op.id, "client", "", op.sent, op.done)
				col.absorb(&op, b*batchSize, samples, outs)
				perConn[c] = append(perConn[c], op)
			}
		}(c)
	}
	wg.Wait()
	*next = int(counter.Load())
	var ops []panelOp
	for _, o := range perConn {
		ops = append(ops, o...)
	}
	return ops
}

// errBacklog marks an open-loop run that fell behind its schedule.
var errBacklog = errors.New("invalid run: open-loop backlog exceeded its bound")

// openLoop dispatches seeded Poisson arrivals for dur and waits for
// every answer. The dispatcher may wake late (a busy CPU, timer
// slack), so at each wake-up every arrival already due goes out, and
// each request is timed from its own due time. It returns the ops, the
// largest backlog seen, and errBacklog when the backlog outgrew
// pocBacklogBound.
func (pw panelWorkload) openLoop(st *stack, pool []map[string]float64, col *collector, seed uint64, pass, window int, next *int, dur time.Duration) ([]panelOp, int, error) {
	rng := rand.New(rand.NewPCG(seed, uint64(pass)<<32|uint64(window)))
	var offsets []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / pocRate
		if t >= dur.Seconds() {
			break
		}
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	ops := make([]panelOp, len(offsets))
	samples := make([]advdiag.Sample, len(offsets))
	for k := range ops {
		ops[k] = panelOp{id: "p" + strconv.Itoa(pass) + "q" + strconv.Itoa(*next+k), n: 1}
		samples[k] = advdiag.Sample{ID: ops[k].id, Concentrations: pool[rng.IntN(len(pool))]}
	}
	first := *next
	*next += len(ops)

	var inflight atomic.Int64
	maxInflight := 0
	var wg sync.WaitGroup
	fire := func(k int) {
		defer wg.Done()
		defer inflight.Add(-1)
		op := &ops[k]
		out, err := st.client.RunPanel(context.WithValue(context.Background(), traceKey{}, op.id), samples[k])
		op.done, op.err = time.Now(), err
		st.hooks.tracer().record(op.id, "client", "", op.sent, op.done)
		col.absorb(op, first+k, samples[k:k+1], []advdiag.PanelOutcome{out})
	}
	start := time.Now()
	var err error
	k := 0
	for k < len(ops) && err == nil {
		now := time.Now()
		for ; k < len(ops) && !start.Add(offsets[k]).After(now); k++ {
			n := int(inflight.Add(1))
			maxInflight = max(maxInflight, n)
			if n > pocBacklogBound {
				inflight.Add(-1)
				err = fmt.Errorf("%w: %d requests due and unanswered at %.2fs (bound %d)", errBacklog, n, offsets[k].Seconds(), pocBacklogBound)
				break
			}
			ops[k].due, ops[k].sent = start.Add(offsets[k]), time.Now()
			wg.Add(1)
			go fire(k)
		}
		if err == nil && k < len(ops) {
			sleepUntil(start.Add(offsets[k]))
		}
	}
	wg.Wait()
	return ops[:k], maxInflight, err
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's timers (time.Sleep) woke the generator 0.27 ms late at the
// median on a 2-vCPU VM, a thread blocked in the kernel 0.07 ms; the
// lateness is charged to every request's latency, so it is kept small.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// runPanels is the shared body of the two panel workloads: stand the
// stack up, warm it, run the untraced pass, check it, and with --trace 1
// run the traced pass and the layer probes.
func runPanels(cfg config, pw panelWorkload) (*report, error) {
	st, setups, err := standUp(cfg, pw.spec, "server")
	if err != nil {
		return nil, err
	}
	defer st.close() //nolint:errcheck // teardown after the result is computed; a failure here cannot change it
	pool := samplePool(cfg.seed, pw.spec.targets, samplePoolSize)

	if _, err := pw.drive(st, pool, cfg, 9, 1, cfg.warmup, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	windows, per := cfg.windows()
	base, err := pw.drive(st, pool, cfg, 0, windows, per, setups.take)
	if err != nil {
		return nil, err
	}
	setup := setups.median()
	rep := newReport(base.panels, base.failed)
	rep.checkErr = base.col.firstBad
	if rep.checkErr == nil {
		rep.checkErr = verifyPanels(st.fleet, base.col.recs)
	}
	rep.e2e["setup_s"] = setup.total().Seconds()
	windowMetrics(base.windows, rep.e2e)
	what := "batch round trip from dispatch"
	if !pw.closed {
		what = "request latency from its due time"
	}
	rep.notef("untraced pass: %d panels in %d windows of %.1fs (%d failed), %d replay-checked", base.panels, windows, per.Seconds(), base.failed, len(base.col.recs))
	rep.notef("  %s, whole pass: %s", what, pw.latencies(base.ops))
	rep.lines = append(rep.lines, windowLines(base.windows, "panels")...)
	rep.notef("setup (median of %d group means of %d set-ups spread over the windows): design %.2f ms + fleet warm-up %.2f ms + server ready %.2f ms", min(setupGroups, len(setups.times)), len(setups.times), ms(setup.design), ms(setup.warm), ms(setup.ready))
	rep.notef("cpu: %.1f ms user+sys over %.2fs wall, gc %.1f%%, throttled %s", ms(base.proc.cpu), base.proc.wall.Seconds(), base.proc.gcPct(), throttledText(base.proc))
	if !pw.closed {
		rep.notef("load generator: lateness %s, backlog max %d (bound %d)", pw.lateness(base.ops), base.backlog, pocBacklogBound)
	}
	if !cfg.trace {
		return rep, nil
	}
	if err := pw.traced(cfg, st, pool, base, setup, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// latencies is the end-to-end latency distribution of ops, in ms.
func (pw panelWorkload) latencies(ops []panelOp) dist {
	vals := make([]float64, 0, len(ops))
	for _, op := range ops {
		if op.err == nil {
			vals = append(vals, ms(op.done.Sub(op.due)))
		}
	}
	return summarize(vals, "ms")
}

// lateness is how late the generator dispatched ops, in ms.
func (pw panelWorkload) lateness(ops []panelOp) dist {
	vals := make([]float64, len(ops))
	for i, op := range ops {
		vals[i] = ms(op.sent.Sub(op.due))
	}
	return summarize(vals, "ms")
}

func throttledText(d procDelta) string {
	if d.throttled < 0 {
		return "unknown (no cgroup v2 cpu.stat)"
	}
	return fmt.Sprintf("%.1f ms", ms(d.throttled))
}

// traced runs the traced pass and fills the per-layer metrics: spans
// from the benchmark's wrappers for the serving path, and the kernel
// and wire probes for the layers below it.
func (pw panelWorkload) traced(cfg config, st *stack, pool []map[string]float64, base *panelPass, setup setupTimes, rep *report) error {
	tr := newTracer()
	st.hooks.tr.Store(tr)
	stopPoll := pollFleet(st.fleet)
	windows, per := cfg.windows()
	tp, err := pw.drive(st, pool, cfg, 1, windows, per, nil)
	fleetPeak := stopPoll()
	st.hooks.tr.Store(nil)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if err := verifyPanels(st.fleet, tp.col.recs); err != nil && rep.checkErr == nil {
		rep.checkErr = fmt.Errorf("traced pass: %w", err)
	}
	L := rep.layers
	fillProc(L, base.windows, tp.windows, base.proc, base.panels-base.failed)
	L["core.design_ms"] = ms(setup.design)
	L["runtime.warm_ms"] = ms(setup.warm)
	L["server.ready_ms"] = ms(setup.ready)
	L["fleet.queue_len_max"] = float64(fleetPeak.queueMax)
	L["fleet.rejected"] = float64(fleetPeak.rejected)
	rep.markNA("scheduler.shed_ratio", "scheduler.overhead_us_per_tick", "runtime.monitor_us")
	if pw.closed {
		rep.markNA("client.rtt_p50_ms", "client.rtt_p99_ms", "loadgen.late_p99_ms", "loadgen.backlog")
	} else {
		rep.markNA("client.batch_rtt_p50_ms")
		L["loadgen.late_p99_ms"] = pw.lateness(base.ops).tail
		L["loadgen.backlog"] = float64(base.backlog)
	}

	serving := servingRows(tr, tp)
	L["server.handle_p50_ms"] = serving.handle.p50
	L["server.handle_p99_ms"] = serving.handle.tail
	L["fleet.route_us"] = serving.routeUS
	L["fleet.wait_p50_ms"] = serving.wait.p50
	L["fleet.wait_p99_ms"] = serving.wait.tail
	L["runtime.exec_p50_ms"] = serving.exec.p50
	if pw.closed {
		L["client.batch_rtt_p50_ms"] = serving.rtt.p50
	} else {
		L["client.rtt_p50_ms"] = serving.rtt.p50
		L["client.rtt_p99_ms"] = serving.rtt.tail
	}
	rep.notef("traced pass: %d panels, %d spans; client rtt %s; server handle %s; fleet wait %s; exec %s; route %.2f us",
		tp.panels, len(tr.spans), serving.rtt, serving.handle, serving.wait, serving.exec, serving.routeUS)
	rep.notef("fleet polls: queue length max %d, %d rejected during the traced pass", fleetPeak.queueMax, fleetPeak.rejected)

	samples := make([]advdiag.Sample, len(tp.col.wire))
	outs := make([]advdiag.PanelOutcome, len(tp.col.wire))
	for i, r := range tp.col.wire {
		samples[i], outs[i] = r.sample, r.out
	}
	wr, err := probeWire(samples, outs, cfg.kernelBudget)
	if err != nil {
		return err
	}
	wr.fill(L)
	rep.lines = append(rep.lines, wr.lines()...)

	kr, err := probePanelKernels(pw.spec.targets, pool, cfg.kernelBudget)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	kr.fill(L, rep.na, false)
	rep.lines = append(rep.lines, kr.lines()...)

	// fig4-batch states its residual against the kernel table,
	// poc-interactive against the serving-path table; both print.
	klines, kresidual := kr.table()
	rep.lines = append(rep.lines, klines...)
	L["trace.residual_pct"] = kresidual
	if !pw.closed {
		lines, residual := layerTable("client.rtt_p50_ms (poc-interactive, per request, from dispatch)", serving.rtt.p50, "ms", serving.rows)
		rep.lines = append(rep.lines, lines...)
		L["trace.residual_pct"] = residual
	}
	// The outcome reports only the execution's duration (wall_s), so
	// the dump anchors each exec span to end where its server span ends.
	groups := tr.byTrace()
	for _, op := range tp.ops {
		s, ok := groups[op.id]["server"]
		if op.err != nil || !ok {
			continue
		}
		end := tr.base.Add(time.Duration(s.End))
		for j, wall := range op.walls {
			tr.record(op.sampleID(j), "runtime.exec", "fleet.route", end.Add(-time.Duration(wall*float64(time.Second))), end)
		}
	}
	path, err := tr.write(cfg.outDir, "spans-"+pw.name+".jsonl")
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.notef("spans: %s", path)
	return nil
}

// servingStats is the serving-path breakdown of a traced panel pass.
type servingStats struct {
	rtt, handle, wait, exec dist
	routeUS                 float64
	rows                    []tableRow
}

// servingRows joins each operation's spans. Per request, the blocking
// path splits exactly into:
//
//	client self  = client span − http span (encode, decode, body read)
//	http self    = http span − server span (transport, loopback TCP)
//	server self  = route start − server start (decode, validate, submit)
//	fleet.route  = the Route call
//	fleet.wait   = server end − route end − exec (queue, result hop,
//	               waiter demux, response encode)
//	runtime.exec = the outcome's wall_s
//
// so the per-request rows sum to the round trip; the table's residual is
// the difference between the median round trip and the sum of the
// per-row medians.
func servingRows(tr *tracer, pp *panelPass) servingStats {
	groups := tr.byTrace()
	var rtt, handle, wait, exec, cSelf, hSelf, sSelf, route []float64
	for _, op := range pp.ops {
		if op.err != nil || op.failed > 0 {
			continue
		}
		g := groups[op.id]
		c, okC := g["client"]
		h, okH := g["http"]
		s, okS := g["server"]
		if !okC || !okH || !okS {
			continue
		}
		rtt = append(rtt, ms(c.dur()))
		handle = append(handle, ms(s.dur()))
		for j, wall := range op.walls {
			r, ok := groups[op.sampleID(j)]["fleet.route"]
			if !ok {
				continue
			}
			e := wall * 1e3
			exec = append(exec, e)
			wait = append(wait, ms(time.Duration(s.End-r.End))-e)
			if op.n == 1 {
				cSelf = append(cSelf, ms(c.dur()-h.dur()))
				hSelf = append(hSelf, ms(h.dur()-s.dur()))
				sSelf = append(sSelf, ms(time.Duration(r.Start-s.Start)))
				route = append(route, ms(r.dur()))
			}
		}
	}
	out := servingStats{
		rtt:    summarize(rtt, "ms"),
		handle: summarize(handle, "ms"),
		wait:   summarize(wait, "ms"),
		exec:   summarize(exec, "ms"),
	}
	out.routeUS = meanUS(tr.spansNamed("fleet.route"))
	out.rows = []tableRow{
		{"client (self)", median(cSelf), "request encode, response read and decode"},
		{"http (self)", median(hSelf), "transport and loopback TCP"},
		{"server (self)", median(sSelf), "handler up to routing: body read, decode, validate"},
		{"fleet.route", median(route), "Router.Route"},
		{"fleet.wait", out.wait.p50, "queue wait, result hop, waiter demux, response encode"},
		{"runtime.exec", out.exec.p50, "panel execution (outcome wall_s)"},
	}
	return out
}

// fleetPoll is what polling FleetStats saw.
type fleetPoll struct {
	queueMax int
	rejected uint64
}

// pollFleet samples FleetStats every few milliseconds until the
// returned stop function is called; stop waits for the poller to exit.
func pollFleet(f *advdiag.Fleet) (stop func() fleetPoll) {
	first := f.Stats()
	quit := make(chan struct{})
	res := make(chan fleetPoll, 1)
	go func() {
		var p fleetPoll
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			st := f.Stats()
			for _, sh := range st.Shards {
				p.queueMax = max(p.queueMax, sh.QueueLen)
			}
			p.rejected = st.Rejected + st.MonitorsRejected - first.Rejected - first.MonitorsRejected
			select {
			case <-quit:
				res <- p
				return
			case <-tick.C:
			}
		}
	}()
	return func() fleetPoll {
		close(quit)
		return <-res
	}
}
