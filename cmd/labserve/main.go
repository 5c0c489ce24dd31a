// Command labserve is the network front door over a panel fleet: it
// designs a platform for the requested targets, shards it behind an
// advdiag.Fleet, and serves the wire-format HTTP API (see the advdiag
// Server type: POST /v1/panels[, /batch, /stream], GET /v1/stats,
// GET /healthz). SIGTERM/SIGINT drain gracefully: health flips to 503,
// new submissions are refused, accepted panels finish, then the
// process exits.
//
// Examples:
//
//	labserve                             # Fig. 4 panel on :8080, 2 shards
//	labserve -addr :9090 -shards 4 -workers 2 -router hash
//	labserve -targets glucose,lactate -depth 16
//	labserve -smoke                      # CI: serve, submit a Fig. 4
//	                                     # batch via the client, diff
//	                                     # fingerprints against a local
//	                                     # Lab, exit non-zero on any bit
//	                                     # difference
//	labserve -monitor-smoke              # CI: drive a monitoring cohort
//	                                     # through a scheduler over the
//	                                     # HTTP backend, diff the cohort
//	                                     # fingerprint against an
//	                                     # in-process scheduler on a
//	                                     # local fleet
//	labserve -diag-smoke                 # CI: kill a shard under live
//	                                     # load, require /v1/diagnosis
//	                                     # to convict and quarantine it,
//	                                     # the batch to fail over with
//	                                     # byte-identical fingerprints,
//	                                     # and healthz to stay 200
//	labserve -elastic-smoke              # CI: flaky shard under live
//	                                     # load — health probes open its
//	                                     # breaker, a healthy shard is
//	                                     # removed and a fresh one added
//	                                     # over HTTP mid-batch, faults
//	                                     # clear and probes restore the
//	                                     # shard automatically; zero lost
//	                                     # panels, every fingerprint
//	                                     # replay-verified
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"advdiag"
)

// fig4Targets is the paper's §III six-target demonstrator panel.
var fig4Targets = []string{
	"glucose", "lactate", "glutamate",
	"benzphetamine", "aminopyrine", "cholesterol",
}

// baselineMM centers the smoke cohort on physiologic values.
var baselineMM = map[string]float64{
	"glucose":       2.0,
	"lactate":       1.0,
	"glutamate":     1.0,
	"benzphetamine": 0.8,
	"aminopyrine":   4.0,
	"cholesterol":   0.05,
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		targets  = flag.String("targets", strings.Join(fig4Targets, ","), "comma-separated panel targets")
		shards   = flag.Int("shards", 2, "fleet shard count")
		workers  = flag.Int("workers", 1, "workers per shard")
		depth    = flag.Int("depth", 8, "bounded queue depth per shard")
		seed     = flag.Uint64("seed", 1, "platform noise seed")
		router   = flag.String("router", "leastloaded", "routing policy: leastloaded|affinity|hash")
		smoke    = flag.Bool("smoke", false, "CI smoke: serve, run a client batch, diff fingerprints against a local Lab")
		patients = flag.Int("patients", 16, "smoke batch size")
		msmoke   = flag.Bool("monitor-smoke", false, "CI smoke: drive a monitoring cohort through an HTTP-backed scheduler, diff the cohort fingerprint against an in-process fleet")
		cohort   = flag.Int("campaigns", 24, "monitor-smoke cohort size")
		dsmoke   = flag.Bool("diag-smoke", false, "CI smoke: kill a shard under live load, require /v1/diagnosis to convict and quarantine it, the batch to fail over losslessly, and healthz to stay 200")
		esmoke   = flag.Bool("elastic-smoke", false, "CI smoke: flaky shard under live load, breaker opens, topology changes over HTTP mid-batch, faults clear and probes restore the shard; zero lost panels, every fingerprint replay-verified")
	)
	flag.Parse()

	tl := splitTargets(*targets)
	if *smoke {
		if err := runSmoke(os.Stdout, tl, *patients, *shards, *workers, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "labserve smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *msmoke {
		if err := runMonitorSmoke(os.Stdout, tl, *cohort, *shards, *workers, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "labserve monitor-smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *dsmoke {
		if err := runDiagSmoke(os.Stdout, tl, *patients, *shards, *workers, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "labserve diag-smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *esmoke {
		if err := runElasticSmoke(os.Stdout, tl, *patients, *shards, *workers, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "labserve elastic-smoke:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(*addr, tl, *shards, *workers, *depth, *seed, *router); err != nil {
		fmt.Fprintln(os.Stderr, "labserve:", err)
		os.Exit(1)
	}
}

func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// buildServer designs the platform once and stands the fleet + front
// door up over n shards of it (shards share the design and its warmed
// calibration cache). The fleet is returned alongside the server so
// smokes can inject faults into it.
func buildServer(targets []string, shards, workers, depth int, seed uint64, router string) (*advdiag.Platform, *advdiag.Fleet, *advdiag.Server, error) {
	var r advdiag.Router
	switch router {
	case "leastloaded":
		r = advdiag.LeastLoadedRouter{}
	case "affinity":
		r = advdiag.AffinityRouter{}
	case "hash":
		r = &advdiag.HashRouter{}
	default:
		return nil, nil, nil, fmt.Errorf("unknown router %q (want leastloaded, affinity or hash)", router)
	}
	p, err := advdiag.DesignPlatform(targets, advdiag.WithPlatformSeed(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	plats := make([]*advdiag.Platform, shards)
	for i := range plats {
		plats[i] = p
	}
	fleet, err := advdiag.NewFleet(plats,
		advdiag.WithFleetRouter(r),
		advdiag.WithFleetWorkers(workers),
		advdiag.WithFleetQueueDepth(depth),
	)
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := advdiag.NewServer(fleet)
	if err != nil {
		return nil, nil, nil, err
	}
	return p, fleet, srv, nil
}

// idleTimeout closes keep-alive connections that carry no request for
// this long, so idle clients do not pin sockets on a long-running
// server. There is deliberately no WriteTimeout: it would cut long
// /v1/panels/stream responses mid-stream.
const idleTimeout = 2 * time.Minute

// serve runs the front door until SIGTERM/SIGINT, then drains: intake
// flips to 503, in-flight requests and accepted panels finish, and the
// process exits cleanly — the rollout dance a load-balanced deployment
// expects. Health probes sweep the fleet every second while it serves,
// so a shard the diagnoser quarantined is restored once it heals.
func serve(addr string, targets []string, shards, workers, depth int, seed uint64, router string) error {
	p, fleet, srv, err := buildServer(targets, shards, workers, depth, seed, router)
	if err != nil {
		return err
	}
	stopProbes := fleet.StartHealthProbes(time.Second)
	fmt.Printf("labserve: %d shards × %d workers over %v (queue depth %d, %s router)\n",
		shards, workers, p.Targets(), depth, router)
	fmt.Printf("labserve: listening on %s\n", addr)

	httpSrv := &http.Server{Addr: addr, Handler: srv, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: idleTimeout}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sigc
		fmt.Println("labserve: signal received, draining")
		srv.Drain() // refuse new work, wait for accepted panels
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		stopProbes()
		srv.Close() //nolint:errcheck // the listen error is the one to report
		return err
	}
	<-drained
	stopProbes()
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Println("labserve: drained, bye")
	return nil
}

// smokeCohort builds the deterministic patient batch the smoke
// submits: uniform spreads around physiologic baselines, seeded by
// index so the local Lab reference sees byte-identical inputs.
func smokeCohort(targets []string, n int) []advdiag.Sample {
	out := make([]advdiag.Sample, n)
	for i := range out {
		concs := make(map[string]float64, len(targets))
		for j, t := range targets {
			base := baselineMM[t]
			if base == 0 {
				base = 1
			}
			concs[t] = base * (0.5 + 0.1*float64((i+j)%13))
		}
		out[i] = advdiag.Sample{ID: fmt.Sprintf("patient-%03d", i+1), Concentrations: concs}
	}
	return out
}

// serveLoopback serves srv on an ephemeral loopback port and returns a
// client for it, the smoke's five-minute context, and a stop function
// that cancels the context and closes the listener. It fails unless
// healthz answers 200.
func serveLoopback(srv *advdiag.Server) (*advdiag.Client, context.Context, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln) //nolint:errcheck // torn down by stop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	stop := func() {
		cancel()
		httpSrv.Close() //nolint:errcheck // best-effort teardown
	}
	client := advdiag.NewClient("http://" + ln.Addr().String())
	if err := client.Health(ctx); err != nil {
		stop()
		return nil, nil, nil, fmt.Errorf("healthz: %w", err)
	}
	return client, ctx, stop, nil
}

// runSmoke is the CI end-to-end: start a real HTTP server on a
// loopback port, submit a batch through the client, and require every
// returned PanelResult fingerprint to be byte-identical to the same
// samples run on a local Lab over the same platform. It also checks
// that /v1/stats accounted for the batch.
func runSmoke(w *os.File, targets []string, patients, shards, workers int, seed uint64) error {
	p, _, srv, err := buildServer(targets, shards, workers, 2*patients, seed, "leastloaded")
	if err != nil {
		return err
	}
	defer srv.Close() //nolint:errcheck // second close after success path is the fleet sentinel

	client, ctx, stop, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()

	samples := smokeCohort(targets, patients)
	remote, err := client.RunPanels(ctx, samples)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}

	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(workers))
	if err != nil {
		return err
	}
	local := lab.RunPanels(samples)

	mismatches := 0
	for i := range samples {
		if remote[i].Err != nil {
			return fmt.Errorf("remote sample %d (%s): %w", i, samples[i].ID, remote[i].Err)
		}
		if local[i].Err != nil {
			return fmt.Errorf("local sample %d (%s): %w", i, samples[i].ID, local[i].Err)
		}
		rf, lf := remote[i].Result.Fingerprint(), local[i].Result.Fingerprint()
		if rf != lf {
			mismatches++
			fmt.Fprintf(w, "MISMATCH %s: remote %016x != local %016x\n", samples[i].ID, rf, lf)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d of %d fingerprints differ between HTTP client and local Lab", mismatches, len(samples))
	}

	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Submitted != uint64(len(samples)) || st.Completed != uint64(len(samples)) {
		return fmt.Errorf("stats did not account for the batch: %+v", st)
	}
	fmt.Fprintf(w, "labserve smoke: %d/%d fingerprints byte-identical over HTTP (%d shards × %d workers, %v)\n",
		len(samples), len(samples), shards, workers, p.Targets())
	return nil
}

// runDiagSmoke is the fault-injection CI end-to-end: a real loopback
// server fronts a fleet whose shard 0 is dead on arrival, a patient
// batch goes in through the client, and /v1/diagnosis — polled the way
// an operator dashboard would — must convict the stall on shard 0,
// quarantine it, and fail its backlog over to the survivors. The smoke
// then requires the batch to complete with every fingerprint
// byte-identical to a local Lab (quarantine loses no panels and moves
// no noise streams) and healthz to stay 200 throughout: a diagnosed
// fleet is degraded, not down.
func runDiagSmoke(w *os.File, targets []string, patients, shards, workers int, seed uint64) error {
	if shards < 2 {
		return fmt.Errorf("diag-smoke needs at least 2 shards (one to kill, one to survive), got %d", shards)
	}
	p, fleet, srv, err := buildServer(targets, shards, workers, 2*patients, seed, "leastloaded")
	if err != nil {
		return err
	}
	defer srv.Close() //nolint:errcheck // second close after success path is the fleet sentinel
	if err := fleet.InjectFault(advdiag.Fault{Kind: advdiag.FaultDeadShard, Shard: 0}); err != nil {
		return fmt.Errorf("inject: %w", err)
	}

	client, ctx, stop, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()

	samples := smokeCohort(targets, patients)
	type batchResult struct {
		outs []advdiag.PanelOutcome
		err  error
	}
	done := make(chan batchResult, 1)
	go func() {
		outs, err := client.RunPanels(ctx, samples)
		done <- batchResult{outs, err}
	}()

	var conviction advdiag.Finding
poll:
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("diagnosis never convicted the dead shard: %w", ctx.Err())
		default:
		}
		d, err := client.Diagnosis(ctx)
		if err != nil {
			return fmt.Errorf("diagnosis: %w", err)
		}
		for _, f := range d.Findings {
			if f.Class == advdiag.ClassShardStall {
				conviction = f
				break poll
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if conviction.Shard != 0 {
		return fmt.Errorf("stall convicted shard %d, fault was injected on shard 0 (%s)", conviction.Shard, conviction.Evidence)
	}
	if !conviction.Quarantined {
		return fmt.Errorf("convicted shard 0 was not quarantined: %+v", conviction)
	}

	res := <-done
	if res.err != nil {
		return fmt.Errorf("batch across the failover: %w", res.err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(workers))
	if err != nil {
		return err
	}
	local := lab.RunPanels(samples)
	for i := range samples {
		if res.outs[i].Err != nil {
			return fmt.Errorf("sample %d (%s) lost to the dead shard: %w", i, samples[i].ID, res.outs[i].Err)
		}
		if res.outs[i].Shard == 0 {
			return fmt.Errorf("sample %d (%s) reportedly ran on the dead shard", i, samples[i].ID)
		}
		if local[i].Err != nil {
			return fmt.Errorf("local sample %d (%s): %w", i, samples[i].ID, local[i].Err)
		}
		rf, lf := res.outs[i].Result.Fingerprint(), local[i].Result.Fingerprint()
		if rf != lf {
			return fmt.Errorf("sample %s: fingerprint %016x after failover != local %016x — quarantine moved a noise stream", samples[i].ID, rf, lf)
		}
	}
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("healthz with a quarantined shard: %w", err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if len(st.Shards) != shards || !st.Shards[0].Quarantined {
		return fmt.Errorf("stats do not flag the quarantine: %+v", st.Shards)
	}
	fmt.Fprintf(w, "labserve diag-smoke: shard 0 killed, convicted (%s, severity %.2f), quarantined; %d/%d fingerprints byte-identical after failover; healthz stayed 200\n",
		conviction.Class, conviction.Severity, len(samples), len(samples))
	return nil
}

// runElasticSmoke is the self-healing CI end-to-end: a real loopback
// server fronts a three-shard fleet, a patient batch goes in through
// the client, and while it is in flight
//
//  1. shard 1 turns flaky (seeded intermittent failure) — health
//     probes open its breaker and quarantine it, no operator call;
//  2. a healthy shard is removed and a fresh one added over HTTP
//     (DELETE/POST /v1/shards), live;
//  3. the fault clears and probe sweeps restore shard 1
//     automatically.
//
// The smoke then requires zero lost panels, a second batch to complete
// on the new topology, every fingerprint from both batches to match a
// ReplayPanel recomputation (the replay-checkable determinism contract
// — results are a function of submission index, never topology), the
// diagnosis history to narrate the whole lifecycle, and healthz to
// stay 200 throughout.
func runElasticSmoke(w *os.File, targets []string, patients, shards, workers int, seed uint64) error {
	if shards < 3 {
		return fmt.Errorf("elastic-smoke needs at least 3 shards (one flaky, one removed, one surviving), got %d", shards)
	}
	_, fleet, srv, err := buildServer(targets, shards, workers, 2*patients, seed, "leastloaded")
	if err != nil {
		return err
	}
	defer srv.Close() //nolint:errcheck // second close after success path is the fleet sentinel

	client, ctx, stop, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()

	// Shard 1 turns flaky: 4 of every 5 slots stall the job.
	if err := fleet.InjectFault(advdiag.Fault{Kind: advdiag.FaultFlakyShard, Shard: 1, Severity: 0.8, Period: 5, Seed: seed}); err != nil {
		return fmt.Errorf("inject: %w", err)
	}

	samples := smokeCohort(targets, patients)
	type batchResult struct {
		outs []advdiag.PanelOutcome
		err  error
	}
	done := make(chan batchResult, 1)
	go func() {
		outs, err := client.RunPanels(ctx, samples)
		done <- batchResult{outs, err}
	}()

	// Probe sweeps stand in for StartHealthProbes so the smoke steps
	// deterministically; each sweep advances every breaker once.
	quarantined := func() bool {
		for _, q := range fleet.Quarantined() {
			if q == 1 {
				return true
			}
		}
		return false
	}
	for !quarantined() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("probes never opened the flaky shard's breaker: %w", ctx.Err())
		default:
		}
		fleet.ProbeShards()
		time.Sleep(2 * time.Millisecond)
	}

	// Live topology change over HTTP: retire a healthy shard, grow a
	// fresh one. The server designs the new platform with the fleet's
	// seed, so it is bit-identical to its siblings.
	if err := client.RemoveShard(ctx, 2); err != nil {
		return fmt.Errorf("remove shard 2: %w", err)
	}
	added, err := client.AddShard(ctx, targets)
	if err != nil {
		return fmt.Errorf("add shard: %w", err)
	}
	if added != shards {
		return fmt.Errorf("new shard took index %d, want %d (indices are never reused)", added, shards)
	}

	// The fault clears; probe sweeps must restore shard 1 on their own.
	fleet.ClearFaults()
	for quarantined() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("probes never restored the healed shard: %w", ctx.Err())
		default:
		}
		fleet.ProbeShards()
		time.Sleep(2 * time.Millisecond)
	}

	res := <-done
	if res.err != nil {
		return fmt.Errorf("batch across the lifecycle: %w", res.err)
	}
	replayCheck := func(outs []advdiag.PanelOutcome, samples []advdiag.Sample) error {
		for i := range outs {
			if outs[i].Err != nil {
				return fmt.Errorf("sample %d (%s) lost: %w", i, samples[i].ID, outs[i].Err)
			}
			// Replay on shard 0 — NOT necessarily the shard that ran it —
			// and on the runtime-added shard: topology independence.
			for _, replayOn := range []int{0, added} {
				ref, err := fleet.ReplayPanel(replayOn, outs[i].Index, samples[i])
				if err != nil {
					return fmt.Errorf("replay %s on shard %d: %w", samples[i].ID, replayOn, err)
				}
				if rf, lf := outs[i].Result.Fingerprint(), ref.Fingerprint(); rf != lf {
					return fmt.Errorf("sample %s ran on shard %d with fingerprint %016x, replay on shard %d gives %016x", samples[i].ID, outs[i].Shard, rf, replayOn, lf)
				}
			}
		}
		return nil
	}
	if err := replayCheck(res.outs, samples); err != nil {
		return err
	}

	// A second batch proves the reshaped fleet serves: restored shard 1
	// and new shard 3 are routable, removed shard 2 is not.
	again := smokeCohort(targets, patients)
	outs2, err := client.RunPanels(ctx, again)
	if err != nil {
		return fmt.Errorf("batch on the new topology: %w", err)
	}
	if err := replayCheck(outs2, again); err != nil {
		return err
	}
	for i := range outs2 {
		if outs2[i].Shard == 2 {
			return fmt.Errorf("sample %d (%s) reportedly ran on removed shard 2", i, again[i].ID)
		}
	}

	// The diagnosis history must narrate the lifecycle.
	d, err := client.Diagnosis(ctx)
	if err != nil {
		return fmt.Errorf("diagnosis: %w", err)
	}
	kinds := map[string]bool{}
	for _, e := range d.History {
		kinds[e.Kind] = true
	}
	for _, want := range []string{advdiag.EventQuarantined, advdiag.EventShardRemoved, advdiag.EventShardAdded, advdiag.EventRestored} {
		if !kinds[want] {
			return fmt.Errorf("diagnosis history is missing a %q event: %v", want, kinds)
		}
	}

	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("healthz after the lifecycle: %w", err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if len(st.Shards) != shards+1 {
		return fmt.Errorf("stats report %d shards, want %d (removed shards keep their slot)", len(st.Shards), shards+1)
	}
	if !st.Shards[2].Removed {
		return fmt.Errorf("stats do not flag shard 2 as removed: %+v", st.Shards[2])
	}
	if st.Shards[1].Quarantined || st.Shards[1].Restores == 0 {
		return fmt.Errorf("stats do not show shard 1 restored: %+v", st.Shards[1])
	}
	fmt.Fprintf(w, "labserve elastic-smoke: breaker opened on flaky shard 1, shard 2 removed and shard %d added live, shard 1 auto-restored after %d restores; %d panels, zero lost, all replay-verified\n",
		added, st.Shards[1].Restores, len(samples)+len(again))
	return nil
}

// monitorSmokeCohort spreads n deterministic campaigns over the
// platform's monitorable (oxidase-served) targets, cycling through
// every campaign shape the scheduler serves: plain drift tracking,
// scheduled recalibration, polymer films, drift-triggered
// recalibration and injection experiments. Short traces keep the smoke
// fast; the virtual timeline is what it exercises.
func monitorSmokeCohort(monitorable []string, n int) ([]advdiag.MonitorCampaign, error) {
	if len(monitorable) == 0 {
		return nil, fmt.Errorf("the platform has no chronoamperometric electrode — monitoring needs an oxidase target")
	}
	out := make([]advdiag.MonitorCampaign, n)
	for i := range out {
		tgt := monitorable[i%len(monitorable)]
		base := baselineMM[tgt]
		if base == 0 {
			base = 1
		}
		c := advdiag.MonitorCampaign{
			ID:              fmt.Sprintf("cohort-%03d", i),
			Target:          tgt,
			SampleMM:        base * (0.8 + 0.1*float64(i%5)),
			DurationHours:   60 + 20*float64(i%3),
			IntervalHours:   20,
			TraceSeconds:    6,
			BaselineSeconds: 2,
		}
		switch i % 5 {
		case 1:
			c.RecalEveryHours = 40
		case 2:
			c.Polymer = true
		case 3:
			c.RecalOnDrift = true
			c.DriftThresholdPct = 5
			c.DriftWindow = 2
		case 4:
			c.Injections = []advdiag.InjectionEvent{{AtSeconds: 3, DeltaMM: base / 2}}
		}
		out[i] = c
	}
	return out, nil
}

// runMonitorSmoke is the longitudinal-monitoring CI end-to-end: a
// scheduler drives the cohort through the HTTP backend of a real
// loopback server, a second scheduler drives the same cohort over a
// fresh in-process fleet on the same platform, and the two cohort
// fingerprints must match bit for bit. The reference runs on a fleet
// of its own, so the comparison pits the whole HTTP path against an
// untouched in-process baseline.
func runMonitorSmoke(w *os.File, targets []string, campaigns, shards, workers int, seed uint64) error {
	p, _, srv, err := buildServer(targets, shards, workers, 2*campaigns, seed, "leastloaded")
	if err != nil {
		return err
	}
	cohort, err := monitorSmokeCohort(p.MonitorTargets(), campaigns)
	if err != nil {
		srv.Close() //nolint:errcheck // build-time bailout
		return err
	}
	defer srv.Close() //nolint:errcheck // second close after success path is the fleet sentinel

	client, ctx, stop, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()

	ms, err := advdiag.NewMonitorScheduler(client.MonitorBackend(ctx), advdiag.WithSchedulerSeed(seed))
	if err != nil {
		return err
	}
	srv.AttachScheduler(ms)
	for _, c := range cohort {
		if err := ms.Add(c); err != nil {
			return fmt.Errorf("campaign %s: %w", c.ID, err)
		}
	}
	remote, err := ms.Run()
	if err != nil {
		return fmt.Errorf("HTTP cohort: %w", err)
	}
	for _, c := range remote.Campaigns {
		if c.Err != nil {
			return fmt.Errorf("campaign %s over HTTP: %w", c.ID, c.Err)
		}
	}

	fleet, err := advdiag.NewFleet([]*advdiag.Platform{p})
	if err != nil {
		return err
	}
	defer fleet.Close() //nolint:errcheck // reference fleet, drained by Run
	ref, err := advdiag.NewMonitorScheduler(fleet, advdiag.WithSchedulerSeed(seed))
	if err != nil {
		return err
	}
	for _, c := range cohort {
		if err := ref.Add(c); err != nil {
			return err
		}
	}
	local, err := ref.Run()
	if err != nil {
		return fmt.Errorf("in-process cohort: %w", err)
	}

	rf, lf := remote.Fingerprint(), local.Fingerprint()
	if rf != lf {
		return fmt.Errorf("cohort fingerprint over HTTP %016x != in-process %016x", rf, lf)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.MonitorsSubmitted == 0 || st.MonitorsCompleted != st.MonitorsSubmitted {
		return fmt.Errorf("stats did not account for the monitor ticks: %+v", st.FleetStats)
	}
	if st.Scheduler == nil || st.Scheduler.Finished != len(cohort) {
		return fmt.Errorf("stats did not carry the scheduler snapshot: %+v", st.Scheduler)
	}
	fmt.Fprintf(w, "labserve monitor-smoke: %d campaigns, %d ticks, cohort fingerprint %016x byte-identical over HTTP (%d shards × %d workers)\n",
		len(cohort), st.Scheduler.TicksCompleted, rf, shards, workers)
	return nil
}
