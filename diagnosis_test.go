package advdiag_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"advdiag"
)

// newDiagServer stands up a fleet over n shards of the shared test
// platform behind an advdiag.Server and an httptest front end,
// returning the pieces the diagnosis scenarios need (including the
// base URL, which the malformed-wire client targets directly). The
// faults are armed before the server takes any traffic.
func newDiagServer(t *testing.T, shards int, fopts []advdiag.FleetOption, faults ...advdiag.Fault) (*advdiag.Server, *advdiag.Client, string) {
	t.Helper()
	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	plats := make([]*advdiag.Platform, shards)
	for i := range plats {
		plats[i] = p
	}
	fleet, err := advdiag.NewFleet(plats, fopts...)
	if err != nil {
		t.Fatal(err)
	}
	injectFaults(t, fleet, faults...)
	srv, err := advdiag.NewServer(fleet)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil && !errors.Is(err, advdiag.ErrFleetClosed) {
			t.Errorf("server close: %v", err)
		}
	})
	return srv, advdiag.NewClient(ts.URL, advdiag.WithHTTPClient(ts.Client())), ts.URL
}

// glucoseCohort builds n identical glucose samples — a fixed-
// concentration QC stream, the cross-shard comparison the fouling
// detector feeds on.
func glucoseCohort(n int) []advdiag.Sample {
	out := make([]advdiag.Sample, n)
	for i := range out {
		out[i] = advdiag.Sample{ID: fmt.Sprintf("qc-%03d", i), Concentrations: map[string]float64{"glucose": 1.0}}
	}
	return out
}

// findByClass returns the first finding of the class, if any.
func findByClass(d advdiag.Diagnosis, class string) (advdiag.Finding, bool) {
	for _, f := range d.Findings {
		if f.Class == class {
			return f, true
		}
	}
	return advdiag.Finding{}, false
}

// TestDiagnosisHealthyFleet: a fault-free fleet under ordinary mixed
// traffic must diagnose healthy — no findings, nothing quarantined —
// however often the endpoint is polled.
func TestDiagnosisHealthyFleet(t *testing.T) {
	_, client, _ := newDiagServer(t, 2,
		[]advdiag.FleetOption{advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(32)})
	ctx := context.Background()

	if _, err := client.RunPanels(ctx, mixedCohort(24)); err != nil {
		t.Fatal(err)
	}
	var d advdiag.Diagnosis
	for i := 0; i < 3; i++ {
		var err error
		if d, err = client.Diagnosis(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if d.Status != advdiag.StatusHealthy || len(d.Findings) != 0 {
		t.Fatalf("healthy fleet diagnosed %q with findings %+v", d.Status, d.Findings)
	}
	if d.Snapshots != 3 {
		t.Fatalf("3 polls recorded %d snapshots", d.Snapshots)
	}
	if len(d.QuarantinedShards) != 0 {
		t.Fatalf("healthy fleet quarantined %v", d.QuarantinedShards)
	}
}

// TestDiagnosisFouledElectrode is the sensor-level scenario: one shard
// of two runs with a fouled glucose electrode (injected before any
// traffic), a fixed-concentration QC cohort flows through the
// wire, and GET /v1/diagnosis must convict exactly that shard for
// exactly that target — and quarantine it.
func TestDiagnosisFouledElectrode(t *testing.T) {
	const sick = 1
	_, client, _ := newDiagServer(t, 2,
		[]advdiag.FleetOption{advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(64)},
		advdiag.Fault{Kind: advdiag.FaultFouledElectrode, Shard: sick, Target: "glucose", Severity: 0.5, Seed: 7})
	ctx := context.Background()

	outs, err := client.RunPanels(ctx, glucoseCohort(64))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("sample %d: %v", i, o.Err)
		}
	}
	d, err := client.Diagnosis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != advdiag.StatusDegraded {
		t.Fatalf("fouled fleet diagnosed %q: %+v", d.Status, d)
	}
	f, ok := findByClass(d, advdiag.ClassSensorFouling)
	if !ok {
		t.Fatalf("no sensor_fouling finding: %+v", d.Findings)
	}
	if f.Shard != sick || f.Target != "glucose" {
		t.Fatalf("fouling attributed to shard %d target %q, injected on shard %d target glucose (%s)",
			f.Shard, f.Target, sick, f.Evidence)
	}
	if f.Severity <= 0 || f.Severity > 1 {
		t.Fatalf("fouling severity %g outside (0,1]", f.Severity)
	}
	if !f.Quarantined {
		t.Fatalf("convicted shard not quarantined: %+v", f)
	}
	if len(d.QuarantinedShards) != 1 || d.QuarantinedShards[0] != sick {
		t.Fatalf("quarantine set %v, want [%d]", d.QuarantinedShards, sick)
	}
	// Exactly one shard convicted: the healthy sibling must not be
	// dragged into the disagreement.
	for _, g := range d.Findings {
		if g.Class == advdiag.ClassSensorFouling && g.Shard != sick {
			t.Fatalf("healthy shard %d convicted of fouling: %s", g.Shard, g.Evidence)
		}
	}
	// The fleet keeps serving on the surviving shard, and healthz stays
	// up — quarantine degrades capacity, not availability.
	after, err := client.RunPanels(ctx, glucoseCohort(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range after {
		if o.Err != nil {
			t.Fatalf("post-quarantine sample %d: %v", i, o.Err)
		}
		if o.Shard == sick {
			t.Fatalf("post-quarantine sample %d routed to quarantined shard %d", i, sick)
		}
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz after quarantine: %v", err)
	}
}

// TestDiagnosisDeadShardStall is the liveness scenario and the
// zero-loss acceptance check: shard 0 of two is dead (workers park
// their jobs), a batch lands on both shards, and polling
// /v1/diagnosis must (a) classify the stall on shard 0, (b)
// quarantine it, (c) reroute its backlog to shard 1 so the batch
// completes with every panel fingerprint byte-identical to a local
// Lab run — no panel lost, no noise stream moved.
func TestDiagnosisDeadShardStall(t *testing.T) {
	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := advdiag.NewFleet([]*advdiag.Platform{p, p},
		advdiag.WithFleetWorkers(1),
		advdiag.WithFleetQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	injectFaults(t, fleet, advdiag.Fault{Kind: advdiag.FaultDeadShard, Shard: 0})
	srv, err := advdiag.NewServer(fleet)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil && !errors.Is(err, advdiag.ErrFleetClosed) {
			t.Errorf("server close: %v", err)
		}
	})
	client := advdiag.NewClient(ts.URL, advdiag.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	samples := mixedCohort(10)
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
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("diagnosis never convicted the dead shard")
		}
		d, err := client.Diagnosis(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := findByClass(d, advdiag.ClassShardStall); ok {
			conviction = f
			break
		}
		time.Sleep(30 * time.Millisecond)
	}
	if conviction.Shard != 0 {
		t.Fatalf("stall attributed to shard %d, injected on shard 0 (%s)", conviction.Shard, conviction.Evidence)
	}
	if !conviction.Quarantined {
		t.Fatalf("stalled shard not quarantined: %+v", conviction)
	}

	// The quarantine reroutes shard 0's backlog; the batch must now
	// complete — in order, error-free, and fingerprint-identical to a
	// local Lab run of the same slice. Rerouted panels keep their fleet
	// submission index, so determinism survives the failover.
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	local := localFingerprints(t, samples)
	for i, o := range res.outs {
		if o.Err != nil {
			t.Fatalf("sample %d lost to the dead shard: %v", i, o.Err)
		}
		if o.Index != i {
			t.Fatalf("sample %d: submission index %d (order broken by reroute)", i, o.Index)
		}
		if o.Shard != 1 {
			t.Fatalf("sample %d ran on shard %d; everything must have failed over to shard 1", i, o.Shard)
		}
		if got := o.Result.Fingerprint(); got != local[i] {
			t.Fatalf("sample %d: fingerprint %x != local %x (reroute changed the noise stream)", i, got, local[i])
		}
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz with a quarantined shard: %v", err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Shards[0].Quarantined || st.Shards[1].Quarantined {
		t.Fatalf("stats quarantine flags wrong: %+v", st.Shards)
	}
}

// TestDiagnosisQueueSaturation is the capacity scenario: a one-shard,
// depth-1 fleet is hammered with concurrent singles until the server
// sheds load with 429, and the diagnosis must name queue saturation —
// fleet-wide, nothing quarantined (shedding is backpressure working,
// not a shard misbehaving).
func TestDiagnosisQueueSaturation(t *testing.T) {
	// A slow-shard fault keeps the single worker busy long enough that
	// the burst deterministically overruns the depth-1 queue — without
	// it a warm panel can drain faster than concurrent submissions
	// arrive and the test would race the worker.
	srv, client, _ := newDiagServer(t, 1,
		[]advdiag.FleetOption{advdiag.WithFleetWorkers(1), advdiag.WithFleetQueueDepth(1)},
		advdiag.Fault{Kind: advdiag.FaultSlowShard, Shard: 0, Delay: 20 * time.Millisecond})
	ctx := context.Background()

	if _, err := client.Diagnosis(ctx); err != nil { // baseline snapshot
		t.Fatal(err)
	}
	sample := advdiag.Sample{ID: "surge", Concentrations: map[string]float64{"glucose": 1.0}}
	for round := 0; round < 10 && srv.Stats().Rejected == 0; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 12; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Saturation surfaces as ErrFleetSaturated; successes and
				// shed samples are both fine — the counter is the record.
				client.RunPanel(ctx, sample) //nolint:errcheck
			}()
		}
		wg.Wait()
	}
	if srv.Stats().Rejected == 0 {
		t.Fatal("never saturated a depth-1 queue with 12-way concurrent singles")
	}
	d, err := client.Diagnosis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := findByClass(d, advdiag.ClassQueueSaturation)
	if !ok {
		t.Fatalf("no queue_saturation finding after shedding load: %+v", d.Findings)
	}
	if f.Shard != -1 {
		t.Fatalf("saturation pinned on shard %d; it is a fleet-wide condition", f.Shard)
	}
	if len(d.QuarantinedShards) != 0 {
		t.Fatalf("saturation must not quarantine anything, got %v", d.QuarantinedShards)
	}
}

// TestDiagnosisMalformedClient is the wire-boundary scenario: a
// deliberately broken client throws corrupt payloads at the server;
// every one must be refused with 400 before reaching the fleet, and
// the diagnosis must report the wire-error burst without convicting
// any shard.
func TestDiagnosisMalformedClient(t *testing.T) {
	srv, client, baseURL := newDiagServer(t, 1, nil)
	ctx := context.Background()

	if _, err := client.Diagnosis(ctx); err != nil { // baseline snapshot
		t.Fatal(err)
	}
	mc := advdiag.MalformedClient{BaseURL: baseURL, Seed: 3}
	refused, err := mc.Send(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if refused != 8 {
		t.Fatalf("server refused %d/8 corrupt payloads; the wire layer must reject all of them", refused)
	}
	d, err := client.Diagnosis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := findByClass(d, advdiag.ClassWireErrors)
	if !ok {
		t.Fatalf("no wire_errors finding after 8 refusals: %+v", d.Findings)
	}
	if f.Shard != -1 {
		t.Fatalf("wire errors pinned on shard %d; they never reached any shard", f.Shard)
	}
	if st := srv.Stats(); st.Submitted != 0 {
		t.Fatalf("%d corrupt payloads entered the fleet", st.Submitted)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz under malformed traffic: %v", err)
	}
}

// TestDiagnosisDrain: a draining server reports itself — the drain
// class marks intake refusal as an explained state, not a mystery.
func TestDiagnosisDrain(t *testing.T) {
	srv, client, _ := newDiagServer(t, 1, nil)
	ctx := context.Background()

	if _, err := client.RunPanels(ctx, glucoseCohort(2)); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	d, err := client.Diagnosis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findByClass(d, advdiag.ClassDrain); !ok {
		t.Fatalf("draining server not reported: %+v", d.Findings)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("stats do not report draining")
	}
}

// TestFleetQuarantineAllShards: quarantine is allowed to empty the
// routing view entirely; submissions then fail fast with ErrNoShard
// instead of blocking, stats flag every shard, and a quarantined fleet
// still closes cleanly.
func TestFleetQuarantineAllShards(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2), advdiag.WithFleetWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Quarantine(2); err == nil {
		t.Fatal("out-of-range quarantine accepted")
	}
	if err := fleet.Quarantine(0); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Quarantine(0); err != nil {
		t.Fatalf("re-quarantine must be idempotent: %v", err)
	}
	if err := fleet.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	if got := fleet.Quarantined(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("quarantine set %v, want [0 1]", got)
	}
	s := advdiag.Sample{ID: "orphan", Concentrations: map[string]float64{"glucose": 1.0}}
	if err := fleet.Submit(s); !errors.Is(err, advdiag.ErrNoShard) {
		t.Fatalf("Submit with every shard quarantined: %v, want ErrNoShard", err)
	}
	if err := fleet.TrySubmit(s); !errors.Is(err, advdiag.ErrNoShard) {
		t.Fatalf("TrySubmit with every shard quarantined: %v, want ErrNoShard", err)
	}
	st := fleet.Stats()
	for i, sh := range st.Shards {
		if !sh.Quarantined {
			t.Fatalf("shard %d not flagged quarantined in %+v", i, st.Shards)
		}
	}
	if st.RouteErrors != 2 {
		t.Fatalf("2 unroutable submissions counted as %d route errors", st.RouteErrors)
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetClearFaultsReleasesParked: work held hostage by a dead
// shard survives the fault being cleared — the parked workers wake,
// run their backlog in place with healthy electrodes, and every
// fingerprint matches a local Lab run.
func TestFleetClearFaultsReleasesParked(t *testing.T) {
	samples := mixedCohort(12)
	lab, err := advdiag.NewLab(fleetPlatforms(t, 1)[0], advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprints(t, lab.RunPanels(samples))

	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2),
		advdiag.WithFleetWorkers(1),
		advdiag.WithFleetQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	injectFaults(t, fleet, advdiag.Fault{Kind: advdiag.FaultDeadShard, Shard: 0})
	got := make([]uint64, len(samples))
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := 0; i < len(samples); i++ {
			o := <-fleet.Results()
			if o.Err != nil {
				t.Errorf("sample %d: %v", o.Index, o.Err)
				continue
			}
			got[o.Index] = o.Result.Fingerprint()
		}
	}()
	for _, s := range samples {
		if err := fleet.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0 is now holding at least its first routed sample hostage
	// (least-loaded ties break to the lowest index). Lift the fault:
	// the parked worker must run its backlog in place.
	fleet.ClearFaults()
	<-collected
	fleet.Drain()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: fingerprint %016x after fault lift, want %016x", i, got[i], want[i])
		}
	}
	if st := fleet.Stats(); st.Completed != uint64(len(samples)) {
		t.Fatalf("completed %d of %d after fault lift", st.Completed, len(samples))
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetStatsMidDrain: Stats must be callable concurrently with
// Drain and never report more completions than submissions.
func TestFleetStatsMidDrain(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2),
		advdiag.WithFleetWorkers(1), advdiag.WithFleetQueueDepth(32))
	if err != nil {
		t.Fatal(err)
	}
	samples := mixedCohort(24)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := 0; i < len(samples); i++ {
			<-fleet.Results()
		}
	}()
	for _, s := range samples {
		if err := fleet.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := fleet.Stats()
			if st.Completed > st.Submitted {
				t.Errorf("mid-drain snapshot: completed %d > submitted %d", st.Completed, st.Submitted)
				return
			}
		}
	}()
	fleet.Drain()
	close(stop)
	<-snapped
	<-collected
	if st := fleet.Stats(); st.Submitted != 24 || st.Completed != 24 {
		t.Fatalf("post-drain stats: %+v", st)
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiagnoserEdgeCases: the diagnoser must stay sane on degenerate
// input — no shards in the snapshots, no traffic.
func TestDiagnoserEdgeCases(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close() //nolint:errcheck // nothing submitted
	d := advdiag.NewDiagnoser(fleet)
	if got := d.Diagnose(); got.Status != advdiag.StatusHealthy || got.Snapshots != 0 || len(got.QuarantinedShards) != 0 {
		t.Fatalf("virgin diagnoser: %+v", got)
	}
	d.Observe(advdiag.ServerStats{}) // zero-shard snapshot
	d.Observe(advdiag.ServerStats{})
	got := d.Diagnose()
	if got.Status != advdiag.StatusHealthy || len(got.Findings) != 0 || got.Snapshots != 2 {
		t.Fatalf("zero-shard snapshots produced %+v", got)
	}

	// Drain is a fleet-wide finding: classified, nothing quarantined.
	d2 := advdiag.NewDiagnoser(fleet)
	d2.Observe(advdiag.ServerStats{FleetStats: advdiag.FleetStats{}, Draining: true})
	got2 := d2.Diagnose()
	f, ok := findByClass(got2, advdiag.ClassDrain)
	if !ok || f.Quarantined || len(got2.QuarantinedShards) != 0 {
		t.Fatalf("drain classification: %+v", got2)
	}
}

// TestDiagnosisRestoreResetsEstimates closes the convicted-then-
// cleared loop at the diagnoser level: a fouling conviction
// quarantines a shard; after the fault is cleared, health probes
// restore it with no manual un-quarantine; and because restore wipes
// the shard's estimate history, fresh healthy traffic must NOT be
// re-convicted off the stale fouled recovery ratios.
func TestDiagnosisRestoreResetsEstimates(t *testing.T) {
	const sick = 1
	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := advdiag.NewFleet([]*advdiag.Platform{p, p},
		advdiag.WithFleetWorkers(2),
		advdiag.WithFleetQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	injectFaults(t, fleet,
		advdiag.Fault{Kind: advdiag.FaultFouledElectrode, Shard: sick, Target: "glucose", Severity: 0.5, Seed: 7})
	// An attached scheduler makes the conviction also flag a forced
	// recalibration — the restore below must clear that once-only
	// latch along with the estimates.
	ms, err := advdiag.NewMonitorScheduler(fleet, advdiag.WithSchedulerSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Add(advdiag.MonitorCampaign{
		ID: "reset-000", Target: "glucose", SampleMM: 2,
		DurationHours: 60, IntervalHours: 20, TraceSeconds: 6, BaselineSeconds: 2,
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := advdiag.NewServer(fleet)
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachScheduler(ms)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil && !errors.Is(err, advdiag.ErrFleetClosed) {
			t.Errorf("server close: %v", err)
		}
	})
	client := advdiag.NewClient(ts.URL, advdiag.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	if _, err := client.RunPanels(ctx, glucoseCohort(64)); err != nil {
		t.Fatal(err)
	}
	d, err := client.Diagnosis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := findByClass(d, advdiag.ClassSensorFouling); !ok || f.Shard != sick || !f.Quarantined {
		t.Fatalf("setup never convicted the fouled shard: %+v", d.Findings)
	}
	if got := ms.Stats().ForcedRecals; got != 1 {
		t.Fatalf("ForcedRecals after conviction = %d, want 1", got)
	}
	// One more poll while the shard is still out: the diagnoser must
	// snapshot the quarantined state, or the restore transition below
	// is invisible to it and the estimate wipe never fires.
	if _, err := client.Diagnosis(ctx); err != nil {
		t.Fatal(err)
	}

	// Heal the electrode; probes must bring the shard back on their own.
	fleet.ClearFaults()
	probeUntil(t, fleet, "restore of the healed shard", func() bool { return !isQuarantined(fleet, sick) })

	// Fresh healthy QC traffic over both shards. Without the estimate
	// reset on restore, the sick shard's old fouled ratios would
	// re-convict it here.
	outs, err := client.RunPanels(ctx, glucoseCohort(64))
	if err != nil {
		t.Fatal(err)
	}
	backOn := false
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("post-restore sample %d: %v", i, o.Err)
		}
		if o.Shard == sick {
			backOn = true
		}
	}
	if !backOn {
		t.Fatal("restored shard served none of the healthy cohort")
	}
	for i := 0; i < 3; i++ {
		if d, err = client.Diagnosis(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if f, ok := findByClass(d, advdiag.ClassSensorFouling); ok {
		t.Fatalf("healed shard re-convicted from stale estimates: %+v", f)
	}
	if len(d.QuarantinedShards) != 0 {
		t.Fatalf("quarantine set %v after restore", d.QuarantinedShards)
	}
	// The diagnosis history narrates the whole episode over the wire.
	kinds := map[string]int{}
	for _, e := range d.History {
		kinds[e.Kind]++
	}
	if kinds[advdiag.EventQuarantined] == 0 || kinds[advdiag.EventRestored] == 0 {
		t.Fatalf("history missing the quarantine/restore episode: %v", kinds)
	}
}
