package advdiag_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"advdiag"
)

func TestFaultKindString(t *testing.T) {
	cases := map[advdiag.FaultKind]string{
		advdiag.FaultFouledElectrode: "fouled_electrode",
		advdiag.FaultDeadShard:       "dead_shard",
		advdiag.FaultSlowShard:       "slow_shard",
		advdiag.FaultKind(99):        "FaultKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestFaultValidate(t *testing.T) {
	bad := []advdiag.Fault{
		{Kind: advdiag.FaultDeadShard, Shard: -1},
		{Kind: advdiag.FaultDeadShard, Shard: 2},
		{Kind: advdiag.FaultFouledElectrode, Shard: 0, Severity: 0},
		{Kind: advdiag.FaultFouledElectrode, Shard: 0, Severity: 1.5},
		{Kind: advdiag.FaultFouledElectrode, Shard: 0, Severity: math.NaN()},
		{Kind: advdiag.FaultFouledElectrode, Shard: 0, Severity: math.Inf(1)},
		{Kind: advdiag.FaultSlowShard, Shard: 0},
		{Kind: advdiag.FaultKind(42), Shard: 0},
	}
	for _, ft := range bad {
		if err := ft.Validate(2); err == nil {
			t.Errorf("fault %+v accepted", ft)
		}
	}
	good := []advdiag.Fault{
		{Kind: advdiag.FaultFouledElectrode, Shard: 0, Target: "glucose", Severity: 1},
		{Kind: advdiag.FaultDeadShard, Shard: 1},
		{Kind: advdiag.FaultSlowShard, Shard: 1, Delay: time.Millisecond},
	}
	for _, ft := range good {
		if err := ft.Validate(2); err != nil {
			t.Errorf("fault %+v rejected: %v", ft, err)
		}
	}
	plan := advdiag.FaultPlan{Faults: []advdiag.Fault{good[0], {Kind: advdiag.FaultSlowShard, Shard: 0}}}
	if err := plan.Validate(2); err == nil || !strings.Contains(err.Error(), "fault 1") {
		t.Fatalf("plan validation did not name the offending fault: %v", err)
	}
	if err := (advdiag.FaultPlan{Faults: good}).Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedClientPayloadDeterminism(t *testing.T) {
	a := advdiag.MalformedClient{Seed: 5}
	b := advdiag.MalformedClient{Seed: 5}
	for i := 0; i < 8; i++ {
		pa, pb := a.Payload(i), b.Payload(i)
		if len(pa) == 0 || !bytes.Equal(pa, pb) {
			t.Fatalf("payload %d not deterministic: %q vs %q", i, pa, pb)
		}
	}
}

// TestInjectFaultLive: runtime injection (as opposed to a construction
// plan) arms faults on a serving fleet — a slow shard delays but does
// not corrupt, composed faults coexist, and a closed fleet refuses.
func TestInjectFaultLive(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2), advdiag.WithFleetWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.InjectFault(advdiag.Fault{Kind: advdiag.FaultKind(9), Shard: 0}); err == nil {
		t.Fatal("unknown fault kind injected")
	}
	if err := fleet.InjectFault(advdiag.Fault{Kind: advdiag.FaultSlowShard, Shard: 0, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := fleet.InjectFault(advdiag.Fault{Kind: advdiag.FaultFouledElectrode, Shard: 0, Target: "glucose", Severity: 0.9, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	outs := fleet.RunPanels(mixedCohort(8))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("sample %d under slow+fouled shard: %v", i, o.Err)
		}
	}
	fleet.ClearFaults()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.InjectFault(advdiag.Fault{Kind: advdiag.FaultDeadShard, Shard: 0}); !errors.Is(err, advdiag.ErrFleetClosed) {
		t.Fatalf("closed fleet accepted an injection: %v", err)
	}
}

func TestFleetShardsAccessor(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Shards() != 3 {
		t.Fatalf("Shards() = %d", fleet.Shards())
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLabWorkersAccessor(t *testing.T) {
	lab, err := advdiag.NewLab(fleetPlatforms(t, 1)[0], advdiag.WithLabWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if lab.Workers() != 3 {
		t.Fatalf("Workers() = %d", lab.Workers())
	}
}

func TestDiagnosisString(t *testing.T) {
	d := advdiag.Diagnosis{
		Status:            advdiag.StatusDegraded,
		Snapshots:         4,
		QuarantinedShards: []int{1},
		Findings: []advdiag.Finding{
			{Class: advdiag.ClassSensorFouling, Shard: 1, Target: "glucose", Severity: 0.6,
				Quarantined: true, Evidence: "recovery 0.55 vs 0.98"},
			{Class: advdiag.ClassQueueSaturation, Shard: -1, Severity: 0.2},
		},
	}
	s := d.String()
	for _, want := range []string{"degraded", "shard 1/glucose", "fleet", "queue_saturation"} {
		if !strings.Contains(s, want) {
			t.Fatalf("diagnosis report %q lacks %q", s, want)
		}
	}
}

func TestServerAccessorsAndSchedulerOption(t *testing.T) {
	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := advdiag.NewFleet([]*advdiag.Platform{p})
	if err != nil {
		t.Fatal(err)
	}
	refFleet, err := advdiag.NewFleet([]*advdiag.Platform{p})
	if err != nil {
		t.Fatal(err)
	}
	defer refFleet.Close() //nolint:errcheck // scheduler backend only
	ms, err := advdiag.NewMonitorScheduler(refFleet)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := advdiag.NewServer(fleet)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck // nothing submitted
	srv.AttachScheduler(ms)
	if srv.Diagnoser() == nil {
		t.Fatal("the server built no diagnoser")
	}
	if srv.Stats().Scheduler == nil {
		t.Fatal("scheduler stats not merged into the snapshot")
	}
	if s := ms.Stats().String(); !strings.Contains(s, "scheduler:") {
		t.Fatalf("scheduler stats render %q", s)
	}
}

func TestPlatformSurface(t *testing.T) {
	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	mt := p.MonitorTargets()
	if len(mt) == 0 || len(mt) >= len(p.Targets()) {
		t.Fatalf("monitorable %v of %v: the CV target must not qualify", mt, p.Targets())
	}
	if cs := p.CostSummary(); !strings.Contains(cs, "panel") {
		t.Fatalf("cost summary %q", cs)
	}
	res, err := p.RunPanel(map[string]float64{"glucose": 1, "benzphetamine": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	// benzphetamine is a CV assay, so its reading renders a peak
	// potential; glucose (CA) must not.
	if !strings.Contains(s, "Panel (") || !strings.Contains(s, "glucose") ||
		!strings.Contains(s, "benzphetamine") || !strings.Contains(s, "peak") {
		t.Fatalf("panel report %q missing expected sections", s)
	}
}

func TestDesignPlatformExploreOptions(t *testing.T) {
	p, err := advdiag.DesignPlatform([]string{"glucose"},
		advdiag.WithPlatformSeed(13),
		advdiag.WithSamplePeriod(600),
		advdiag.WithExploreWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Targets(); len(got) != 1 || got[0] != "glucose" {
		t.Fatalf("targets %v", got)
	}
}

func TestSensorOptionsAndFOMString(t *testing.T) {
	s, err := advdiag.NewSensor("glucose", advdiag.WithNanostructuredElectrode(), advdiag.WithChopper())
	if err != nil {
		t.Fatal(err)
	}
	i, err := s.MeasureSteadyState(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if i <= 0 {
		t.Fatalf("steady-state current %g µA", i)
	}
	// The CV quantification path: a drug target is served by cyclic
	// voltammetry, where the peak current comes from template
	// decomposition instead of a settled level.
	cv, err := advdiag.NewSensor("benzphetamine")
	if err != nil {
		t.Fatal(err)
	}
	ic, err := cv.MeasureSteadyState(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ic == 0 {
		t.Fatal("CV peak current is zero")
	}
	rep := advdiag.FOMReport{Target: "glucose", Probe: "GOx", SensitivityPaper: 1.1,
		LODMicroMolar: 4, LinearLoMM: 0.1, LinearHiMM: 10, R2: 0.999}
	if rs := rep.String(); !strings.Contains(rs, "glucose") || !strings.Contains(rs, "LOD") {
		t.Fatalf("FOM row %q", rs)
	}
}

// TestClientErrorSurfaces: every client method must surface transport-
// and decode-level failures instead of fabricating results.
func TestClientErrorSurfaces(t *testing.T) {
	ctx := context.Background()
	sample := advdiag.Sample{ID: "s", Concentrations: map[string]float64{"glucose": 1}}
	mreq := advdiag.MonitorRequest{ID: "m", Target: "glucose", ConcentrationMM: 1}

	check := func(t *testing.T, c *advdiag.Client) {
		t.Helper()
		if err := c.Health(ctx); err == nil {
			t.Error("Health reported healthy")
		}
		if _, err := c.Stats(ctx); err == nil {
			t.Error("Stats returned a snapshot")
		}
		if _, err := c.Diagnosis(ctx); err == nil {
			t.Error("Diagnosis returned a verdict")
		}
		if _, err := c.RunPanel(ctx, sample); err == nil {
			t.Error("RunPanel returned an outcome")
		}
		if _, err := c.RunPanels(ctx, []advdiag.Sample{sample}); err == nil {
			t.Error("RunPanels returned outcomes")
		}
		if err := c.StreamPanels(ctx, []advdiag.Sample{sample}, func(int, advdiag.PanelOutcome) {}); err == nil {
			t.Error("StreamPanels streamed")
		}
		if _, err := c.RunMonitor(ctx, mreq); err == nil {
			t.Error("RunMonitor returned an outcome")
		}
		if _, err := c.GetMonitor(ctx, "m"); err == nil {
			t.Error("GetMonitor returned an outcome")
		}
	}

	t.Run("http 500", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		defer ts.Close()
		check(t, advdiag.NewClient(ts.URL))
	})
	t.Run("garbage 200", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("{not json")) //nolint:errcheck // test stub
		}))
		defer ts.Close()
		c := advdiag.NewClient(ts.URL)
		if _, err := c.Stats(ctx); err == nil {
			t.Error("Stats decoded garbage")
		}
		if _, err := c.Diagnosis(ctx); err == nil {
			t.Error("Diagnosis decoded garbage")
		}
		if _, err := c.RunPanel(ctx, sample); err == nil {
			t.Error("RunPanel decoded garbage")
		}
		if _, err := c.GetMonitor(ctx, "m"); err == nil {
			t.Error("GetMonitor decoded garbage")
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		check(t, advdiag.NewClient("http://127.0.0.1:1"))
	})
}

// TestClientMonitorBackendRetry: the scheduler-facing monitor backend
// must absorb transient saturation (429) with backoff and retry, and
// surface a hard failure as an errored outcome carrying the campaign
// ID and tick — never as a lost acquisition.
func TestClientMonitorBackendRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1, 2:
			http.Error(w, `{"error":"fleet saturated"}`, http.StatusTooManyRequests)
		default:
			http.Error(w, `{"error":"instrument fire"}`, http.StatusInternalServerError)
		}
	}))
	defer ts.Close()
	b := advdiag.NewClient(ts.URL).MonitorBackend(context.Background())
	req := advdiag.MonitorRequest{ID: "m-retry", Tick: 3, Target: "glucose", ConcentrationMM: 1}
	if err := b.SubmitMonitor(req); err != nil {
		t.Fatal(err)
	}
	o := <-b.MonitorResults()
	if o.Err == nil || o.ID != "m-retry" || o.Tick != 3 || o.Shard != -1 {
		t.Fatalf("outcome after retries = %+v, want errored outcome for m-retry tick 3", o)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two saturated retries, one failure)", got)
	}
}

// TestClientMonitorBackendCancel: cancelling the backend's context
// while it is backing off from saturation must deliver a cancellation
// outcome instead of retrying forever.
func TestClientMonitorBackendCancel(t *testing.T) {
	fired := make(chan struct{}, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case fired <- struct{}{}:
		default:
		}
		http.Error(w, `{"error":"fleet saturated"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := advdiag.NewClient(ts.URL).MonitorBackend(ctx)
	req := advdiag.MonitorRequest{ID: "m-cancel", Target: "glucose", ConcentrationMM: 1}
	if err := b.TrySubmitMonitor(req); err != nil {
		t.Fatal(err)
	}
	<-fired // at least one saturated round trip happened
	cancel()
	o := <-b.MonitorResults()
	if !errors.Is(o.Err, context.Canceled) || o.ID != "m-cancel" {
		t.Fatalf("outcome after cancel = %+v, want context.Canceled for m-cancel", o)
	}
}
