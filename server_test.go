package advdiag_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"advdiag"
	"advdiag/wire"
)

// servePlatform lazily designs the one platform every server test
// shares: design-space exploration is the slow part, and a warmed
// platform can back any number of fleets (the calibration table is
// read-only at serve time).
var servePlatform = sync.OnceValues(func() (*advdiag.Platform, error) {
	return advdiag.DesignPlatform([]string{"glucose", "benzphetamine"},
		advdiag.WithPlatformSeed(11))
})

// newTestServer stands up a Fleet over n shards of the shared
// platform, the advdiag.Server over it, and an httptest front end,
// returning the client wired to it. Cleanup tears all three down.
func newTestServer(t *testing.T, shards int, opts ...advdiag.FleetOption) (*advdiag.Server, *advdiag.Client) {
	t.Helper()
	_, srv, client := newServedFleet(t, shards, nil, opts...)
	return srv, client
}

// newServedFleet is newTestServer that also returns the served fleet,
// for tests that submit to it beside the Server, with faults armed
// before the server takes any traffic.
func newServedFleet(t *testing.T, shards int, faults []advdiag.Fault, opts ...advdiag.FleetOption) (*advdiag.Fleet, *advdiag.Server, *advdiag.Client) {
	t.Helper()
	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	plats := make([]*advdiag.Platform, shards)
	for i := range plats {
		plats[i] = p
	}
	fleet, err := advdiag.NewFleet(plats, opts...)
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
	return fleet, srv, advdiag.NewClient(ts.URL, advdiag.WithHTTPClient(ts.Client()))
}

// injectFaults arms faults on a fleet as one plan, failing the test if
// the plan is refused.
func injectFaults(t *testing.T, fleet *advdiag.Fleet, faults ...advdiag.Fault) {
	t.Helper()
	if err := fleet.InjectFaults(advdiag.FaultPlan{Faults: faults}); err != nil {
		t.Fatal(err)
	}
}

// localFingerprints runs the same samples on a local Lab over the
// shared platform — the reference the wire path must reproduce
// byte-for-byte.
func localFingerprints(t *testing.T, samples []advdiag.Sample) []uint64 {
	t.Helper()
	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	outs := lab.RunPanels(samples)
	fps := make([]uint64, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("local sample %d: %v", i, o.Err)
		}
		fps[i] = o.Result.Fingerprint()
	}
	return fps
}

// TestServerBatchDeterminism is the acceptance criterion: a batch
// submitted through the HTTP client must return PanelResult
// fingerprints byte-identical to the same samples run on a local Lab —
// the wire format is lossless and the server preserves submission
// order.
func TestServerBatchDeterminism(t *testing.T) {
	samples := mixedCohort(24)
	_, client := newTestServer(t, 2, advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(32))

	remote, err := client.RunPanels(context.Background(), samples)
	if err != nil {
		t.Fatal(err)
	}
	local := localFingerprints(t, samples)
	for i, o := range remote {
		if o.Err != nil {
			t.Fatalf("remote sample %d: %v", i, o.Err)
		}
		if o.Index != i {
			t.Fatalf("sample %d: submission index %d (batch order not preserved)", i, o.Index)
		}
		if o.ID != samples[i].ID {
			t.Fatalf("sample %d: ID %q vs %q", i, o.ID, samples[i].ID)
		}
		if got := o.Result.Fingerprint(); got != local[i] {
			t.Fatalf("sample %d: remote fingerprint %x != local %x", i, got, local[i])
		}
	}
}

// TestServerStreamDeterminism: the NDJSON streaming endpoint must be
// just as lossless, with outcomes tagged by their request line (seq)
// even though they arrive in completion order.
func TestServerStreamDeterminism(t *testing.T) {
	samples := mixedCohort(12)
	_, client := newTestServer(t, 2, advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(16))

	got := make([]advdiag.PanelOutcome, len(samples))
	seen := make([]bool, len(samples))
	err := client.StreamPanels(context.Background(), samples, func(seq int, o advdiag.PanelOutcome) {
		if seq < 0 || seq >= len(samples) || seen[seq] {
			t.Errorf("bad or duplicate seq %d", seq)
			return
		}
		seen[seq] = true
		got[seq] = o
	})
	if err != nil {
		t.Fatal(err)
	}
	local := localFingerprints(t, samples)
	for i, o := range got {
		if !seen[i] {
			t.Fatalf("sample %d never answered", i)
		}
		if o.Err != nil {
			t.Fatalf("sample %d: %v", i, o.Err)
		}
		if fp := o.Result.Fingerprint(); fp != local[i] {
			t.Fatalf("sample %d: stream fingerprint %x != local %x", i, fp, local[i])
		}
	}
}

// TestServerSinglePanel: one sample through POST /v1/panels equals the
// first sample of a local Lab run (both seed from submission index 0).
func TestServerSinglePanel(t *testing.T) {
	sample := advdiag.Sample{ID: "p-1", Concentrations: map[string]float64{"glucose": 5.5}}
	_, client := newTestServer(t, 1)

	out, err := client.RunPanel(context.Background(), sample)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	local := localFingerprints(t, []advdiag.Sample{sample})
	if fp := out.Result.Fingerprint(); fp != local[0] {
		t.Fatalf("remote fingerprint %x != local %x", fp, local[0])
	}
	if out.Index != 0 || out.ID != "p-1" {
		t.Fatalf("outcome metadata: %+v", out)
	}
}

// TestStatsCountOutcomesRequestersHold: once a requester holds its
// outcome — from Fleet.RunPanels, or over HTTP from the Server — the
// fleet's stats already count it completed. Many back-to-back round
// trips give a lagging completion count many chances to show.
func TestStatsCountOutcomesRequestersHold(t *testing.T) {
	fleet, _, client := newServedFleet(t, 2, nil, advdiag.WithFleetWorkers(2))
	ctx := context.Background()
	var panels, monitors uint64
	check := func(what string) {
		t.Helper()
		st := fleet.Stats()
		if st.Completed != panels || st.MonitorsCompleted != monitors {
			t.Fatalf("after %s: stats count %d panels and %d monitors completed, requesters hold %d and %d",
				what, st.Completed, st.MonitorsCompleted, panels, monitors)
		}
	}
	for i := 0; i < 40; i++ {
		s := advdiag.Sample{ID: "held", Concentrations: map[string]float64{"glucose": 1 + 0.1*float64(i)}}
		if o := fleet.RunPanels([]advdiag.Sample{s})[0]; o.Err != nil {
			t.Fatal(o.Err)
		}
		panels++
		check("Fleet.RunPanels")
		if _, err := client.RunPanel(ctx, s); err != nil {
			t.Fatal(err)
		}
		panels++
		check("Client.RunPanel")
		req := advdiag.MonitorRequest{ID: "held", Tick: i, Target: "glucose", ConcentrationMM: 2, DurationSeconds: 6}
		if _, err := client.RunMonitor(ctx, req); err != nil {
			t.Fatal(err)
		}
		monitors++
		check("Client.RunMonitor")
	}
}

// TestServerSaturation429: with one worker and a depth-1 queue, a
// burst of concurrent submissions must shed load as HTTP 429 (the
// handler never blocks on a full queue), the client must surface it as
// ErrFleetSaturated, and GET /v1/stats must account for every reject.
func TestServerSaturation429(t *testing.T) {
	// A slow-shard fault stalls the lone worker a few ms per job so the
	// burst reliably finds the depth-1 queue full, however fast the
	// panel kernel gets; the delay changes timing only, never results.
	_, _, client := newServedFleet(t, 1,
		[]advdiag.Fault{{Kind: advdiag.FaultSlowShard, Shard: 0, Delay: 5 * time.Millisecond}},
		advdiag.WithFleetWorkers(1), advdiag.WithFleetQueueDepth(1))
	sample := advdiag.Sample{ID: "burst", Concentrations: map[string]float64{"glucose": 5.0}}

	var saturated, served int
	// A burst of 32 against capacity ~2 all but guarantees rejects; a
	// scheduler that somehow serializes the whole round gets two more
	// chances before we call it a failure.
	for round := 0; round < 3 && saturated == 0; round++ {
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := client.RunPanel(context.Background(), sample)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, advdiag.ErrFleetSaturated):
					saturated++
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	if saturated == 0 {
		t.Fatal("no request was shed: saturation never surfaced as 429")
	}
	if served == 0 {
		t.Fatal("every request was shed: the fleet served nothing")
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != uint64(saturated) {
		t.Fatalf("stats count %d rejects, clients saw %d", st.Rejected, saturated)
	}
	if st.Completed != uint64(served) {
		t.Fatalf("stats count %d completed, clients saw %d", st.Completed, served)
	}
}

// TestServerValidation pins the 400 surface: malformed JSON, unknown
// fields, schema skew, and samples the runtime would refuse must be
// rejected before anything reaches the fleet.
func TestServerValidation(t *testing.T) {
	_, client := newTestServer(t, 1)
	base := clientBase(client)

	cases := []struct{ name, path, body, want string }{
		{"malformed", "/v1/panels", `{"schema":2,`, ""},
		{"unknown field", "/v1/panels", `{"schema":2,"concentrations":{"glucose":5},"priority":1}`, "unknown field"},
		{"schema skew", "/v1/panels", `{"schema":3,"concentrations":{"glucose":5}}`, "schema 3"},
		{"unknown species", "/v1/panels", `{"schema":2,"concentrations":{"unobtainium":5}}`, "unknown species"},
		{"negative concentration", "/v1/panels", `{"schema":2,"concentrations":{"glucose":-2}}`, "negative"},
		{"batch not an array", "/v1/panels/batch", `{"schema":2}`, ""},
		{"batch bad element", "/v1/panels/batch", `[{"schema":2,"concentrations":{"glucose":5}},{"schema":2,"concentrations":{"glucose":-1}}]`, "sample 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			msg := readBody(t, resp)
			if tc.want != "" && !strings.Contains(msg, tc.want) {
				t.Fatalf("body %q does not mention %q", msg, tc.want)
			}
		})
	}

	// Stats must show that nothing was ever submitted.
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 0 {
		t.Fatalf("invalid payloads reached the fleet: %d submitted", st.Submitted)
	}
}

// TestServerUnroutable: a valid sample no shard's panel covers is 422
// under the affinity router — a service-level "we don't run that
// assay", distinct from both 400 (bad payload) and 429 (try later).
func TestServerUnroutable(t *testing.T) {
	_, client := newTestServer(t, 1, advdiag.WithFleetRouter(advdiag.AffinityRouter{}))
	// lactate is a registered species, but the shared platform panels
	// glucose + benzphetamine.
	_, err := client.RunPanel(context.Background(), advdiag.Sample{
		ID: "x", Concentrations: map[string]float64{"lactate": 1.0},
	})
	if err == nil {
		t.Fatal("unroutable sample must fail")
	}
	if !strings.Contains(err.Error(), "422") {
		t.Fatalf("want a 422 response, got %v", err)
	}
}

// TestServerDrainAndClose: draining flips /healthz to 503 and refuses
// new work with ErrServerDraining while stats stay readable; Close is
// idempotent in the fleet's usual first-wins way.
func TestServerDrainAndClose(t *testing.T) {
	srv, client := newTestServer(t, 1)
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthy server reported: %v", err)
	}
	// Accept one panel, then drain.
	if _, err := client.RunPanel(ctx, advdiag.Sample{ID: "a", Concentrations: map[string]float64{"glucose": 4}}); err != nil {
		t.Fatal(err)
	}
	srv.Drain()

	if err := client.Health(ctx); err == nil || !errors.Is(err, advdiag.ErrServerDraining) {
		t.Fatalf("draining health must be ErrServerDraining, got %v", err)
	}
	if _, err := client.RunPanel(ctx, advdiag.Sample{ID: "b", Concentrations: map[string]float64{"glucose": 4}}); !errors.Is(err, advdiag.ErrServerDraining) {
		t.Fatalf("draining submit must be ErrServerDraining, got %v", err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("drained stats: %+v", st)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := srv.Close(); !errors.Is(err, advdiag.ErrFleetClosed) {
		t.Fatalf("second close: %v", err)
	}
}

// TestServerBodyTooLarge: a single-panel body over the 1 MiB bound is
// 413, not an opaque decode failure.
func TestServerBodyTooLarge(t *testing.T) {
	_, client := newTestServer(t, 1)
	huge := `{"schema":2,"id":"` + strings.Repeat("x", 2<<20) + `","concentrations":{"glucose":5}}`
	resp, err := http.Post(clientBase(client)+"/v1/panels", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestServerStreamInBandErrors: a stream with a bad line keeps the
// connection up — the bad line comes back as an error outcome tagged
// with its seq, and the valid lines still measure.
func TestServerStreamInBandErrors(t *testing.T) {
	_, client := newTestServer(t, 1)
	body := `{"schema":2,"id":"good-0","concentrations":{"glucose":5}}` + "\n" +
		`{"schema":9,"id":"bad-1","concentrations":{"glucose":5}}` + "\n" +
		"\n" + // blank keep-alive line, not a sample
		`{"schema":2,"id":"good-2","concentrations":{"glucose":4}}` + "\n"
	resp, err := http.Post(clientBase(client)+"/v1/panels/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	outcomes := map[int]wire.Outcome{}
	for _, line := range strings.Split(strings.TrimSpace(readBody(t, resp)), "\n") {
		var o wire.Outcome
		if err := json.Unmarshal([]byte(line), &o); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		outcomes[o.Seq] = o
	}
	if len(outcomes) != 3 {
		t.Fatalf("want 3 outcomes (blank line skipped), got %d: %v", len(outcomes), outcomes)
	}
	if o := outcomes[1]; o.Error == "" || !strings.Contains(o.Error, "schema 9") || o.Index != -1 {
		t.Fatalf("bad line outcome: %+v", o)
	}
	for _, seq := range []int{0, 2} {
		if o := outcomes[seq]; o.Error != "" || o.Result == nil {
			t.Fatalf("good line %d outcome: %+v", seq, o)
		}
	}
}

// readBody drains a response body into a string.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// clientBase digs the base URL back out of the client for raw HTTP
// requests.
func clientBase(c *advdiag.Client) string { return c.BaseURL() }

// TestServerShardEndpoints drives the elastic topology over the wire:
// POST /v1/shards designs a platform and grows the fleet, DELETE
// /v1/shards/{id} retires a shard, bad requests map to the right
// status codes, and traffic keeps flowing — with fingerprints still
// byte-identical to a local Lab — across both changes.
func TestServerShardEndpoints(t *testing.T) {
	_, client := newTestServer(t, 2, advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(32))
	ctx := context.Background()
	base := clientBase(client)

	idx, err := client.AddShard(ctx, []string{"glucose", "benzphetamine"})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("new shard index %d, want 2", idx)
	}
	if err := client.RemoveShard(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.RemoveShard(ctx, 1); err == nil {
		t.Fatal("removing an already-removed shard succeeded")
	}
	if err := client.RemoveShard(ctx, 99); err == nil {
		t.Fatal("removing an out-of-range shard succeeded")
	}

	// The reshaped fleet serves with unchanged determinism.
	samples := mixedCohort(16)
	outs, err := client.RunPanels(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}
	local := localFingerprints(t, samples)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("sample %d: %v", i, o.Err)
		}
		if o.Shard == 1 {
			t.Fatalf("sample %d routed to removed shard 1", i)
		}
		if got := o.Result.Fingerprint(); got != local[i] {
			t.Fatalf("sample %d: fingerprint %016x != local %016x", i, got, local[i])
		}
	}
	var st advdiag.ServerStats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Shards) != 3 || !st.Shards[1].Removed || st.Shards[2].Removed {
		t.Fatalf("stats after add+remove: %+v", st.Shards)
	}

	// Status-code mapping for bad requests.
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed body", http.MethodPost, "/v1/shards", `{"schema":2,`, http.StatusBadRequest},
		{"no targets", http.MethodPost, "/v1/shards", `{"schema":2,"targets":[]}`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/shards", `{"schema":2,"targets":["glucose"],"replicas":3}`, http.StatusBadRequest},
		{"non-numeric id", http.MethodDelete, "/v1/shards/abc", "", http.StatusNotFound},
		{"negative id", http.MethodDelete, "/v1/shards/-1", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestServerShardEndpointsDraining: a draining server refuses topology
// growth with 503, exactly like panel intake.
func TestServerShardEndpointsDraining(t *testing.T) {
	srv, client := newTestServer(t, 1, advdiag.WithFleetWorkers(1))
	srv.Drain()
	if _, err := client.AddShard(context.Background(), []string{"glucose"}); err == nil {
		t.Fatal("draining server accepted AddShard")
	}
	resp, err := http.Post(clientBase(client)+"/v1/shards", "application/json",
		strings.NewReader(`{"schema":2,"targets":["glucose"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /v1/shards: status %d, want 503", resp.StatusCode)
	}
}

// TestServerConvictionForcesRecal wires the full loop the ISSUE names:
// a fouling conviction surfacing through GET /v1/diagnosis must flag
// the attached MonitorScheduler's matching campaigns for forced
// recalibration — diagnosis verdicts feeding the recalibration
// machinery, not just the routing layer.
func TestServerConvictionForcesRecal(t *testing.T) {
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
	ms, err := advdiag.NewMonitorScheduler(fleet, advdiag.WithSchedulerSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Add(advdiag.MonitorCampaign{
		ID: "cohort-000", Target: "glucose", SampleMM: 2,
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
	if _, ok := findByClass(d, advdiag.ClassSensorFouling); !ok {
		t.Fatalf("QC cohort never convicted the fouled shard: %+v", d.Findings)
	}
	if got := ms.Stats().ForcedRecals; got != 1 {
		t.Fatalf("conviction flagged %d forced recals on the attached scheduler, want 1", got)
	}
	// The same standing conviction must not re-fire on every poll.
	if _, err := client.Diagnosis(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ms.Stats().ForcedRecals; got != 1 {
		t.Fatalf("re-polling the standing conviction re-fired the trigger: %d", got)
	}
}
