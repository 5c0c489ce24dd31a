package advdiag_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"advdiag"
)

// TestServerMonitorRoundTrip: a monitor request POSTed through the
// client must return a trace byte-identical to the same request run on
// a local Lab — the request carries its own seed and the wire format
// is lossless for float64.
func TestServerMonitorRoundTrip(t *testing.T) {
	_, client := newTestServer(t, 2, advdiag.WithFleetWorkers(2))
	req := advdiag.MonitorRequest{
		ID:              "patient-007",
		Tick:            3,
		Target:          "glucose",
		ConcentrationMM: 4.2,
		DurationSeconds: 8,
		BaselineSeconds: 2,
		AgeHours:        72,
		Polymer:         true,
		Seed:            advdiag.MonitorSeed(7, "patient-007", 3),
	}

	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	lab, err := advdiag.NewLab(p)
	if err != nil {
		t.Fatal(err)
	}
	local := lab.RunMonitor(req)
	if local.Err != nil {
		t.Fatal(local.Err)
	}

	remote, err := client.RunMonitor(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Err != nil {
		t.Fatal(remote.Err)
	}
	if remote.ID != "patient-007" || remote.Tick != 3 {
		t.Fatalf("outcome identity: %+v", remote)
	}
	if remote.Shard < 0 || remote.Shard > 1 {
		t.Fatalf("outcome shard %d", remote.Shard)
	}
	lf, rf := local.Result.Fingerprint(), remote.Result.Fingerprint()
	if lf != rf {
		t.Fatalf("remote fingerprint %016x, local %016x", rf, lf)
	}
	if remote.Result.EstimatedMM <= 0 {
		t.Fatalf("service run must invert an estimate: %+v", remote.Result.EstimatedMM)
	}

	// The completed outcome is stored for GET /v1/monitors/{id}.
	got, err := client.GetMonitor(context.Background(), "patient-007")
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Fingerprint() != lf {
		t.Fatalf("stored outcome fingerprint %016x, want %016x", got.Result.Fingerprint(), lf)
	}

	// Unknown IDs are errors, not empty outcomes.
	if _, err := client.GetMonitor(context.Background(), "nobody"); err == nil {
		t.Fatal("unknown campaign ID must error")
	} else if errors.Is(err, advdiag.ErrMonitorPending) {
		t.Fatalf("unknown ID must not report pending: %v", err)
	}
}

// TestServerGetMonitorEscapesID: campaign IDs holding URL syntax —
// a slash, a query or fragment marker, a stray percent, a space — read
// back through GET /v1/monitors/{id} as the outcome stored under that
// exact ID.
func TestServerGetMonitorEscapesID(t *testing.T) {
	_, client := newTestServer(t, 1)
	ctx := context.Background()
	for _, id := range []string{"ward-3/bed-7", "a?b", "c#d", "e%zz", "bed 12"} {
		req := advdiag.MonitorRequest{
			ID: id, Target: "glucose", ConcentrationMM: 2,
			DurationSeconds: 6, BaselineSeconds: 2,
			Seed: advdiag.MonitorSeed(7, id, 0),
		}
		out, err := client.RunMonitor(ctx, req)
		if err != nil {
			t.Fatalf("%q: %v", id, err)
		}
		if out.Err != nil {
			t.Fatalf("%q: %v", id, out.Err)
		}
		got, err := client.GetMonitor(ctx, id)
		if err != nil {
			t.Fatalf("GetMonitor(%q): %v", id, err)
		}
		if got.ID != id || got.Result.Fingerprint() != out.Result.Fingerprint() {
			t.Fatalf("GetMonitor(%q) returned campaign %q, fingerprint %016x, want %016x",
				id, got.ID, got.Result.Fingerprint(), out.Result.Fingerprint())
		}
	}
}

// TestServerMonitorValidation: malformed monitor requests are 400
// before anything reaches the fleet; CV targets are accepted by
// validation but fail inside the outcome (the platform has no
// chronoamperometric electrode for them).
func TestServerMonitorValidation(t *testing.T) {
	_, client := newTestServer(t, 1)
	ctx := context.Background()

	// Client-side validation refuses before any HTTP round trip.
	_, err := client.RunMonitor(ctx, advdiag.MonitorRequest{Target: "glucose", ConcentrationMM: 3, DurationSeconds: -1})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative duration: %v", err)
	}
	_, err = client.RunMonitor(ctx, advdiag.MonitorRequest{Target: "unobtainium", ConcentrationMM: 3})
	if err == nil || !strings.Contains(err.Error(), "unknown species") {
		t.Fatalf("unknown species: %v", err)
	}

	// A CV-only target validates (the species exists) but no electrode
	// monitors it: the failure arrives inside the outcome, HTTP 200.
	out, err := client.RunMonitor(ctx, advdiag.MonitorRequest{ID: "cv", Target: "benzphetamine", ConcentrationMM: 0.5, DurationSeconds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == nil || !strings.Contains(out.Err.Error(), "chronoamperometric") {
		t.Fatalf("CV target outcome: %+v", out)
	}
}

// TestSchedulerOverHTTP is the service-layer acceptance criterion: the
// same cohort driven through a scheduler over the HTTP backend
// (Client.MonitorBackend) must produce a cohort fingerprint
// byte-identical to an in-process scheduler over a local fleet, and
// the server's /v1/stats must carry both monitor counters and the
// attached scheduler's snapshot.
func TestSchedulerOverHTTP(t *testing.T) {
	campaigns := monitorCohort(6)

	// Local reference: in-process scheduler over its own fleet. The
	// platform seed must match the served platform's.
	local := func() uint64 {
		p, err := servePlatform()
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := advdiag.NewFleet([]*advdiag.Platform{p})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		ms, err := advdiag.NewMonitorScheduler(fleet, advdiag.WithSchedulerSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range campaigns {
			if err := ms.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := ms.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() != 0 {
			t.Fatalf("%d local campaigns failed", rep.Failed())
		}
		return rep.Fingerprint()
	}()

	srv, client := newTestServer(t, 2, advdiag.WithFleetWorkers(2))
	ms, err := advdiag.NewMonitorScheduler(client.MonitorBackend(context.Background()),
		advdiag.WithSchedulerSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachScheduler(ms)
	for _, c := range campaigns {
		if err := ms.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		for _, c := range rep.Campaigns {
			if c.Err != nil {
				t.Fatalf("campaign %s over HTTP: %v", c.ID, c.Err)
			}
		}
	}
	if got := rep.Fingerprint(); got != local {
		t.Fatalf("HTTP cohort fingerprint %016x, in-process %016x", got, local)
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.MonitorsSubmitted == 0 || st.MonitorsCompleted != st.MonitorsSubmitted {
		t.Fatalf("server monitor counters: %+v", st.FleetStats)
	}
	if st.Scheduler == nil {
		t.Fatal("stats must carry the attached scheduler snapshot")
	}
	if st.Scheduler.Finished != len(campaigns) || st.Scheduler.TicksCompleted != st.MonitorsCompleted {
		t.Fatalf("scheduler snapshot: %+v vs fleet %d monitors", st.Scheduler, st.MonitorsCompleted)
	}
}
