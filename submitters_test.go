package advdiag_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"advdiag"
)

// checkReplay asserts that o answers sample s and that its panel
// replays bit for bit through Fleet.ReplayPanel. It reports with
// t.Errorf so submitter goroutines can call it.
func checkReplay(t *testing.T, f *advdiag.Fleet, o advdiag.PanelOutcome, s advdiag.Sample) {
	t.Helper()
	if o.ID != s.ID {
		t.Errorf("outcome for %q answered sample %q", o.ID, s.ID)
		return
	}
	if o.Err != nil {
		t.Errorf("%s: %v", s.ID, o.Err)
		return
	}
	r, err := f.ReplayPanel(o.Shard, o.Index, s)
	if err != nil {
		t.Errorf("%s: replay: %v", s.ID, err)
		return
	}
	if r.Fingerprint() != o.Result.Fingerprint() {
		t.Errorf("%s: panel served at index %d on shard %d does not replay", s.ID, o.Index, o.Shard)
	}
}

// within runs fn and aborts the test binary if fn has not returned
// after d. Submitters that steal each other's outcomes deadlock rather
// than fail, and a deadlocked fleet would hang the test's cleanup Close
// too, so the watchdog panics off the test goroutine: the process dies
// at once, and the goroutine dump shows where it stuck.
func within(d time.Duration, what string, fn func()) {
	watchdog := time.AfterFunc(d, func() {
		panic(fmt.Sprintf("%s did not finish within %v", what, d))
	})
	defer watchdog.Stop()
	fn()
}

// consumeResults reads n outcomes from the fleet's Results channel and
// checks each against the streamed sample with its ID.
func consumeResults(t *testing.T, f *advdiag.Fleet, streamed []advdiag.Sample) {
	byID := make(map[string]advdiag.Sample, len(streamed))
	for _, s := range streamed {
		byID[s.ID] = s
	}
	for range streamed {
		o := <-f.Results()
		s, ok := byID[o.ID]
		if !ok {
			t.Errorf("Results carried %q, which no streaming Submit sent", o.ID)
			continue
		}
		checkReplay(t, f, o, s)
	}
}

// TestFleetConcurrentRunPanels: two RunPanels batches run beside a
// streaming Submit/Results consumer on one fleet. Every batch outcome
// lands at its sample's position with its real submission index and
// replays bit for bit, each batch's indices are contiguous despite the
// interleaved Submits, and the streaming consumer sees exactly its own
// outcomes.
func TestFleetConcurrentRunPanels(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2),
		advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	cohort := mixedCohort(48)
	batches := [][]advdiag.Sample{cohort[:16], cohort[16:32]}
	streamed := cohort[32:]

	var wg sync.WaitGroup
	for _, batch := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs := fleet.RunPanels(batch)
			if len(outs) != len(batch) {
				t.Errorf("RunPanels returned %d outcomes for %d samples", len(outs), len(batch))
				return
			}
			idx := make([]int, len(outs))
			for i, o := range outs {
				checkReplay(t, fleet, o, batch[i])
				idx[i] = o.Index
			}
			sort.Ints(idx)
			for i := 1; i < len(idx); i++ {
				if idx[i] != idx[i-1]+1 {
					t.Errorf("batch indices are not contiguous: %v", idx)
					break
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, s := range streamed {
			if err := fleet.Submit(s); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		consumeResults(t, fleet, streamed)
	}()
	within(time.Minute, "two RunPanels batches beside a streaming consumer", wg.Wait)

	if st := fleet.Stats(); st.Submitted != uint64(len(cohort)) || st.Completed != st.Submitted {
		t.Fatalf("stats after the run: %d submitted, %d completed, want %d", st.Submitted, st.Completed, len(cohort))
	}
}

// TestServerSharesFleetWithInProcessSubmitters: the Server needs no
// exclusive ownership of its fleet. An in-process MonitorScheduler
// drives the served fleet through MonitorResults while panels and
// monitor requests arrive over HTTP and a direct Submit stream is
// consumed from Results. Every HTTP response answers its own request,
// the cohort fingerprint matches a fresh fleet's, and every panel
// replays.
func TestServerSharesFleetWithInProcessSubmitters(t *testing.T) {
	p, err := servePlatform()
	if err != nil {
		t.Fatal(err)
	}
	campaigns := monitorCohort(6)
	runCohort := func(f *advdiag.Fleet) *advdiag.MonitorScheduler {
		ms, err := advdiag.NewMonitorScheduler(f, advdiag.WithSchedulerSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range campaigns {
			if err := ms.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		return ms
	}
	want := func() uint64 {
		fresh, err := advdiag.NewFleet([]*advdiag.Platform{p})
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		rep, err := runCohort(fresh).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Fingerprint()
	}()
	lab, err := advdiag.NewLab(p)
	if err != nil {
		t.Fatal(err)
	}

	fleet, srv, client := newServedFleet(t, 2, nil,
		advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(16))
	ms := runCohort(fleet)
	srv.AttachScheduler(ms)
	ctx := context.Background()
	panels := mixedCohort(24)
	single, batch, streamed := panels[:8], panels[8:16], panels[16:]

	var wg sync.WaitGroup
	var rep *advdiag.CohortReport
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := ms.Run()
		if err != nil {
			t.Error(err)
		}
		rep = r
	}()
	for _, s := range single {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, err := client.RunPanel(ctx, s)
			if err != nil {
				t.Error(err)
				return
			}
			checkReplay(t, fleet, o, s)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs, err := client.RunPanels(ctx, batch)
		if err != nil {
			t.Error(err)
			return
		}
		for i, o := range outs {
			checkReplay(t, fleet, o, batch[i])
		}
	}()
	for k := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("http-%d", k)
			req := advdiag.MonitorRequest{ID: id, Tick: k, Target: "glucose",
				ConcentrationMM: 2 + float64(k), DurationSeconds: 6, Seed: advdiag.MonitorSeed(3, id, k)}
			out, err := client.RunMonitor(ctx, req)
			if err != nil {
				t.Error(err)
				return
			}
			if out.ID != req.ID || out.Tick != req.Tick || out.Err != nil {
				t.Errorf("monitor request %s/%d answered with %s/%d (err %v)", req.ID, req.Tick, out.ID, out.Tick, out.Err)
				return
			}
			local := lab.RunMonitor(req)
			if got, want := out.Result.Fingerprint(), local.Result.Fingerprint(); got != want {
				t.Errorf("monitor %s fingerprint %016x, local %016x", id, got, want)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, s := range streamed {
			if err := fleet.Submit(s); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		consumeResults(t, fleet, streamed)
	}()
	within(2*time.Minute, "the scheduler, HTTP traffic and the direct stream", wg.Wait)

	if t.Failed() {
		return
	}
	if rep.Failed() != 0 {
		t.Fatalf("%d campaigns failed on the shared fleet", rep.Failed())
	}
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("shared-fleet cohort fingerprint %016x, fresh fleet %016x", got, want)
	}
}

// TestServerDropsAbandonedRequests: a panel and a monitor acquisition
// whose clients give up while they wait behind a slow job are dropped
// when the worker reaches them — counted as completed, never run — so
// Drain returns, the shard's run counters exclude them, and the next
// panel still serves and replays bit for bit.
func TestServerDropsAbandonedRequests(t *testing.T) {
	fleet, _, client := newServedFleet(t, 1,
		[]advdiag.Fault{{Kind: advdiag.FaultSlowShard, Shard: 0, Delay: 400 * time.Millisecond}},
		advdiag.WithFleetWorkers(1), advdiag.WithFleetQueueDepth(4))
	waitFor := func(what string, cond func(advdiag.FleetStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(fleet.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	glucose := func(id string, mm float64) advdiag.Sample {
		return advdiag.Sample{ID: id, Concentrations: map[string]float64{"glucose": mm}}
	}

	// The first panel holds the only worker for the slow-shard delay.
	first := glucose("first", 3)
	firstOut := make(chan advdiag.PanelOutcome, 1)
	go func() {
		o, err := client.RunPanel(context.Background(), first)
		if err != nil {
			t.Error(err)
		}
		firstOut <- o
	}()
	waitFor("the first panel", func(st advdiag.FleetStats) bool { return st.Submitted == 1 })

	// A panel and an acquisition queue behind it, then their clients leave.
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 2)
	go func() {
		_, err := client.RunPanel(ctx, glucose("abandoned", 4))
		gone <- err
	}()
	waitFor("the abandoned panel", func(st advdiag.FleetStats) bool { return st.Submitted == 2 })
	go func() {
		_, err := client.RunMonitor(ctx, advdiag.MonitorRequest{ID: "abandoned-monitor", Target: "glucose",
			ConcentrationMM: 3, DurationSeconds: 6})
		gone <- err
	}()
	waitFor("the abandoned monitor", func(st advdiag.FleetStats) bool { return st.MonitorsSubmitted == 1 })
	cancel()
	for range 2 {
		if err := <-gone; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned request returned %v, want context.Canceled", err)
		}
	}

	within(10*time.Second, "Drain", fleet.Drain)
	checkReplay(t, fleet, <-firstOut, first)
	st := fleet.Stats()
	if st.Completed != 2 || st.MonitorsCompleted != 1 {
		t.Fatalf("abandoned jobs must complete: %d/%d panels, %d/%d monitors",
			st.Completed, st.Submitted, st.MonitorsCompleted, st.MonitorsSubmitted)
	}
	if ls := st.Shards[0].Lab; ls.PanelsRun != 1 || ls.MonitorsRun != 0 {
		t.Fatalf("abandoned jobs ran: %d panels, %d monitors, want 1 and 0", ls.PanelsRun, ls.MonitorsRun)
	}
	// The dropped acquisition leaves nothing stored and nothing pending.
	if _, err := client.GetMonitor(context.Background(), "abandoned-monitor"); err == nil || errors.Is(err, advdiag.ErrMonitorPending) {
		t.Fatalf("GET of the dropped acquisition: %v, want not found", err)
	}

	next := glucose("next", 5)
	o, err := client.RunPanel(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	checkReplay(t, fleet, o, next)
	if got := fleet.Stats().Shards[0].Lab.PanelsRun; got != 2 {
		t.Fatalf("shard ran %d panels, want 2", got)
	}
}
