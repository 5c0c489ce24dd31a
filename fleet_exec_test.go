package advdiag

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// execPlatform lazily designs the platform the exec tests share.
var execPlatform = sync.OnceValues(func() (*Platform, error) {
	return DesignPlatform([]string{"glucose", "benzphetamine"}, WithPlatformSeed(9))
})

// newExecFleet builds a one-shard, one-worker fleet over execPlatform
// and closes it when the test ends.
func newExecFleet(t *testing.T, opts ...FleetOption) (*Fleet, *Platform) {
	t.Helper()
	p, err := execPlatform()
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet([]*Platform{p}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, p
}

// waitQueueLen polls until shard 0's queue holds n jobs.
func waitQueueLen(t *testing.T, f *Fleet, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Stats().Shards[0].QueueLen != n {
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 queue never reached %d jobs", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecDropsJobAbandonedDuringDelay: a slow shard sleeps before a
// job, and a requester that leaves during that sleep gets its context
// error back — the job never runs.
func TestExecDropsJobAbandonedDuringDelay(t *testing.T) {
	f, _ := newExecFleet(t)
	if err := f.InjectFault(Fault{Kind: FaultSlowShard, Shard: 0, Delay: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan PanelOutcome, 1)
	job := fleetJob{
		sample: Sample{ID: "leaver", Concentrations: map[string]float64{"glucose": 3}},
		ctx:    ctx,
		done:   func(o PanelOutcome) { got <- o },
	}
	if err := f.submit([]fleetJob{job}, true)[0]; err != nil {
		t.Fatal(err)
	}
	// Submit returned once the job was queued, so an empty queue means
	// the worker has dequeued it and is sleeping out the delay.
	waitQueueLen(t, f, 0)
	cancel()
	if o := <-got; !errors.Is(o.Err, context.Canceled) {
		t.Fatalf("abandoned job completed with %v, want context.Canceled", o.Err)
	}
	st := f.Stats()
	if st.Completed != 1 {
		t.Fatalf("abandoned job not counted complete: %d of %d", st.Completed, st.Submitted)
	}
	if n := st.Shards[0].Lab.PanelsRun; n != 0 {
		t.Fatalf("abandoned job ran: %d panels run, want 0", n)
	}
}

// TestExecCoalescedRunEndsInMonitor: panels queued behind a held job
// coalesce into one batch with the monitor job that ends the drain.
// Every panel replays bit for bit, the batch members share the
// batch's per-panel wall time, and the monitor equals Lab.RunMonitor
// of the same request.
func TestExecCoalescedRunEndsInMonitor(t *testing.T) {
	f, p := newExecFleet(t, WithFleetQueueDepth(16))
	if err := f.InjectFault(Fault{Kind: FaultDeadShard, Shard: 0}); err != nil {
		t.Fatal(err)
	}
	samples := make([]Sample, 6)
	for i := range samples {
		samples[i] = Sample{ID: fmt.Sprintf("s%d", i), Concentrations: map[string]float64{
			"glucose": 0.5 + 0.3*float64(i), "benzphetamine": 0.2 + 0.05*float64(i),
		}}
	}
	req := MonitorRequest{ID: "tail", Target: "glucose", ConcentrationMM: 2, DurationSeconds: 8,
		BaselineSeconds: 2, Seed: MonitorSeed(7, "tail", 0)}
	// The dead shard holds the first panel; the rest and the monitor
	// queue behind it until the fault clears.
	for _, s := range samples {
		if err := f.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SubmitMonitor(req); err != nil {
		t.Fatal(err)
	}
	waitQueueLen(t, f, len(samples))
	f.ClearFaults()

	outs := make([]PanelOutcome, len(samples))
	for range samples {
		o := <-f.Results()
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		outs[o.Index] = o
	}
	for i, o := range outs {
		r, err := f.ReplayPanel(o.Shard, o.Index, samples[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Fingerprint() != o.Result.Fingerprint() {
			t.Errorf("%s: served panel does not replay", o.ID)
		}
	}
	for _, o := range outs[2:] {
		if o.WallSeconds != outs[1].WallSeconds {
			t.Fatalf("panels queued behind the held one did not run as one batch: wall %v vs %v",
				o.WallSeconds, outs[1].WallSeconds)
		}
	}

	mon := <-f.MonitorResults()
	if mon.Err != nil {
		t.Fatal(mon.Err)
	}
	lab, err := NewLab(p, WithLabWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := lab.RunMonitor(req)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if mon.Result.Fingerprint() != want.Result.Fingerprint() {
		t.Fatal("coalesced monitor differs from Lab.RunMonitor")
	}
	if ls := f.Stats().Shards[0].Lab; ls.PanelsRun != uint64(len(samples)) || ls.MonitorsRun != 1 {
		t.Fatalf("shard ran %d panels and %d monitors, want %d and 1", ls.PanelsRun, ls.MonitorsRun, len(samples))
	}
}

// TestExecSinglePanelRun: a lone panel runs as a batch of one, replays
// bit for bit, and keeps its own wall time — the whole span the shard's
// stats record.
func TestExecSinglePanelRun(t *testing.T) {
	f, _ := newExecFleet(t)
	s := Sample{ID: "lone", Concentrations: map[string]float64{"glucose": 4, "benzphetamine": 0.4}}
	o := f.RunPanels([]Sample{s})[0]
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	r, err := f.ReplayPanel(o.Shard, o.Index, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fingerprint() != o.Result.Fingerprint() {
		t.Fatal("single panel does not replay")
	}
	ls := f.Stats().Shards[0].Lab
	if ls.PanelsRun != 1 || o.WallSeconds <= 0 || o.WallSeconds != ls.WallSeconds {
		t.Fatalf("single panel: wall %v s, shard stats %d panels over %v s", o.WallSeconds, ls.PanelsRun, ls.WallSeconds)
	}
}
