package advdiag_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"advdiag"
)

// probeDeadline bounds the probe-stepping loops: generous for CI, far
// above what the sweeps need.
const probeDeadline = 60 * time.Second

// probeUntil steps ProbeShards until cond holds, failing the test at
// the deadline.
func probeUntil(t *testing.T, fleet *advdiag.Fleet, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(probeDeadline)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("probes never reached %s", what)
		}
		fleet.ProbeShards()
	}
}

// isQuarantined reports whether the shard is in the fleet's quarantine
// set.
func isQuarantined(fleet *advdiag.Fleet, shard int) bool {
	for _, q := range fleet.Quarantined() {
		if q == shard {
			return true
		}
	}
	return false
}

// TestFleetFlakyFaultValidation: the flaky fault's duty cycle and
// period are range-checked like every other fault.
func TestFleetFlakyFaultValidation(t *testing.T) {
	bad := []advdiag.Fault{
		{Kind: advdiag.FaultFlakyShard, Shard: 0, Severity: 0, Period: 5},
		{Kind: advdiag.FaultFlakyShard, Shard: 0, Severity: 1, Period: 5},
		{Kind: advdiag.FaultFlakyShard, Shard: 0, Severity: math.NaN(), Period: 5},
		{Kind: advdiag.FaultFlakyShard, Shard: 0, Severity: 0.5, Period: 1},
		{Kind: advdiag.FaultFlakyShard, Shard: 0, Severity: 0.5, Period: 0},
	}
	for _, ft := range bad {
		if err := ft.Validate(2); err == nil {
			t.Errorf("fault %+v accepted", ft)
		}
	}
	ok := advdiag.Fault{Kind: advdiag.FaultFlakyShard, Shard: 1, Severity: 0.5, Period: 2}
	if err := ok.Validate(2); err != nil {
		t.Errorf("fault %+v rejected: %v", ok, err)
	}
	if got := advdiag.FaultFlakyShard.String(); got != "flaky_shard" {
		t.Errorf("FaultFlakyShard.String() = %q", got)
	}
}

// TestBreakerStateJSON: breaker positions round-trip through their
// string form on the wire, and garbage is refused.
func TestBreakerStateJSON(t *testing.T) {
	for _, b := range []advdiag.BreakerState{advdiag.BreakerClosed, advdiag.BreakerOpen, advdiag.BreakerHalfOpen} {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		var back advdiag.BreakerState
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != b {
			t.Fatalf("breaker %v round-tripped to %v", b, back)
		}
	}
	var b advdiag.BreakerState
	if err := json.Unmarshal([]byte(`"ajar"`), &b); err == nil {
		t.Fatal("unknown breaker state accepted")
	}
}

// TestFleetAddShardLive: growing the fleet mid-batch changes where
// samples run, never what they produce — the first half of the
// elasticity tentpole.
func TestFleetAddShardLive(t *testing.T) {
	samples := mixedCohort(48)
	lab, err := advdiag.NewLab(fleetPlatforms(t, 1)[0], advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprints(t, lab.RunPanels(samples))

	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2), advdiag.WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]advdiag.PanelOutcome, len(samples))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for o := range fleet.Results() {
			got[o.Index] = o
		}
	}()

	for i, s := range samples {
		if i == len(samples)/2 {
			idx, err := fleet.AddShard(fleetPlatforms(t, 1)[0])
			if err != nil {
				t.Error(err)
				break
			}
			if idx != 2 {
				t.Errorf("new shard took index %d, want 2", idx)
				break
			}
		}
		if err := fleet.Submit(s); err != nil {
			t.Error(err)
			break
		}
	}
	fleet.Drain()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	onNew := 0
	for i, o := range got {
		if o.Err != nil {
			t.Fatalf("sample %d: %v", i, o.Err)
		}
		if o.Result.Fingerprint() != want[i] {
			t.Fatalf("sample %d fingerprint %016x, want %016x (single Lab)", i, o.Result.Fingerprint(), want[i])
		}
		if o.Shard == 2 {
			onNew++
		}
	}
	if onNew == 0 {
		t.Fatal("the added shard never served a sample")
	}
	st := fleet.Stats()
	if len(st.Shards) != 3 {
		t.Fatalf("stats report %d shards after AddShard", len(st.Shards))
	}
	var added bool
	for _, e := range fleet.Events() {
		if e.Kind == advdiag.EventShardAdded && e.Shard == 2 {
			added = true
		}
	}
	if !added {
		t.Fatalf("no shard_added event in %v", fleet.Events())
	}
}

// TestFleetRemoveShardDrainsBacklog: removing a shard whose workers
// are dead (every routed job parked) must reroute the whole backlog to
// the sibling with fingerprints intact — the zero-loss half of the
// elasticity tentpole.
func TestFleetRemoveShardDrainsBacklog(t *testing.T) {
	samples := mixedCohort(32)
	lab, err := advdiag.NewLab(fleetPlatforms(t, 1)[0], advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprints(t, lab.RunPanels(samples))

	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2),
		advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.InjectFault(advdiag.Fault{Kind: advdiag.FaultDeadShard, Shard: 1}); err != nil {
		t.Fatal(err)
	}
	got := make([]advdiag.PanelOutcome, len(samples))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for o := range fleet.Results() {
			got[o.Index] = o
		}
	}()
	for _, s := range samples {
		if err := fleet.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.RemoveShard(1); err != nil {
		t.Fatal(err)
	}
	if err := fleet.RemoveShard(1); err == nil {
		t.Fatal("second removal of the same shard accepted")
	}
	if got := fleet.Removed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Removed() = %v, want [1]", got)
	}
	fleet.Drain()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, o := range got {
		if o.Err != nil {
			t.Fatalf("sample %d lost to the removal: %v", i, o.Err)
		}
		if o.Result.Fingerprint() != want[i] {
			t.Fatalf("sample %d fingerprint moved: %016x want %016x", i, o.Result.Fingerprint(), want[i])
		}
	}
	st := fleet.Stats()
	if len(st.Shards) != 2 || !st.Shards[1].Removed {
		t.Fatalf("stats do not keep the removed shard's slot: %+v", st.Shards)
	}
	if rendered := st.String(); !strings.Contains(rendered, "REMOVED") {
		t.Fatalf("stats report does not mark the removed shard:\n%s", rendered)
	}
}

// TestFleetRemoveShardValidation: out-of-range and closed-fleet
// removals are refused with the right sentinels.
func TestFleetRemoveShardValidation(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.RemoveShard(-1); err == nil {
		t.Fatal("negative shard removal accepted")
	}
	if err := fleet.RemoveShard(5); err == nil {
		t.Fatal("out-of-range shard removal accepted")
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.RemoveShard(0); !errors.Is(err, advdiag.ErrFleetClosed) {
		t.Fatalf("removal on a closed fleet: %v", err)
	}
	if _, err := fleet.AddShard(fleetPlatforms(t, 1)[0]); !errors.Is(err, advdiag.ErrFleetClosed) {
		t.Fatalf("AddShard on a closed fleet: %v", err)
	}
}

// TestFleetShardCountBesideAddShard: Shards, InjectFault and
// InjectFaults read the shard count while AddShard grows it. Under
// go test -race this fails if any of them reads it outside the fleet
// lock; without -race it still checks that every count seen is one the
// fleet had and that a fault aimed at the newest shard is accepted.
func TestFleetShardCountBesideAddShard(t *testing.T) {
	const adds = 3
	plats := fleetPlatforms(t, 1+adds)
	fleet, err := advdiag.NewFleet(plats[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, p := range plats[1:] {
			if _, err := fleet.AddShard(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		n := fleet.Shards()
		if n < 1 || n > 1+adds {
			t.Fatalf("Shards() = %d while growing from 1 to %d", n, 1+adds)
		}
		slow := advdiag.Fault{Kind: advdiag.FaultSlowShard, Shard: n - 1, Delay: time.Millisecond}
		if err := fleet.InjectFault(slow); err != nil {
			t.Fatal(err)
		}
		if err := fleet.InjectFaults(advdiag.FaultPlan{Faults: []advdiag.Fault{slow}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := fleet.Shards(); n != 1+adds {
		t.Fatalf("Shards() = %d after %d AddShard calls, want %d", n, adds, 1+adds)
	}
}

// TestFleetReplayPanel: any outcome replays bit-identically on any
// shard — including one that never ran it — and the accessor range-
// checks its arguments.
func TestFleetReplayPanel(t *testing.T) {
	samples := mixedCohort(16)
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2), advdiag.WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	outs := fleet.RunPanels(samples)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("sample %d: %v", i, o.Err)
		}
		for shard := 0; shard < 2; shard++ {
			ref, err := fleet.ReplayPanel(shard, o.Index, samples[i])
			if err != nil {
				t.Fatalf("replay sample %d on shard %d: %v", i, shard, err)
			}
			if ref.Fingerprint() != o.Result.Fingerprint() {
				t.Fatalf("sample %d (ran on shard %d) replays on shard %d as %016x, served %016x",
					i, o.Shard, shard, ref.Fingerprint(), o.Result.Fingerprint())
			}
		}
	}
	if _, err := fleet.ReplayPanel(-1, 0, samples[0]); err == nil {
		t.Fatal("negative replay shard accepted")
	}
	if _, err := fleet.ReplayPanel(9, 0, samples[0]); err == nil {
		t.Fatal("out-of-range replay shard accepted")
	}
	if _, err := fleet.ReplayPanel(0, -1, samples[0]); err == nil {
		t.Fatal("negative replay index accepted")
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetBreakerLifecycle walks the whole state machine with
// deterministic probe stepping: closed → (probe failures) → open +
// quarantined → (fault cleared, known-good probes) → half-open →
// restored, with the history narrating each transition. Three probe
// failures in a row open the breaker; three known-good probes in a row
// restore the shard.
func TestFleetBreakerLifecycle(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close() //nolint:errcheck // closed in the body on success

	st := fleet.Stats()
	if st.Shards[1].Breaker != advdiag.BreakerClosed {
		t.Fatalf("fresh shard's breaker is %v", st.Shards[1].Breaker)
	}
	// A flaky shard that is down every slot but the last of each long
	// cycle: probes fail back to back and must open the breaker.
	if err := fleet.InjectFault(advdiag.Fault{
		Kind: advdiag.FaultFlakyShard, Shard: 1, Severity: 0.95, Period: 64, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	probeUntil(t, fleet, "quarantine of the flaky shard", func() bool { return isQuarantined(fleet, 1) })
	st = fleet.Stats()
	if st.Shards[1].Breaker != advdiag.BreakerOpen || !st.Shards[1].Quarantined {
		t.Fatalf("tripped shard: %+v", st.Shards[1])
	}

	// Healing: lift the fault, step probes; the shard must come back on
	// its own, with no manual un-quarantine call anywhere in this test.
	fleet.ClearFaults()
	restoredAt := -1
	deadline := time.Now().Add(probeDeadline)
	for sweep := 0; restoredAt < 0; sweep++ {
		if time.Now().After(deadline) {
			t.Fatal("probes never restored the healed shard")
		}
		for _, idx := range fleet.ProbeShards() {
			if idx == 1 {
				restoredAt = sweep
			}
		}
		if restoredAt < 0 && sweep < 2 {
			// After one or two good probes the breaker must be half-open,
			// not yet closed: restore takes three consecutive matches.
			mid := fleet.Stats()
			if mid.Shards[1].Breaker != advdiag.BreakerHalfOpen {
				t.Fatalf("breaker after one good probe: %v", mid.Shards[1].Breaker)
			}
		}
	}
	if restoredAt != 2 {
		t.Fatalf("restored after sweep %d, want 2 (three consecutive known-good probes)", restoredAt)
	}
	st = fleet.Stats()
	if st.Shards[1].Quarantined || st.Shards[1].Breaker != advdiag.BreakerClosed || st.Shards[1].Restores != 1 {
		t.Fatalf("restored shard: %+v", st.Shards[1])
	}

	// The restored shard serves again.
	outs := fleet.RunPanels(mixedCohort(16))
	backOn := false
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("post-restore sample %d: %v", i, o.Err)
		}
		if o.Shard == 1 {
			backOn = true
		}
	}
	if !backOn {
		t.Fatal("restored shard never served")
	}

	kinds := map[string]int{}
	tripped := false
	for _, e := range fleet.Events() {
		kinds[e.Kind]++
		if e.At.IsZero() {
			t.Fatalf("event %+v has no timestamp", e)
		}
		if e.Kind == advdiag.EventProbed && e.Detail == "probe failure 3/3" {
			tripped = true
		}
	}
	if kinds[advdiag.EventQuarantined] != 1 || kinds[advdiag.EventRestored] != 1 || kinds[advdiag.EventProbed] == 0 {
		t.Fatalf("history does not narrate the lifecycle: %v", kinds)
	}
	if !tripped {
		t.Fatal("history has no third consecutive probe failure before the trip")
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetOperatorQuarantineIsProbeRestorable: a shard quarantined by
// hand (or by the diagnoser) — not by probes — is still brought back
// by probe sweeps once healthy. Quarantine is one state however it was
// entered; this is what closes the convicted-then-cleared loop.
func TestFleetOperatorQuarantineIsProbeRestorable(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	if st := fleet.Stats(); st.Shards[1].Breaker != advdiag.BreakerOpen {
		t.Fatalf("operator quarantine left the breaker %v", st.Shards[1].Breaker)
	}
	probeUntil(t, fleet, "restore of the healthy quarantined shard", func() bool { return !isQuarantined(fleet, 1) })
	if st := fleet.Stats(); st.Shards[1].Restores != 1 {
		t.Fatalf("restore not counted: %+v", st.Shards[1])
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetStartHealthProbes: the background sweeper quarantines and
// restores without any manual stepping; stop is idempotent.
func TestFleetStartHealthProbes(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	stop := fleet.StartHealthProbes(time.Millisecond)
	// One healthy slot per 4-slot cycle: the down-run (3) reaches the
	// failure threshold (3), and the up-run (1) is shorter than the
	// restore threshold (3), so background probes can never falsely
	// restore the shard while the fault persists through quarantine —
	// only ClearFaults below brings it back.
	if err := fleet.InjectFault(advdiag.Fault{
		Kind: advdiag.FaultFlakyShard, Shard: 0, Severity: 0.75, Period: 4, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(probeDeadline)
	for !isQuarantined(fleet, 0) {
		if time.Now().After(deadline) {
			t.Fatal("background probes never quarantined the flaky shard")
		}
		time.Sleep(time.Millisecond)
	}
	fleet.ClearFaults()
	for isQuarantined(fleet, 0) {
		if time.Now().After(deadline) {
			t.Fatal("background probes never restored the healed shard")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetChaosElasticSelfHealing is the acceptance scenario, built
// to run under -race -count=5: a live mixed batch is in flight while a
// flaky shard's breaker opens, a healthy shard is removed, a fresh one
// is added, and the cleared shard is probe-restored — with zero lost
// panels and every fingerprint bit-identical to a single Lab AND to
// ReplayPanel recomputations on three different shards.
func TestFleetChaosElasticSelfHealing(t *testing.T) {
	samples := mixedCohort(64)
	lab, err := advdiag.NewLab(fleetPlatforms(t, 1)[0], advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprints(t, lab.RunPanels(samples))

	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 3),
		advdiag.WithFleetWorkers(2),
		advdiag.WithFleetQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[int]advdiag.PanelOutcome{}
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for o := range fleet.Results() {
			mu.Lock()
			got[o.Index] = o
			mu.Unlock()
		}
	}()

	// Shard 1 turns flaky under live load.
	if err := fleet.InjectFault(advdiag.Fault{
		Kind: advdiag.FaultFlakyShard, Shard: 1, Severity: 0.8, Period: 5, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	var submitter sync.WaitGroup
	submitter.Add(1)
	go func() {
		defer submitter.Done()
		for _, s := range samples {
			if err := fleet.Submit(s); err != nil {
				t.Errorf("submit %s: %v", s.ID, err)
				return
			}
		}
	}()

	// The breaker must open on probe evidence alone.
	probeUntil(t, fleet, "quarantine of the flaky shard", func() bool { return isQuarantined(fleet, 1) })

	// Topology changes mid-batch: retire a healthy shard, grow a fresh
	// one.
	if err := fleet.RemoveShard(2); err != nil {
		t.Fatal(err)
	}
	idx, err := fleet.AddShard(fleetPlatforms(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("new shard took index %d, want 3", idx)
	}

	// The fault clears; probes must restore shard 1 with no manual
	// un-quarantine.
	fleet.ClearFaults()
	probeUntil(t, fleet, "restore of the healed shard", func() bool { return !isQuarantined(fleet, 1) })

	submitter.Wait()
	fleet.Drain()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()

	if len(got) != len(samples) {
		t.Fatalf("%d of %d panels delivered", len(got), len(samples))
	}
	for i := range samples {
		o, ok := got[i]
		if !ok {
			t.Fatalf("panel %d lost", i)
		}
		if o.Err != nil {
			t.Fatalf("panel %d (%s): %v", i, o.ID, o.Err)
		}
		if fp := o.Result.Fingerprint(); fp != want[i] {
			t.Fatalf("panel %d fingerprint %016x, want %016x (single Lab)", i, fp, want[i])
		}
		// Replay on the surviving shard 0, on whatever shard ran it, and
		// on removed shard 2 — the result is a function of (seed, index,
		// sample), never of topology.
		for _, replayOn := range []int{0, o.Shard, 2} {
			ref, err := fleet.ReplayPanel(replayOn, o.Index, samples[i])
			if err != nil {
				t.Fatalf("replay panel %d on shard %d: %v", i, replayOn, err)
			}
			if ref.Fingerprint() != want[i] {
				t.Fatalf("panel %d replays on shard %d as %016x, want %016x", i, replayOn, ref.Fingerprint(), want[i])
			}
		}
	}
	st := fleet.Stats()
	if st.Rejected != 0 {
		t.Fatalf("blocking submits were rejected: %+v", st)
	}
	if len(st.Shards) != 4 || !st.Shards[2].Removed || st.Shards[1].Restores != 1 {
		t.Fatalf("final topology wrong: %s", st.String())
	}
}

// lifecycleFleet builds the small two-shard fleet every
// FuzzShardLifecycle iteration starts from; the platform design is
// shared across iterations (designs are immutable).
var lifecyclePlatform = sync.OnceValues(func() (*advdiag.Platform, error) {
	return advdiag.DesignPlatform([]string{"glucose", "benzphetamine"}, advdiag.WithPlatformSeed(9))
})

// FuzzShardLifecycle drives a random interleaving of the whole
// elastic-fleet surface — submissions, Add/RemoveShard, fault
// injection, quarantine, probe sweeps, ClearFaults — and requires the
// zero-loss invariant at the end: every accepted sample produces
// exactly one outcome, and the fleet shuts down cleanly (no deadlock,
// no panic, no leaked job).
func FuzzShardLifecycle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 2, 8, 0, 0, 5, 7, 0})
	f.Add([]byte{3, 0, 0, 7, 2, 8, 4, 9, 5, 7, 7, 0, 0, 1, 0, 0})
	f.Add([]byte{6, 9, 0, 7, 7, 2, 8, 2, 16, 0, 5, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := lifecyclePlatform()
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := advdiag.NewFleet([]*advdiag.Platform{p, p},
			advdiag.WithFleetQueueDepth(4))
		if err != nil {
			t.Fatal(err)
		}
		outcomes := 0
		var consumer sync.WaitGroup
		consumer.Add(1)
		go func() {
			defer consumer.Done()
			for range fleet.Results() {
				outcomes++
			}
		}()

		samples := mixedCohort(8)
		const maxOps = 64
		accepted, shards := 0, 2
		for i, b := range data {
			if i >= maxOps {
				break
			}
			arg := int(b) >> 3 // high bits pick the target shard
			switch b % 8 {
			case 0:
				if err := fleet.TrySubmit(samples[i%len(samples)]); err == nil {
					accepted++
				}
			case 1:
				if shards < 6 {
					if _, err := fleet.AddShard(p); err == nil {
						shards++
					}
				}
			case 2:
				fleet.RemoveShard(arg % shards) //nolint:errcheck // repeat removals are expected
			case 3:
				fleet.InjectFault(advdiag.Fault{ //nolint:errcheck // removed shards refuse
					Kind: advdiag.FaultFlakyShard, Shard: arg % shards,
					Severity: 0.5, Period: 3, Seed: uint64(b),
				})
			case 4:
				fleet.InjectFault(advdiag.Fault{ //nolint:errcheck // removed shards refuse
					Kind: advdiag.FaultDeadShard, Shard: arg % shards,
				})
			case 5:
				fleet.ClearFaults()
			case 6:
				fleet.Quarantine(arg % shards) //nolint:errcheck // repeats are expected
			case 7:
				fleet.ProbeShards()
			}
		}
		// Lift every fault so parked and stalled jobs release, then the
		// zero-loss check: accepted in == outcomes out, exactly.
		fleet.ClearFaults()
		fleet.Drain()
		if err := fleet.Close(); err != nil {
			t.Fatal(err)
		}
		consumer.Wait()
		if outcomes != accepted {
			t.Fatalf("%d samples accepted, %d outcomes delivered", accepted, outcomes)
		}
	})
}

// TestFleetEventsRingBounded: the lifecycle history is a bounded ring —
// old events fall off, recent ones survive, order is chronological.
func TestFleetEventsRingBounded(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	// 300 quarantine/restore-by-hand cycles overflow the 256-entry ring.
	for i := 0; i < 300; i++ {
		if err := fleet.Quarantine(1); err != nil {
			t.Fatal(err)
		}
		probeUntil(t, fleet, fmt.Sprintf("restore %d", i), func() bool { return !isQuarantined(fleet, 1) })
	}
	events := fleet.Events()
	if len(events) != 256 {
		t.Fatalf("ring holds %d events, want 256", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At.Before(events[i-1].At) {
			t.Fatalf("events out of order at %d", i)
		}
	}
	last := events[len(events)-1]
	if last.Kind != advdiag.EventRestored {
		t.Fatalf("last event is %q, want the final restore", last.Kind)
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetFlakyStallAndRelease covers the down-slot job path without
// any quarantine in sight: on a single-shard fleet a flaky fault
// stalls roughly half the jobs (they have no sibling to reroute to and
// no parked worker to own them), ClearFaults reroutes the stalled
// backlog — often straight back to the now-healthy shard — and every
// fingerprint still matches a local Lab run.
func TestFleetFlakyStallAndRelease(t *testing.T) {
	samples := mixedCohort(12)
	lab, err := advdiag.NewLab(fleetPlatforms(t, 1)[0], advdiag.WithLabWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprints(t, lab.RunPanels(samples))

	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 1),
		advdiag.WithFleetWorkers(1),
		advdiag.WithFleetQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	injectFaults(t, fleet, advdiag.Fault{Kind: advdiag.FaultFlakyShard, Shard: 0, Severity: 0.5, Period: 2, Seed: 3})
	got := make([]uint64, len(samples))
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range samples {
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
	// Wait for the worker to drain the queue and strand the down-slot
	// jobs, so the lift below finds a real backlog. A stalled job stays
	// in the in-flight count (dequeued, never completed) until
	// something reroutes it: with the 1-in-2 duty cycle, an empty queue
	// plus two or more in flight means at least one job is stalled
	// rather than merely executing.
	deadline := time.Now().Add(probeDeadline)
	for {
		st := fleet.Stats()
		sh := st.Shards[0]
		if sh.QueueLen == 0 && sh.InFlight >= 2 && st.Completed+uint64(sh.InFlight) == uint64(len(samples)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stalled backlog formed: completed %d, shard %+v", st.Completed, sh)
		}
		time.Sleep(time.Millisecond)
	}
	fleet.ClearFaults()
	<-collected
	fleet.Drain()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: fingerprint %016x after stall+release, want %016x", i, got[i], want[i])
		}
	}
	if st := fleet.Stats(); st.Completed != uint64(len(samples)) {
		t.Fatalf("completed %d of %d", st.Completed, len(samples))
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}
