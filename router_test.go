package advdiag_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"advdiag"
)

// view builds a dense n-shard router view with the given targets per
// shard.
func view(targets ...[]string) []advdiag.ShardInfo {
	out := make([]advdiag.ShardInfo, len(targets))
	for i, ts := range targets {
		out[i] = advdiag.ShardInfo{Index: i, Targets: ts, QueueCap: 4}
	}
	return out
}

func TestLeastLoadedRouter(t *testing.T) {
	r := advdiag.LeastLoadedRouter{}
	v := view([]string{"glucose"}, []string{"glucose"}, []string{"glucose"})
	v[0].Load, v[1].Load, v[2].Load = 0.8, 0.2, 0.5
	idx, err := r.Route(advdiag.Sample{}, v)
	if err != nil || idx != 1 {
		t.Fatalf("Route = %d, %v; want 1", idx, err)
	}
	// NaN and negative loads must lose to any finite load, not crash
	// or win the comparison.
	v[1].Load = math.NaN()
	v[0].Load = -3
	idx, err = r.Route(advdiag.Sample{}, v)
	if err != nil || idx != 2 {
		t.Fatalf("Route with NaN/negative loads = %d, %v; want 2", idx, err)
	}
	if _, err := r.Route(advdiag.Sample{}, nil); !errors.Is(err, advdiag.ErrNoShard) {
		t.Fatalf("empty view must return ErrNoShard, got %v", err)
	}
}

func TestAffinityRouter(t *testing.T) {
	r := advdiag.AffinityRouter{}
	v := view([]string{"glucose", "lactate"}, []string{"benzphetamine"})
	s := advdiag.Sample{Concentrations: map[string]float64{"benzphetamine": 0.3}}
	idx, err := r.Route(s, v)
	if err != nil || idx != 1 {
		t.Fatalf("drug sample routed to %d, %v; want 1", idx, err)
	}
	// Unknown panel type: no shard covers cholesterol.
	s = advdiag.Sample{Concentrations: map[string]float64{"cholesterol": 0.1}}
	if _, err := r.Route(s, v); !errors.Is(err, advdiag.ErrNoShard) {
		t.Fatalf("uncovered sample must return ErrNoShard, got %v", err)
	}
	// Empty sample: any shard will do; least-loaded fallback.
	v[0].Load, v[1].Load = 0.9, 0.1
	idx, err = r.Route(advdiag.Sample{}, v)
	if err != nil || idx != 1 {
		t.Fatalf("empty sample routed to %d, %v; want 1 (least loaded)", idx, err)
	}
	// Coverage beats load: shard 0 covers both species even when
	// busier.
	s = advdiag.Sample{Concentrations: map[string]float64{"glucose": 1, "lactate": 1}}
	idx, err = r.Route(s, v)
	if err != nil || idx != 0 {
		t.Fatalf("two-species sample routed to %d, %v; want 0", idx, err)
	}
}

func TestHashRouterStableAndBalanced(t *testing.T) {
	r := &advdiag.HashRouter{}
	v := view([]string{"glucose"}, []string{"glucose"}, []string{"glucose"}, []string{"glucose"})
	counts := make([]int, len(v))
	const n = 400
	for i := 0; i < n; i++ {
		s := advdiag.Sample{ID: fmt.Sprintf("patient-%03d", i)}
		idx, err := r.Route(s, v)
		if err != nil {
			t.Fatal(err)
		}
		again, err := r.Route(s, v)
		if err != nil || again != idx {
			t.Fatalf("patient %d moved shards: %d then %d", i, idx, again)
		}
		counts[idx]++
	}
	for sh, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys: %v", sh, counts)
		}
	}
	// Consistent-hash property: removing one shard moves only a
	// fraction of keys (well under a full reshuffle; allow a generous
	// 2/n + slack bound).
	small := v[:3]
	moved := 0
	for i := 0; i < n; i++ {
		s := advdiag.Sample{ID: fmt.Sprintf("patient-%03d", i)}
		a, _ := r.Route(s, v)
		b, _ := r.Route(s, small)
		if a != b && a != 3 {
			moved++
		}
	}
	if frac := float64(moved) / n; frac > 0.2 {
		t.Fatalf("%.0f%% of keys on surviving shards moved after removing one shard; consistent hashing should move ~none", 100*frac)
	}
}

// FuzzRouter throws adversarial samples and shard views at every
// built-in router: unknown panel types, empty samples, NaN loads,
// degenerate queue numbers. Routers must never panic and, when they
// succeed on a dense view, must return an index inside it.
func FuzzRouter(f *testing.F) {
	f.Add("patient-1", "glucose", 1.0, math.NaN(), 3, uint8(0))
	f.Add("", "", math.Inf(1), -1.0, 0, uint8(1))
	f.Add("p", "unobtainium", -5.0, 0.5, 1, uint8(2))
	f.Add("q", "benzphetamine", 0.3, math.Inf(-1), 8, uint8(0))
	f.Fuzz(func(t *testing.T, id, species string, conc, load float64, shardCount int, which uint8) {
		// Reduce before negating: -math.MinInt overflows back to
		// MinInt, but |MinInt % 6| is safe.
		shardCount %= 6
		if shardCount < 0 {
			shardCount = -shardCount
		}
		shards := make([]advdiag.ShardInfo, shardCount)
		for i := range shards {
			shards[i] = advdiag.ShardInfo{
				Index:    i,
				Targets:  []string{"glucose", "benzphetamine"}[:1+i%2],
				QueueLen: i - 2,
				QueueCap: i % 3,
				InFlight: -i,
				Load:     load * float64(i),
			}
		}
		s := advdiag.Sample{ID: id}
		if species != "" {
			s.Concentrations = map[string]float64{species: conc}
		}
		routers := []advdiag.Router{
			advdiag.LeastLoadedRouter{},
			advdiag.AffinityRouter{},
			&advdiag.HashRouter{},
		}
		r := routers[int(which)%len(routers)]
		idx, err := r.Route(s, shards)
		if err != nil {
			return
		}
		if idx < 0 || idx >= len(shards) {
			t.Fatalf("%T returned %d for a %d-shard view", r, idx, len(shards))
		}
	})
}

// viewOf builds a router view with the given real shard indices — the
// sparse views routers see after a quarantine or a RemoveShard.
func viewOf(indices ...int) []advdiag.ShardInfo {
	out := make([]advdiag.ShardInfo, len(indices))
	for i, idx := range indices {
		out[i] = advdiag.ShardInfo{Index: idx, Targets: []string{"glucose"}, QueueCap: 4}
	}
	return out
}

// TestHashRouterMinimalRemapOnRemove: virtual nodes are named by the
// shard's real index, so dropping shard 2 from the view reassigns only
// the keys that sat on shard 2's vnodes — every key on shard 0, 1 or 3
// keeps its shard exactly, not just approximately.
func TestHashRouterMinimalRemapOnRemove(t *testing.T) {
	r := &advdiag.HashRouter{}
	full, reduced := viewOf(0, 1, 2, 3), viewOf(0, 1, 3)
	const n = 500
	orphans := 0
	for i := 0; i < n; i++ {
		s := advdiag.Sample{ID: fmt.Sprintf("patient-%03d", i)}
		a, err := r.Route(s, full)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Route(s, reduced)
		if err != nil {
			t.Fatal(err)
		}
		if a == 2 {
			orphans++
			if b == 2 {
				t.Fatalf("key %q routed to shard 2 after its removal", s.ID)
			}
			continue
		}
		if b != a {
			t.Fatalf("key %q moved %d→%d though its shard survived the removal", s.ID, a, b)
		}
	}
	if orphans == 0 {
		t.Fatal("no key ever routed to the removed shard; the check is vacuous")
	}
}

// TestHashRouterMinimalRemapOnAdd: growing the view steals keys only
// for the newcomer — a key that moves at all moves to the new shard.
func TestHashRouterMinimalRemapOnAdd(t *testing.T) {
	r := &advdiag.HashRouter{}
	old, grown := viewOf(0, 1, 2), viewOf(0, 1, 2, 3)
	const n = 500
	stolen := 0
	for i := 0; i < n; i++ {
		s := advdiag.Sample{ID: fmt.Sprintf("patient-%03d", i)}
		a, err := r.Route(s, old)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Route(s, grown)
		if err != nil {
			t.Fatal(err)
		}
		if b != a {
			if b != 3 {
				t.Fatalf("key %q moved %d→%d; AddShard may only steal keys for the new shard", s.ID, a, b)
			}
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("the new shard received no keys")
	}
	// The newcomer should take roughly 1/4 of the keyspace, certainly
	// not most of it.
	if frac := float64(stolen) / n; frac > 0.5 {
		t.Fatalf("adding one shard moved %.0f%% of keys; consistent hashing should move ~1/N", 100*frac)
	}
}

// TestAffinityRouterQuarantinedCoverage: when the only shard covering
// a panel type is quarantined, affinity submissions for that panel
// fail with ErrNoShard instead of landing on a shard that cannot
// measure the species — and they recover when probes restore it.
func TestAffinityRouterQuarantinedCoverage(t *testing.T) {
	glucose, err := advdiag.DesignPlatform([]string{"glucose"}, advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	drug, err := advdiag.DesignPlatform([]string{"benzphetamine"}, advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := advdiag.NewFleet([]*advdiag.Platform{glucose, drug},
		advdiag.WithFleetRouter(advdiag.AffinityRouter{}))
	if err != nil {
		t.Fatal(err)
	}
	drugSample := advdiag.Sample{ID: "p-drug", Concentrations: map[string]float64{"benzphetamine": 0.3}}
	if err := fleet.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Submit(drugSample); !errors.Is(err, advdiag.ErrNoShard) {
		t.Fatalf("drug panel with its only shard quarantined: %v, want ErrNoShard", err)
	}
	// The glucose panel is unaffected by the sibling's quarantine.
	if err := fleet.Submit(advdiag.Sample{ID: "p-glu", Concentrations: map[string]float64{"glucose": 1}}); err != nil {
		t.Fatal(err)
	}
	if o := <-fleet.Results(); o.Err != nil || o.Shard != 0 {
		t.Fatalf("glucose outcome shard %d err %v", o.Shard, o.Err)
	}
	// Probe-restore brings the panel type back online, after three
	// consecutive known-good probes.
	for sweep := 0; sweep < 3; sweep++ {
		if !isQuarantined(fleet, 1) {
			t.Fatalf("shard restored after %d probe sweeps, want 3", sweep)
		}
		fleet.ProbeShards()
	}
	if err := fleet.Submit(drugSample); err != nil {
		t.Fatalf("drug panel after restore: %v", err)
	}
	if o := <-fleet.Results(); o.Err != nil || o.Shard != 1 {
		t.Fatalf("drug outcome shard %d err %v", o.Shard, o.Err)
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetRemovalEmptiesRoutingView: removing the last routable shard
// mid-batch fails the undeliverable backlog with outcomes wrapping
// ErrNoShard (nothing vanishes, Drain cannot hang), rejects new
// submissions with ErrNoShard, and AddShard brings the fleet back.
//
// The backlog is the queue plus the parked jobs. A worker that has
// dequeued a job but not yet parked it when RemoveShard lifts the dead
// fault runs that job healthy on the removed shard, like any other
// straggler (see RemoveShard), so up to one outcome per worker may be
// a successful shard-0 panel instead of ErrNoShard.
func TestFleetRemovalEmptiesRoutingView(t *testing.T) {
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 1),
		advdiag.WithFleetWorkers(1), advdiag.WithFleetQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	// Park the only worker under a dead fault so a backlog builds up
	// that removal must fail over — to nobody.
	if err := fleet.InjectFault(advdiag.Fault{Kind: advdiag.FaultDeadShard, Shard: 0}); err != nil {
		t.Fatal(err)
	}
	const n = 4
	for _, s := range mixedCohort(n) {
		if err := fleet.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.RemoveShard(0); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	ran := 0
	for i := 0; i < n; i++ {
		o := <-fleet.Results()
		switch {
		case errors.Is(o.Err, advdiag.ErrNoShard):
		case o.Err == nil && o.Shard == 0:
			ran++ // held by the worker when the fault lifted
		default:
			t.Fatalf("stranded sample %d: shard %d err %v, want ErrNoShard", o.Index, o.Shard, o.Err)
		}
		seen[o.Index] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct stranded outcomes, want %d", len(seen), n)
	}
	if ran > 1 {
		t.Fatalf("%d samples ran on the removed shard; only the one its single worker held may", ran)
	}
	if err := fleet.Submit(mixedCohort(1)[0]); !errors.Is(err, advdiag.ErrNoShard) {
		t.Fatalf("submit to an empty routing view: %v, want ErrNoShard", err)
	}
	// AddShard repopulates the view; traffic flows again.
	idx, err := fleet.AddShard(fleetPlatforms(t, 1)[0])
	if err != nil || idx != 1 {
		t.Fatalf("AddShard = %d, %v; want 1", idx, err)
	}
	if err := fleet.Submit(mixedCohort(1)[0]); err != nil {
		t.Fatal(err)
	}
	if o := <-fleet.Results(); o.Err != nil || o.Shard != 1 {
		t.Fatalf("post-regrow outcome shard %d err %v", o.Shard, o.Err)
	}
	fleet.Drain()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}

// rogueRouter returns a fixed shard index no matter what the routing
// view says — a stand-in for a buggy routing policy. The fleet must
// reject its picks (out-of-range, or pointing at a quarantined shard)
// as routing errors instead of crashing or silently misrouting onto an
// instrument that is out of service.
type rogueRouter struct{ idx int }

func (r *rogueRouter) Route(advdiag.Sample, []advdiag.ShardInfo) (int, error) {
	return r.idx, nil
}

func TestFleetRejectsRogueRouter(t *testing.T) {
	router := &rogueRouter{idx: 99}
	fleet, err := advdiag.NewFleet(fleetPlatforms(t, 2),
		advdiag.WithFleetWorkers(1),
		advdiag.WithFleetRouter(router))
	if err != nil {
		t.Fatal(err)
	}
	sample := mixedCohort(1)[0]
	if err := fleet.Submit(sample); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range router pick: %v, want out-of-range error", err)
	}
	router.idx = 1
	if err := fleet.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Submit(sample); err == nil || !strings.Contains(err.Error(), "unroutable") {
		t.Fatalf("quarantined router pick: %v, want unroutable error", err)
	}
	// A sane pick still flows, and both rejections were counted.
	router.idx = 0
	if err := fleet.Submit(sample); err != nil {
		t.Fatal(err)
	}
	if o := <-fleet.Results(); o.Err != nil || o.Shard != 0 {
		t.Fatalf("healthy pick: shard %d err %v", o.Shard, o.Err)
	}
	fleet.Drain()
	if st := fleet.Stats(); st.RouteErrors != 2 {
		t.Fatalf("RouteErrors = %d, want 2", st.RouteErrors)
	}
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
}
