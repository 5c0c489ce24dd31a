package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"advdiag/internal/experiments"
)

func TestBaselineRoundTripAndCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{
  "generated_at": "2026-07-29T00:00:00Z",
  "host": "test",
  "patients": 8,
  "single_worker_panels_per_sec": 100,
  "benchmarks": {"Fig4_MultiPanelPlatform": {"ns_per_op": 1e6, "bytes_per_op": 1000, "allocs_per_op": 10}}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.SingleWorkerPanelsPerSec != 100 || base.Patients != 8 {
		t.Fatalf("parsed %+v", base)
	}

	var b strings.Builder
	// Within tolerance: 80 ≥ 100·(1−0.30).
	if err := checkBaseline(&b, base, 80, 0, 0, 0, 0.30); err != nil {
		t.Fatalf("80 vs 100 at 30%% tolerance must pass: %v", err)
	}
	// Beyond tolerance.
	if err := checkBaseline(&b, base, 60, 0, 0, 0, 0.30); err == nil {
		t.Fatal("60 vs 100 at 30% tolerance must fail")
	}
	// Improvements always pass.
	if err := checkBaseline(&b, base, 500, 0, 0, 0, 0.30); err != nil {
		t.Fatalf("improvement must pass: %v", err)
	}
	// A measured fleet rate against a pre-fleet baseline is reported
	// but not diffed.
	if err := checkBaseline(&b, base, 80, 50, 2, 0, 0.30); err != nil {
		t.Fatalf("fleet rate without a fleet baseline must not fail: %v", err)
	}
	if !strings.Contains(b.String(), "baseline:") {
		t.Fatalf("comparison report missing:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "not diffed") {
		t.Fatalf("missing fleet skip note:\n%s", b.String())
	}

	// With a fleet baseline present the fleet rate is enforced too —
	// but only at the same shard count (rates parallelize with shards,
	// so cross-count diffs are not like-for-like).
	base.FleetPanelsPerSec, base.FleetShards = 200, 4
	if err := checkBaseline(&b, base, 80, 150, 4, 0, 0.30); err != nil {
		t.Fatalf("fleet 150 vs 200 at 30%% tolerance must pass: %v", err)
	}
	if err := checkBaseline(&b, base, 80, 100, 4, 0, 0.30); err == nil {
		t.Fatal("fleet 100 vs 200 at 30% tolerance must fail")
	}
	if err := checkBaseline(&b, base, 80, 100, 2, 0, 0.30); err != nil {
		t.Fatalf("mismatched shard counts must skip the fleet diff, not fail: %v", err)
	}
	if !strings.Contains(b.String(), "recorded at 4 shards but measured at 2") {
		t.Fatalf("missing shard-mismatch note:\n%s", b.String())
	}

	// With an allocs/panel baseline present, growth beyond tolerance
	// fails; within tolerance (or with either side missing) it passes.
	base.FleetAllocsPerPanel = 1000
	if err := checkBaseline(&b, base, 80, 150, 4, 1200, 0.30); err != nil {
		t.Fatalf("allocs 1200 vs 1000 at 30%% tolerance must pass: %v", err)
	}
	if err := checkBaseline(&b, base, 80, 150, 4, 1400, 0.30); err == nil {
		t.Fatal("allocs 1400 vs 1000 at 30% tolerance must fail")
	}
	if err := checkBaseline(&b, base, 80, 150, 4, 0, 0.30); err != nil {
		t.Fatalf("missing measured allocs must skip the alloc diff: %v", err)
	}
	if !strings.Contains(b.String(), "allocs/panel") {
		t.Fatalf("missing allocs comparison note:\n%s", b.String())
	}
}

// TestResolveBaselinePath: "auto" names the committed BENCH_PR9.json;
// explicit paths pass through.
func TestResolveBaselinePath(t *testing.T) {
	if got := resolveBaselinePath("whatever.json"); got != "whatever.json" {
		t.Fatalf("explicit path rewritten to %q", got)
	}
	if got := resolveBaselinePath("auto"); got != "BENCH_PR9.json" {
		t.Fatalf("auto resolved to %q", got)
	}
}

// TestWriteBaselineRoundTrip exercises the writer end to end with the
// figure table swapped for a cheap stub (the real Fig. 1–4 runs are
// covered by the bench suite; here we only need the measurement and
// serialization plumbing).
func TestWriteBaselineRoundTrip(t *testing.T) {
	old := figExperiments
	defer func() { figExperiments = old }()
	calls := 0
	figExperiments = map[string]func() (*experiments.Result, error){
		"Stub": func() (*experiments.Result, error) {
			calls++
			time.Sleep(time.Millisecond) // keep b.N small
			return &experiments.Result{}, nil
		},
	}
	path := filepath.Join(t.TempDir(), "out.json")
	var b strings.Builder
	cfg := config{patients: 5, shards: []int{1, 2}}
	if err := writeBaseline(&b, path, cfg, 123.4, 456.7, 321); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("stub experiment never ran")
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.SingleWorkerPanelsPerSec != 123.4 || base.Patients != 5 {
		t.Fatalf("round-tripped %+v", base)
	}
	if base.FleetPanelsPerSec != 456.7 || base.FleetShards != 2 {
		t.Fatalf("fleet numbers lost in the round trip: %+v", base)
	}
	if base.FleetAllocsPerPanel != 321 {
		t.Fatalf("fleet allocs/panel lost in the round trip: %+v", base)
	}

	// Rewriting the labbench half must keep a labload section another
	// tool put in the same file.
	withLoad := []byte(`{"single_worker_panels_per_sec": 1, "labload": {"conns": 4}}`)
	if err := os.WriteFile(path, withLoad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBaseline(&b, path, cfg, 123.4, 456.7, 321); err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(merged), `"labload"`) || !strings.Contains(string(merged), `"conns": 4`) {
		t.Fatalf("labload section dropped on rewrite:\n%s", merged)
	}
	m, ok := base.Benchmarks["Stub"]
	if !ok || m.NsPerOp <= 0 {
		t.Fatalf("stub benchmark metric missing or empty: %+v", base.Benchmarks)
	}
	if !strings.Contains(b.String(), "wrote baseline") {
		t.Fatalf("report missing write confirmation:\n%s", b.String())
	}

	// A failing experiment must surface as an error.
	figExperiments = map[string]func() (*experiments.Result, error){
		"Broken": func() (*experiments.Result, error) { return nil, os.ErrInvalid },
	}
	if err := writeBaseline(&b, filepath.Join(t.TempDir(), "x.json"), config{patients: 1, shards: []int{1}}, 1, 0, 0); err == nil {
		t.Fatal("failing experiment did not fail writeBaseline")
	}
}

func TestRequireSingleWorker(t *testing.T) {
	if err := requireSingleWorker([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if err := requireSingleWorker([]int{2, 4}); err == nil {
		t.Fatal("sweep without a 1-worker row accepted for baseline tracking")
	}
}

func TestReadBaselineErrors(t *testing.T) {
	if _, err := readBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(empty); err == nil {
		t.Fatal("baseline without panels/sec accepted")
	}
}
