package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks a run to well under a second of traffic.
func tinyConfig(t *testing.T, trace bool) config {
	return config{
		seed:         7,
		seconds:      0.4,
		trace:        trace,
		setups:       3,
		warmup:       50 * time.Millisecond,
		checkEvery:   1,
		window:       100 * time.Millisecond,
		cohort:       20,
		kernelBudget: 2 * time.Millisecond,
		outDir:       t.TempDir(),
	}
}

// TestWorkloadsPrintEveryMetric runs each workload at tiny size, untraced
// and traced, and requires the correctness check to pass and every
// catalogued metric to print, in the JSON line, with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, trace)
			rep, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			var out bytes.Buffer
			printReport(&out, cfg, rep)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v\n%s", w.name, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d, check: %v", w.name, trace, res.Correct, res.Attempted, res.Failed, rep.checkErr)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %q", w.name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestReplayCheckCatchesCorruption serves a few panels, requires the
// replay check to pass, then corrupts one served result and requires it
// to fail.
func TestReplayCheckCatchesCorruption(t *testing.T) {
	cfg := tinyConfig(t, false)
	pw := panelWorkload{name: "poc-interactive", spec: stackSpec{targets: pocTargets, depth: 8, http: true}}
	st, err := startStack(pw.spec, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	pp, err := pw.drive(st, samplePool(cfg.seed, pocTargets, 16), cfg, 0, 1, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := pp.col.recs
	if len(recs) == 0 {
		t.Fatal("no panels recorded for the replay check")
	}
	if err := verifyPanels(st.fleet, recs); err != nil {
		t.Fatalf("clean run fails the replay check: %v", err)
	}
	recs[len(recs)/2].out.Result.Readings[0].EstimatedMM += 1e-9
	if err := verifyPanels(st.fleet, recs); err == nil {
		t.Fatal("replay check passed with a corrupted result")
	}
}

// TestCohortCheckCatchesCorruption runs one small round, requires the
// cohort re-run to agree, then corrupts one campaign fingerprint and
// requires the check to fail.
func TestCohortCheckCatchesCorruption(t *testing.T) {
	cfg := tinyConfig(t, false)
	st, err := startStack(stackSpec{targets: monitorTargets, depth: monitorDepth}, "scheduler")
	if err != nil {
		t.Fatal(err)
	}
	b := newTickBackend(st.fleet, st.hooks)
	defer func() {
		st.close()
		<-b.done
	}()
	mp, err := driveMonitor(cfg, b, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.recs) != cfg.cohort {
		t.Fatalf("recorded %d campaigns, want %d", len(mp.recs), cfg.cohort)
	}
	if err := verifyCohort(st.platform, cfg.seed, mp.recs); err != nil {
		t.Fatalf("clean round fails the cohort check: %v", err)
	}
	mp.recs[3].fingerprint ^= 1
	if err := verifyCohort(st.platform, cfg.seed, mp.recs); err == nil {
		t.Fatal("cohort check passed with a corrupted fingerprint")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the
// repository root in step with the workloads and metric catalogs here.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		name string
		json []metric
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.name, len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %s %s", c.name, i, c.json[i], d.name, d.unit)
			}
		}
	}
}
