package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"advdiag/internal/experiments"
)

// BenchMetric is one benchmark's headline numbers in the baseline file.
type BenchMetric struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Baseline is the schema of BENCH_PR9.json: the tracked performance
// floor future PRs regress against. Panels/sec is the headline number
// (single-worker Lab throughput on the Fig. 4 panel); the Fig. 1–4
// experiment benchmarks pin the per-protocol costs.
type Baseline struct {
	// GeneratedAt and Host document where the numbers came from —
	// absolute throughput is only comparable on similar hardware.
	GeneratedAt string `json:"generated_at"`
	Host        string `json:"host"`
	// Patients is the cohort size the throughput was measured over.
	Patients int `json:"patients"`
	// SingleWorkerPanelsPerSec is the 1-worker RunPanels rate.
	SingleWorkerPanelsPerSec float64 `json:"single_worker_panels_per_sec"`
	// FleetPanelsPerSec is the Fleet throughput on mixed panel traffic
	// at the largest swept shard count (single worker per shard); 0
	// when the baseline predates the fleet sweep or -fleet was off.
	FleetPanelsPerSec float64 `json:"fleet_panels_per_sec,omitempty"`
	// FleetShards records the shard count behind FleetPanelsPerSec.
	FleetShards int `json:"fleet_shards,omitempty"`
	// FleetAllocsPerPanel is the heap allocations per panel measured
	// over the same mixed-traffic row as FleetPanelsPerSec; 0 when the
	// baseline predates the batching work (PR 9).
	FleetAllocsPerPanel float64 `json:"fleet_allocs_per_panel,omitempty"`
	// Benchmarks maps experiment name → cost of one full run.
	Benchmarks map[string]BenchMetric `json:"benchmarks"`
}

// figExperiments are the paper-figure experiments the baseline tracks.
var figExperiments = map[string]func() (*experiments.Result, error){
	"Fig1_PotentiostatTIA":     experiments.Fig1,
	"Fig2_AcquisitionChain":    experiments.Fig2,
	"Fig3_GlucoseTimeResponse": experiments.Fig3,
	"Fig4_MultiPanelPlatform":  experiments.Fig4,
}

// measureFigBenchmarks runs each figure experiment under the testing
// benchmark driver and collects ns/op, B/op and allocs/op.
func measureFigBenchmarks(w io.Writer) (map[string]BenchMetric, error) {
	names := make([]string, 0, len(figExperiments))
	for name := range figExperiments {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]BenchMetric, len(names))
	for _, name := range names {
		fn := figExperiments[name]
		var failure error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fn(); err != nil {
					failure = err
					b.Fatal(err)
				}
			}
		})
		if failure != nil {
			return nil, fmt.Errorf("labbench: benchmark %s: %w", name, failure)
		}
		m := BenchMetric{
			NsPerOp:     float64(res.NsPerOp()),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		out[name] = m
		fmt.Fprintf(w, "bench %-26s %12.0f ns/op %10d B/op %8d allocs/op\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	return out, nil
}

// resolveBaselinePath maps the special value "auto" to the committed
// baseline, BENCH_PR9.json. Explicit paths pass through untouched.
func resolveBaselinePath(path string) string {
	if path == "auto" {
		return "BENCH_PR9.json"
	}
	return path
}

// writeBaseline measures the figure benchmarks and writes the full
// baseline file.
func writeBaseline(w io.Writer, path string, cfg config, panelsPerSec, fleetPanelsPerSec, fleetAllocsPerPanel float64) error {
	fmt.Fprintf(w, "\nmeasuring Fig. 1-4 benchmarks for %s...\n", path)
	benches, err := measureFigBenchmarks(w)
	if err != nil {
		return err
	}
	b := Baseline{
		GeneratedAt:              time.Now().UTC().Format(time.RFC3339),
		Host:                     fmt.Sprintf("%s/%s, %d cpu", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Patients:                 cfg.patients,
		SingleWorkerPanelsPerSec: panelsPerSec,
		Benchmarks:               benches,
	}
	if fleetPanelsPerSec > 0 {
		b.FleetPanelsPerSec = fleetPanelsPerSec
		b.FleetShards = cfg.shards[len(cfg.shards)-1]
		b.FleetAllocsPerPanel = fleetAllocsPerPanel
	}
	raw, err := json.Marshal(b)
	if err != nil {
		return err
	}
	var merged map[string]json.RawMessage
	if err := json.Unmarshal(raw, &merged); err != nil {
		return err
	}
	// cmd/labload writes its latency/codec section into the same file;
	// keep it when regenerating the labbench half so the two tools can
	// co-own the baseline in either order.
	if prev, err := os.ReadFile(path); err == nil {
		var old map[string]json.RawMessage
		if json.Unmarshal(prev, &old) == nil {
			if ll, ok := old["labload"]; ok {
				merged["labload"] = ll
			}
		}
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote baseline %s (%.1f panels/sec single-worker)\n", path, panelsPerSec)
	return nil
}

// requireSingleWorker guards the baseline flags: the tracked number is
// the single-worker rate, so writing or diffing a baseline from a sweep
// without a 1-worker row would silently record (or compare against) a
// multi-worker figure.
func requireSingleWorker(workers []int) error {
	for _, n := range workers {
		if n == 1 {
			return nil
		}
	}
	return fmt.Errorf("labbench: -json/-baseline track the single-worker rate; include 1 in -workers (got %v)", workers)
}

// readBaseline loads a committed baseline file.
func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("labbench: parse %s: %w", path, err)
	}
	if b.SingleWorkerPanelsPerSec <= 0 {
		return nil, fmt.Errorf("labbench: %s has no single_worker_panels_per_sec", path)
	}
	return &b, nil
}

// checkBaseline compares the measured single-worker rate — and, when
// both sides have one at the same shard count, the fleet rate —
// against the committed baseline and errors on a regression beyond
// tolerance (e.g. 0.30 = fail when more than 30% slower).
func checkBaseline(w io.Writer, base *Baseline, measured, measuredFleet float64, measuredFleetShards int, measuredFleetAllocs, tolerance float64) error {
	floor := base.SingleWorkerPanelsPerSec * (1 - tolerance)
	ratio := measured / base.SingleWorkerPanelsPerSec
	fmt.Fprintf(w, "\nbaseline: %.1f panels/sec recorded (%s), measured %.1f (%.0f%%), floor %.1f\n",
		base.SingleWorkerPanelsPerSec, base.Host, measured, 100*ratio, floor)
	if measured < floor {
		return fmt.Errorf("labbench: panels/sec regressed beyond %.0f%%: measured %.1f vs baseline %.1f",
			100*tolerance, measured, base.SingleWorkerPanelsPerSec)
	}
	switch {
	case measuredFleet <= 0:
		// -fleet was off; nothing to diff.
	case base.FleetPanelsPerSec <= 0:
		fmt.Fprintf(w, "baseline has no fleet_panels_per_sec yet; measured %.1f not diffed (regenerate with -fleet -json)\n", measuredFleet)
	case base.FleetShards != measuredFleetShards:
		// Rates at different shard counts are not like-for-like (the
		// sweep parallelizes with shards on multi-core hosts).
		fmt.Fprintf(w, "fleet baseline recorded at %d shards but measured at %d; not diffed (align -shards or regenerate)\n",
			base.FleetShards, measuredFleetShards)
	default:
		fleetFloor := base.FleetPanelsPerSec * (1 - tolerance)
		fmt.Fprintf(w, "fleet baseline: %.1f panels/sec recorded (%d shards), measured %.1f (%.0f%%), floor %.1f\n",
			base.FleetPanelsPerSec, base.FleetShards, measuredFleet,
			100*measuredFleet/base.FleetPanelsPerSec, fleetFloor)
		if measuredFleet < fleetFloor {
			return fmt.Errorf("labbench: fleet panels/sec regressed beyond %.0f%%: measured %.1f vs baseline %.1f",
				100*tolerance, measuredFleet, base.FleetPanelsPerSec)
		}
		// Allocations per panel are duration-independent, so the same
		// tolerance gates them from the other side: growth beyond it
		// means the batching layer stopped reusing its arenas.
		if base.FleetAllocsPerPanel > 0 && measuredFleetAllocs > 0 {
			ceil := base.FleetAllocsPerPanel * (1 + tolerance)
			fmt.Fprintf(w, "fleet allocs baseline: %.0f allocs/panel recorded, measured %.0f, ceiling %.0f\n",
				base.FleetAllocsPerPanel, measuredFleetAllocs, ceil)
			if measuredFleetAllocs > ceil {
				return fmt.Errorf("labbench: fleet allocs/panel grew beyond %.0f%%: measured %.0f vs baseline %.0f",
					100*tolerance, measuredFleetAllocs, base.FleetAllocsPerPanel)
			}
		}
	}
	return nil
}
