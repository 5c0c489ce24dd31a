// Command labbench load-tests the Lab service layer: it designs the
// paper's Fig. 4 six-target platform once, generates a deterministic
// cohort of patient samples, and sweeps worker counts (and optionally
// patient counts), printing a panels-per-second table with the speedup
// over one worker and the calibration-cache hit rate. It also verifies
// that every worker count produced byte-identical results.
//
// Examples:
//
//	labbench                         # 64 patients, workers 1,2,4,8
//	labbench -patients 256 -workers 1,4,16
//	labbench -quick                  # CI smoke: 16 patients, workers 1,2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"advdiag"
	"advdiag/internal/mathx"
)

// fig4Targets is the paper's §III demonstrator panel.
var fig4Targets = []string{
	"glucose", "lactate", "glutamate",
	"benzphetamine", "aminopyrine", "cholesterol",
}

// baselineMM centers the random patient cohort on physiologic values.
var baselineMM = map[string]float64{
	"glucose":       2.0,
	"lactate":       1.0,
	"glutamate":     1.0,
	"benzphetamine": 0.8,
	"aminopyrine":   4.0,
	"cholesterol":   0.05,
}

type config struct {
	targets  []string
	patients int
	workers  []int
	shards   []int
	seed     uint64
}

// mixedTraffic generates the fleet cohort: a deterministic mix of
// partial metabolite panels, partial drug panels, and full panels —
// the heterogeneous traffic shape a multi-assay dispatcher sees. Every
// third sample of each kind keeps the cohort reproducible across shard
// counts.
func mixedTraffic(targets []string, n int, seed uint64) []advdiag.Sample {
	full := cohort(targets, n, seed)
	metabolites := []string{"glucose", "lactate", "glutamate", "cholesterol"}
	drugs := []string{"benzphetamine", "aminopyrine"}
	subset := func(concs map[string]float64, keep []string) map[string]float64 {
		out := make(map[string]float64, len(keep))
		for _, k := range keep {
			if v, ok := concs[k]; ok {
				out[k] = v
			}
		}
		return out
	}
	for i := range full {
		switch i % 3 {
		case 0:
			full[i].Concentrations = subset(full[i].Concentrations, metabolites)
		case 1:
			full[i].Concentrations = subset(full[i].Concentrations, drugs)
		}
	}
	return full
}

// parseWorkers turns "1,2,4,8" into a slice.
func parseWorkers(spec string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("labbench: bad worker count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("labbench: empty worker list")
	}
	return out, nil
}

// cohort generates a deterministic patient cohort: every concentration
// is the physiologic baseline scaled by a log-uniform factor in
// [0.5, 2), drawn from a seeded stream.
func cohort(targets []string, n int, seed uint64) []advdiag.Sample {
	rng := mathx.NewRNG(seed)
	out := make([]advdiag.Sample, n)
	for i := range out {
		concs := make(map[string]float64, len(targets))
		for _, t := range targets {
			base := baselineMM[t]
			if base == 0 {
				base = 1
			}
			concs[t] = base * (0.5 + 1.5*rng.Float64())
		}
		out[i] = advdiag.Sample{ID: fmt.Sprintf("patient-%03d", i+1), Concentrations: concs}
	}
	return out
}

// batchFingerprint folds every outcome's fingerprint (xor-rotate keeps
// order sensitivity) so two sweeps can be compared cheaply.
func batchFingerprint(outcomes []advdiag.PanelOutcome) (uint64, error) {
	var h uint64
	for _, o := range outcomes {
		if o.Err != nil {
			return 0, fmt.Errorf("%s: %w", o.ID, o.Err)
		}
		h = (h<<7 | h>>57) ^ o.Result.Fingerprint()
	}
	return h, nil
}

// run executes the sweep and writes the report to w. It returns the
// single-worker panels/sec (the baseline-tracked headline number: the
// 1-worker row when the sweep has one, the first row otherwise).
func run(w io.Writer, cfg config) (float64, error) {
	fmt.Fprintf(w, "designing %d-target platform (%s)...\n", len(cfg.targets), strings.Join(cfg.targets, ", "))
	platform, err := advdiag.DesignPlatform(cfg.targets, advdiag.WithPlatformSeed(cfg.seed))
	if err != nil {
		return 0, err
	}
	samples := cohort(cfg.targets, cfg.patients, cfg.seed)
	// Warm up with a couple of panels so the timed rows measure the
	// steady-state service cost, not first-touch effects (heap growth,
	// page faults). This matters most for the -quick CI smoke, which
	// times only a handful of panels against the tracked baseline.
	warm := samples
	if len(warm) > 2 {
		warm = warm[:2]
	}
	warmLab, err := advdiag.NewLab(platform, advdiag.WithLabWorkers(1))
	if err != nil {
		return 0, err
	}
	warmLab.RunPanels(warm)
	fmt.Fprintf(w, "cohort: %d patients; sweep workers %v\n\n", cfg.patients, cfg.workers)
	fmt.Fprintf(w, "%8s %10s %12s %9s %11s\n", "workers", "wall", "panels/sec", "speedup", "cache hit")

	var base, singleRate float64
	var fp uint64
	var last *advdiag.Lab
	for i, workers := range cfg.workers {
		lab, err := advdiag.NewLab(platform, advdiag.WithLabWorkers(workers))
		if err != nil {
			return 0, err
		}
		last = lab
		// The cache counters are cumulative per platform; snapshot
		// around the run so the row shows this run's hit rate.
		before := lab.Stats()
		start := time.Now()
		outcomes := lab.RunPanels(samples)
		wall := time.Since(start).Seconds()
		got, err := batchFingerprint(outcomes)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			fp = got
		} else if got != fp {
			return 0, fmt.Errorf("labbench: results at %d workers differ from %d workers (fingerprint %x vs %x)",
				workers, cfg.workers[0], got, fp)
		}
		rate := float64(cfg.patients) / wall
		if i == 0 {
			base = rate
		}
		if workers == 1 || singleRate == 0 {
			singleRate = rate
		}
		after := lab.Stats()
		hits := after.CacheHits - before.CacheHits
		lookups := hits + after.CacheMisses - before.CacheMisses
		hitRate := 0.0
		if lookups > 0 {
			hitRate = float64(hits) / float64(lookups)
		}
		fmt.Fprintf(w, "%8d %9.2fs %12.1f %8.2fx %10.0f%%\n",
			workers, wall, rate, rate/base, 100*hitRate)
	}

	st := last.Stats()
	fmt.Fprintf(w, "\nresults byte-identical across all worker counts (fingerprint %016x)\n", fp)
	fmt.Fprintf(w, "calibration cache: %d hits / %d misses over the whole sweep\n", st.CacheHits, st.CacheMisses)
	fmt.Fprintf(w, "instrument schedule: panel %.0fs, cycle %.0fs, ceiling %.1f panels/h\n",
		st.PanelSeconds, st.CycleSeconds, st.InstrumentPanelsPerHour)
	return singleRate, nil
}

// runFleet sweeps shard counts over mixed Fig. 1–4 panel traffic (one
// worker per shard — the single-CPU reference configuration) and
// verifies every shard count produces byte-identical results. It
// returns the panels/sec and allocations/panel of the largest shard
// count, the tracked fleet headline numbers.
func runFleet(w io.Writer, cfg config) (float64, float64, error) {
	fmt.Fprintf(w, "\nfleet mode: designing the %d-target platform once, sharing it across shards...\n", len(cfg.targets))
	platform, err := advdiag.DesignPlatform(cfg.targets, advdiag.WithPlatformSeed(cfg.seed))
	if err != nil {
		return 0, 0, err
	}
	samples := mixedTraffic(cfg.targets, cfg.patients, cfg.seed)
	// The calibration cache warms inside NewLab; run a couple of
	// panels on top so the timed rows measure the steady-state service
	// cost, not first-touch effects (heap growth, page faults) — the
	// same pattern as the worker sweep. Surfacing errors here keeps a
	// broken platform or cohort from failing mid-sweep instead.
	warmLab, err := advdiag.NewLab(platform, advdiag.WithLabWorkers(1))
	if err != nil {
		return 0, 0, err
	}
	if _, err := batchFingerprint(warmLab.RunPanels(samples[:min(2, len(samples))])); err != nil {
		return 0, 0, fmt.Errorf("labbench: fleet warm-up: %w", err)
	}

	fmt.Fprintf(w, "mixed traffic: %d samples (1/3 metabolite, 1/3 drug, 1/3 full panel); sweep shards %v\n\n", cfg.patients, cfg.shards)
	fmt.Fprintf(w, "%8s %10s %12s %9s %11s %13s\n", "shards", "wall", "panels/sec", "speedup", "cache hit", "allocs/panel")

	var base, lastRate, lastAllocs float64
	var fp uint64
	for i, shards := range cfg.shards {
		platforms := make([]*advdiag.Platform, shards)
		for j := range platforms {
			platforms[j] = platform
		}
		fleet, err := advdiag.NewFleet(platforms, advdiag.WithFleetWorkers(1))
		if err != nil {
			return 0, 0, err
		}
		// Mallocs is a monotonic process-wide counter, so the delta
		// around the run is the sweep row's allocation bill (the fleet
		// is the only thing allocating during the window); allocs/panel
		// is duration-independent and gates the batching layer's arena
		// reuse the way panels/sec gates its speed.
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		outs := fleet.RunPanels(samples)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&msAfter)
		got, err := batchFingerprint(outs)
		if err != nil {
			return 0, 0, err
		}
		st := fleet.Stats()
		if err := fleet.Close(); err != nil {
			return 0, 0, err
		}
		if i == 0 {
			fp = got
		} else if got != fp {
			return 0, 0, fmt.Errorf("labbench: results at %d shards differ from %d shards (fingerprint %x vs %x)",
				shards, cfg.shards[0], got, fp)
		}
		rate := float64(cfg.patients) / wall
		allocs := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(cfg.patients)
		if i == 0 {
			base = rate
		}
		lastRate, lastAllocs = rate, allocs
		fmt.Fprintf(w, "%8d %9.2fs %12.1f %8.2fx %10.0f%% %13.0f\n",
			shards, wall, rate, rate/base, 100*st.CacheHitRate, allocs)
	}
	fmt.Fprintf(w, "\nfleet results byte-identical across all shard counts (fingerprint %016x)\n", fp)
	return lastRate, lastAllocs, nil
}

func main() {
	var (
		patients  = flag.Int("patients", 64, "number of patient samples in the cohort")
		workers   = flag.String("workers", "1,2,4,8", "comma-separated worker counts to sweep")
		fleet     = flag.Bool("fleet", false, "also sweep Fleet shard counts on mixed panel traffic")
		shards    = flag.String("shards", "1,2,4", "comma-separated shard counts for the -fleet sweep")
		seed      = flag.Uint64("seed", 9, "platform and cohort seed")
		quick     = flag.Bool("quick", false, "CI smoke: 16 patients, workers 1,2 (and shards 1,2 with -fleet)")
		jsonOut   = flag.String("json", "", "write a performance baseline (panels/sec + Fig. 1-4 benchmarks) to this file")
		baseline  = flag.String("baseline", "", "compare measured panels/sec against this committed baseline file; \"auto\" means BENCH_PR9.json")
		tolerance = flag.Float64("tolerance", 0.30, "allowed fractional panels/sec regression vs -baseline before failing")
	)
	flag.Parse()

	cfg := config{targets: fig4Targets, patients: *patients, seed: *seed}
	var err error
	cfg.workers, err = parseWorkers(*workers)
	if err != nil {
		fatal(err)
	}
	cfg.shards, err = parseWorkers(*shards)
	if err != nil {
		fatal(err)
	}
	if *quick {
		// Quick mode trims the cohort and the worker sweep but keeps
		// the shard sweep: the tracked fleet rate is defined at the
		// largest swept shard count, so CI must measure the same shard
		// count the committed baseline records.
		cfg.patients, cfg.workers = 16, []int{1, 2}
	}
	if cfg.patients < 1 {
		fatal(fmt.Errorf("labbench: need at least one patient"))
	}
	if *tolerance < 0 || *tolerance >= 1 {
		fatal(fmt.Errorf("labbench: tolerance %g outside [0,1)", *tolerance))
	}
	if *jsonOut != "" || *baseline != "" {
		if err := requireSingleWorker(cfg.workers); err != nil {
			fatal(err)
		}
	}
	singleRate, err := run(os.Stdout, cfg)
	if err != nil {
		fatal(err)
	}
	fleetRate, fleetAllocs := 0.0, 0.0
	if *fleet {
		fleetRate, fleetAllocs, err = runFleet(os.Stdout, cfg)
		if err != nil {
			fatal(err)
		}
	}
	if *baseline != "" {
		path := resolveBaselinePath(*baseline)
		base, err := readBaseline(path)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stdout, "\ndiffing against %s\n", path)
		fleetShards := cfg.shards[len(cfg.shards)-1]
		if err := checkBaseline(os.Stdout, base, singleRate, fleetRate, fleetShards, fleetAllocs, *tolerance); err != nil {
			fatal(err)
		}
	}
	if *jsonOut != "" {
		if err := writeBaseline(os.Stdout, *jsonOut, cfg, singleRate, fleetRate, fleetAllocs); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "labbench:", err)
	os.Exit(1)
}
