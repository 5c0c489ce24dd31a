// Command servebench is the serving-stack benchmark. It drives one of
// three workloads against the public advdiag API in a single process,
// over loopback TCP where the workload has an HTTP leg, checks every
// run's results for correctness outside the timed window, and prints
// the metrics by name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (catalog
// endToEnd). With --trace 1 the run makes an untraced pass and a traced
// pass of half the duration each, and the metrics are the per-layer
// set (catalog perLayer), with the layer table printed above the JSON.
//
// Run it from the repository root through run.sh, which builds the
// binary inside the checkout:
//
//	bash servebench/run.sh --workload poc-interactive --seed 3 --seconds 10 --trace 1
//
// or, while developing, from this directory with `go run . --workload …`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the stack sees. Every workload
// reports every one of them; "op" is a panel on the panel workloads and
// a monitor tick on monitor-population. The latency tail is printed but
// is not one of them: on poc-interactive it moves 20-40% (IQR over
// median) between runs of the same code on a 2-vCPU VM, more than any
// regression bound can absorb.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"latency_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced-pass metrics, named after the repository's
// modules. A layer a workload never reaches reports 0 and is marked
// "n/a" in the printed table.
var perLayer = []metricDef{
	{"client.rtt_p50_ms", "ms"},
	{"client.rtt_p99_ms", "ms"},
	{"client.batch_rtt_p50_ms", "ms"},
	{"wire.json.sample_enc_us", "us"},
	{"wire.json.sample_dec_us", "us"},
	{"wire.json.outcome_enc_us", "us"},
	{"wire.json.outcome_dec_us", "us"},
	{"wire.bin.sample_enc_us", "us"},
	{"wire.bin.sample_dec_us", "us"},
	{"wire.bin.outcome_enc_us", "us"},
	{"wire.bin.outcome_dec_us", "us"},
	{"server.handle_p50_ms", "ms"},
	{"server.handle_p99_ms", "ms"},
	{"fleet.route_us", "us"},
	{"fleet.wait_p50_ms", "ms"},
	{"fleet.wait_p99_ms", "ms"},
	{"fleet.queue_len_max", "count"},
	{"fleet.rejected", "count"},
	{"runtime.exec_p50_ms", "ms"},
	{"runtime.run_us", "us"},
	{"runtime.run_batch_us", "us"},
	{"runtime.allocs_per_panel", "count"},
	{"runtime.monitor_us", "us"},
	{"measure.ca_us", "us"},
	{"measure.cv_us", "us"},
	{"analysis.fit_us", "us"},
	{"diffusion.step_ns", "ns"},
	{"analog.digitize_ns", "ns"},
	{"analog.noise_ns", "ns"},
	{"analog.digitize_per_panel", "count"},
	{"mathx.norm_ns", "ns"},
	{"scheduler.shed_ratio", "ratio"},
	{"scheduler.overhead_us_per_tick", "us"},
	{"core.design_ms", "ms"},
	{"runtime.warm_ms", "ms"},
	{"server.ready_ms", "ms"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_cpu_pct", "%"},
	{"proc.throttled_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.residual_pct", "%"},
}

// config is one run's shape. The flags fill it for real runs; the
// self-test shrinks it.
type config struct {
	seed    uint64
	seconds float64 // measured duration of the untraced pass
	trace   bool
	// setups is how many times the stack is stood up; setup_s is their
	// median of means (setupSampler.median). The first serves the
	// workload; the rest are spread over the untraced pass's windows and
	// torn down again.
	setups int
	// warmup is the traffic run before timing starts (caches, pools,
	// connections); it is excluded from every metric.
	warmup time.Duration
	// checkEvery picks the replay-checked subset: roughly one operation
	// in checkEvery, chosen by a hash of the seed and the operation
	// number.
	checkEvery int
	// window is the length of one window of a panel pass; each
	// end-to-end figure is the median over the pass's windows.
	window time.Duration
	// cohort is the campaign count of one monitor-population round (a
	// monitor pass's window).
	cohort int
	// kernelBudget bounds each kernel and wire microbenchmark row.
	kernelBudget time.Duration
	// outDir receives the traced pass's span dump.
	outDir string
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	// checkErr is the correctness verdict: nil when every check passed.
	checkErr error
	e2e      map[string]float64
	layers   map[string]float64
	// na lists per-layer metrics the workload never reaches.
	na map[string]bool
	// lines are human-readable notes and tables printed before the JSON.
	lines []string
}

func newReport(attempted, failed int) *report {
	return &report{attempted: attempted, failed: failed, e2e: map[string]float64{}, layers: map[string]float64{}, na: map[string]bool{}}
}

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) markNA(names ...string) {
	for _, n := range names {
		r.na[n] = true
	}
}

// windows splits one pass into windows of about cfg.window: a pass is
// cfg.seconds long, half that when the run also makes a traced pass.
func (cfg config) windows() (int, time.Duration) {
	pass := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		pass /= 2
	}
	n := max(1, int(math.Round(float64(pass)/float64(cfg.window))))
	return n, pass / time.Duration(n)
}

// workload is one traffic mix; why records the reason it exists.
type workload struct {
	name, why, shape string
	run              func(cfg config) (*report, error)
}

var workloads = []workload{fig4Batch, pocInteractive, monitorPopulation}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload and prints its result. It
// returns the process exit code: 0 with a result line, non-zero and no
// result line when the benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig4-batch | poc-interactive | monitor-population")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: untraced and traced passes, print the per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for the traced pass's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}

	// Go 1.24 sizes GOMAXPROCS from the CPU affinity mask and ignores a
	// cgroup quota; set it explicitly so the figure is printed and fixed.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{
		seed:         *seed,
		seconds:      *seconds,
		trace:        *trace == 1,
		setups:       49,
		warmup:       time.Second,
		checkEvery:   64,
		window:       2 * time.Second,
		cohort:       2000,
		kernelBudget: 150 * time.Millisecond,
		outDir:       *outDir,
	}
	fmt.Fprintf(stdout, "servebench %s: seed=%d seconds=%g trace=%d | %s GOMAXPROCS=%d nproc=%d commit=%s\n",
		w.name, cfg.seed, cfg.seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), nproc, commit())
	fmt.Fprintf(stdout, "shape: %s\nwhy: %s\n", w.shape, w.why)

	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "servebench %s: %v\n", w.name, err)
		return 1
	}
	printReport(stdout, cfg, rep)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// commit reports the VCS revision the binary was built from, when the
// build could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport prints the notes, every metric of the pass by name and
// unit, and the JSON result line last.
func printReport(w io.Writer, cfg config, rep *report) {
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	defs, values := endToEnd, rep.e2e
	if cfg.trace {
		defs, values = perLayer, rep.layers
	}
	res := resultLine{
		Correct:   rep.checkErr == nil,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintln(w, "metrics:")
	for _, d := range defs {
		v := values[d.name]
		mark := ""
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			// JSON cannot carry it; the run is not trustworthy either.
			v, mark = 0, "  (non-finite, reported as 0)"
			res.Correct = false
		case rep.na[d.name]:
			mark = "  (n/a: not on this workload's path)"
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s%s\n", d.name, v, d.unit, mark)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if rep.checkErr != nil {
		fmt.Fprintf(w, "correctness check FAILED: %v\n", rep.checkErr)
	} else {
		fmt.Fprintln(w, "correctness check passed")
	}
	line, _ := json.Marshal(res) // every value is finite, so this cannot fail
	fmt.Fprintln(w, string(line))
}
