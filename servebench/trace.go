package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own wrappers around the calls into that layer. Spans of
// one operation share Trace; Parent names the layer whose call caused
// the span.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced pass; they are written
// out once the run ends. A nil *tracer records nothing, which is how
// the untraced pass runs the same code.
type tracer struct {
	base time.Time
	// keep, when set, samples traces: spans of other traces are dropped.
	keep func(trace string) bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) record(trace, name, parent string, start, end time.Time) {
	if t == nil || (t.keep != nil && !t.keep(trace)) {
		return
	}
	s := span{Trace: trace, Name: name, Parent: parent, Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byTrace groups the spans by trace and name. A name recorded twice in
// one trace (a monitor tick routed again after a shed) keeps the last.
func (t *tracer) byTrace() map[string]map[string]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]map[string]span)
	for _, s := range t.spans {
		m := out[s.Trace]
		if m == nil {
			m = make(map[string]span, 4)
			out[s.Trace] = m
		}
		m[s.Name] = s
	}
	return out
}

// spansNamed returns the durations of every span with the given name.
func (t *tracer) spansNamed(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write dumps every span as one JSON line into dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// tailQuantile is the highest percentile, capped at p99, that leaves at
// least ten samples beyond it; never below the median.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	return math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist summarizes one sample of timings.
type dist struct {
	n         int
	p50, tail float64
	tailQ     float64 // the quantile tail reports
	unit      string
}

// summarize sorts vals (in place) and reports the median and the tail
// percentile the sample supports.
func summarize(vals []float64, unit string) dist {
	sort.Float64s(vals)
	d := dist{n: len(vals), unit: unit, tailQ: tailQuantile(len(vals))}
	if len(vals) == 0 {
		return d
	}
	d.p50 = quantile(vals, 0.5)
	d.tail = quantile(vals, d.tailQ)
	return d
}

func (d dist) String() string {
	return fmt.Sprintf("p50 %.4g %s, p%s %.4g %s, n=%d", d.p50, d.unit, pctLabel(d.tailQ), d.tail, d.unit, d.n)
}

func pctLabel(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", 100*q), "0"), ".")
}

// tableRow is one blocking-path row of a layer table: a layer's self
// time per operation.
type tableRow struct {
	layer string
	value float64
	note  string
}

// layerTable renders the rows as shares of total and states the
// residual: total minus the sum of the rows, as a share of total.
func layerTable(title string, total float64, unit string, rows []tableRow) ([]string, float64) {
	lines := []string{fmt.Sprintf("layer table: %s = %.4g %s", title, total, unit)}
	sum := 0.0
	for _, r := range rows {
		sum += r.value
		share := 0.0
		if total > 0 {
			share = 100 * r.value / total
		}
		lines = append(lines, fmt.Sprintf("  %-26s %10.4g %-3s %6.1f%%  %s", r.layer, r.value, unit, share, r.note))
	}
	residual := total - sum
	pct := 0.0
	if total > 0 {
		pct = 100 * residual / total
	}
	lines = append(lines, fmt.Sprintf("  %-26s %10.4g %-3s %6.1f%%  total minus the rows above", "residual", residual, unit, pct))
	return lines, pct
}

// median is the middle of vals (the mean of the two middle values for
// an even count); vals is sorted in place.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// meanUS is the mean of ds in microseconds.
func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return us(sum) / float64(len(ds))
}

// windowStat is one window of a timed pass: a fixed slice of time
// (panel workloads) or one scheduler round (monitor-population).
type windowStat struct {
	proc procDelta
	ops  int // operations completed: panels or ticks
	lat  dist
}

func (w windowStat) throughput() float64 { return float64(w.ops) / w.proc.wall.Seconds() }

func (w windowStat) cpuPerOp() float64 { return ms(w.proc.cpu) / float64(max(w.ops, 1)) }

// medianOver is the median of f across windows.
func medianOver(ws []windowStat, f func(windowStat) float64) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = f(w)
	}
	return median(vals)
}

// windowMetrics fills the end-to-end metrics a pass measures: each is
// the median of its per-window values, which keeps one disturbed window
// (a neighbour's burst on a shared host, a GC cycle) from moving the
// run's figure.
func windowMetrics(ws []windowStat, e2e map[string]float64) {
	e2e["throughput_per_s"] = medianOver(ws, windowStat.throughput)
	e2e["cpu_ms_per_op"] = medianOver(ws, windowStat.cpuPerOp)
	e2e["latency_p50_ms"] = medianOver(ws, func(w windowStat) float64 { return w.lat.p50 })
	e2e["max_rss_mb"] = float64(snapshot().maxRSS) / (1 << 20)
}

// windowLines prints the per-window figures the medians come from.
func windowLines(ws []windowStat, unit string) []string {
	out := []string{"  windows (median reported):"}
	for i, w := range ws {
		out = append(out, fmt.Sprintf("    %2d: %6d %s in %.2fs, %8.1f/s, %.4f cpu-ms each, latency %s",
			i, w.ops, unit, w.proc.wall.Seconds(), w.throughput(), w.cpuPerOp(), w.lat))
	}
	return out
}

// fillProc records the process-level rows: allocation and GC cost of the
// untraced pass, and the tracing overhead as the traced pass's median
// CPU per operation over the untraced one's.
func fillProc(L map[string]float64, base, traced []windowStat, proc procDelta, ops int) {
	b := medianOver(base, windowStat.cpuPerOp)
	t := medianOver(traced, windowStat.cpuPerOp)
	L["trace.overhead_pct"] = 100 * (t - b) / b
	L["proc.allocs_per_op"] = float64(proc.allocs) / float64(max(ops, 1))
	L["proc.gc_cpu_pct"] = proc.gcPct()
	L["proc.throttled_ms"] = proc.throttledMS()
}
