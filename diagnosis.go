package advdiag

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"advdiag/wire"
)

// Diagnosis classes and statuses — the root-package view of the wire
// vocabulary (wire.ClassSensorFouling and friends), so local callers
// never import wire just to compare a class string.
const (
	ClassSensorFouling   = wire.ClassSensorFouling
	ClassShardStall      = wire.ClassShardStall
	ClassQueueSaturation = wire.ClassQueueSaturation
	ClassWireErrors      = wire.ClassWireErrors
	ClassDrain           = wire.ClassDrain

	StatusHealthy  = wire.StatusHealthy
	StatusDegraded = wire.StatusDegraded
)

// Finding is one classified anomaly: which failure mode, where, how
// bad, and the numeric trail that crossed a threshold.
type Finding struct {
	// Class is the failure mode (ClassSensorFouling, ClassShardStall,
	// ClassQueueSaturation, ClassWireErrors, ClassDrain).
	Class string
	// Shard is the implicated shard, or -1 for fleet-wide findings.
	Shard int
	// Target is the implicated species for sensor-level findings.
	Target string
	// Severity grades the finding in [0,1].
	Severity float64
	// Quarantined reports the shard is already out of routing — either
	// the diagnoser quarantined it over this finding or an operator got
	// there first.
	Quarantined bool
	// Evidence is the human-readable trail for the operator.
	Evidence string
}

// Diagnosis is one full verdict: the fleet's status, the findings that
// produced it (worst first), and the standing quarantine set.
type Diagnosis struct {
	// Status is StatusHealthy or StatusDegraded.
	Status string
	// Snapshots counts the observations the verdict rests on; rate
	// anomalies (stall, saturation, wire errors) need at least two.
	Snapshots int
	// QuarantinedShards lists every shard currently out of routing.
	QuarantinedShards []int
	// Findings are the classified anomalies, worst first.
	Findings []Finding
	// History is the fleet's lifecycle timeline, oldest first: shards
	// added and removed, quarantines, probe transitions, automatic
	// restores (see Fleet.Events).
	History []FleetEvent
}

// String renders the diagnosis as a small operator report.
func (d Diagnosis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnosis: %s (%d snapshots", d.Status, d.Snapshots)
	if len(d.QuarantinedShards) > 0 {
		fmt.Fprintf(&b, ", quarantined %v", d.QuarantinedShards)
	}
	b.WriteString(")\n")
	for _, f := range d.Findings {
		loc := "fleet"
		if f.Shard >= 0 {
			loc = fmt.Sprintf("shard %d", f.Shard)
		}
		if f.Target != "" {
			loc += "/" + f.Target
		}
		mark := ""
		if f.Quarantined {
			mark = " [quarantined]"
		}
		fmt.Fprintf(&b, "  %-16s %s severity %.2f%s: %s\n", f.Class, loc, f.Severity, mark, f.Evidence)
	}
	if n := len(d.History); n > 0 {
		last := d.History[n-1]
		fmt.Fprintf(&b, "  history: %d events (last: %s shard %d — %s)\n", n, last.Kind, last.Shard, last.Detail)
	}
	return b.String()
}

// diagShardObs is one shard's slice of a reduced stats observation.
type diagShardObs struct {
	// done counts panels + monitors the shard ever finished; pending is
	// its queued + executing backlog at observation time.
	done        uint64
	pending     int
	queueCap    int
	quarantined bool
	removed     bool
}

// diagSnapshot is one reduced stats observation. The diagnoser reasons
// over counter deltas between snapshots, never wall-clock rates, which
// is what keeps every classification deterministic under -race and
// -count=N.
type diagSnapshot struct {
	shards   []diagShardObs
	rejected uint64
	wireErrs uint64
	draining bool
}

// estKey addresses one (shard, target) estimate stream.
type estKey struct {
	shard  int
	target string
}

// estRing is a bounded ring of recovery ratios (estimated/true
// concentration) for one (shard, target) stream.
type estRing struct {
	vals []float64
	next int
}

// push records one ratio, overwriting the oldest once the ring holds
// 4×diagMinEstimates.
func (r *estRing) push(v float64) {
	if len(r.vals) < 4*diagMinEstimates {
		r.vals = append(r.vals, v)
		return
	}
	r.vals[r.next] = v
	r.next = (r.next + 1) % len(r.vals)
}

// stats returns the ring's sample count, mean, and relative standard
// deviation.
func (r *estRing) stats() (n int, mean, relStd float64) {
	n = len(r.vals)
	if n == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, v := range r.vals {
		sum += v
	}
	mean = sum / float64(n)
	var ss float64
	for _, v := range r.vals {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n))
	if mean != 0 {
		relStd = std / math.Abs(mean)
	}
	return n, mean, relStd
}

// diagNoiseRatio is how much noisier (relative standard deviation) a
// deviating shard's estimate stream must be than the quietest shard's
// before a mean offset is attributed to sensor fouling. Fouling
// injects per-sample gain jitter, so a genuinely fouled stream is an
// order of magnitude noisier than a healthy one; the ratio is what
// lets two-shard fleets tell WHICH side of a disagreement is sick.
const diagNoiseRatio = 2.5

// The diagnoser's fixed thresholds.
const (
	// diagWindow bounds how many stats snapshots the diagnoser keeps;
	// rate anomalies are judged over this window.
	diagWindow = 8
	// diagMinEstimates is how many recovery-ratio samples a (shard,
	// target) stream needs before it takes part in fouling comparison.
	diagMinEstimates = 12
	// diagFoulingThreshold is the relative deviation of a shard's mean
	// recovery ratio from its siblings' that convicts a fouled sensor —
	// a 15% estimate drift.
	diagFoulingThreshold = 0.15
	// diagStallConfirmations is how many consecutive no-progress
	// observation intervals convict a stalled shard — four snapshots
	// with backlog and a frozen completion counter. A live shard busy
	// with a coalesced batch records no completion until the whole
	// batch ends, so two intervals can misread it as stalled.
	diagStallConfirmations = 3
)

// Diagnoser is the automated root-cause layer over a served fleet: it
// ingests periodic stats snapshots (Observe) and per-panel results
// (ObservePanel), and Diagnose classifies what it saw — sensor fouling
// by cross-shard estimate comparison, shard stalls by completion
// counters frozen under backlog, queue saturation by load-shed
// counters, wire errors by boundary rejections, drain by the server's
// own flag — and quarantines the shards it convicts of fouling or
// stalling.
//
// All state is in-memory and all verdicts derive from counter deltas
// and recorded estimates, never wall-clock time, so the same traffic
// yields the same diagnosis on every run. A Diagnoser is safe for
// concurrent use; Quarantine calls happen outside its lock, so shard
// workers feeding ObservePanel never deadlock against it.
type Diagnoser struct {
	fleet *Fleet
	// recalTrigger, when set, is called (outside d.mu) with the target
	// of each fresh sensor-fouling conviction — once per shard and
	// target: re-diagnosing a standing conviction does not re-fire, and
	// a restored shard's convictions are forgotten. NewServer sets it,
	// before the diagnoser is shared, to the attached MonitorScheduler's
	// ForceRecal, so a fouling verdict recalibrates the affected
	// campaigns instead of only rerouting.
	recalTrigger func(target string) int

	mu        sync.Mutex
	snaps     []diagSnapshot
	estimates map[estKey]*estRing
	// recalled marks (shard, target) fouling convictions already fed to
	// the recalibration trigger, so one conviction episode forces one
	// recalibration, not one per Diagnose call. Cleared when the shard
	// is restored.
	recalled map[estKey]bool
}

// NewDiagnoser builds a diagnoser over a fleet, which must not be nil:
// the fleet is what Diagnose quarantines convicted shards on. A Server
// builds its own (see Server.Diagnoser).
func NewDiagnoser(f *Fleet) *Diagnoser {
	return &Diagnoser{
		fleet:     f,
		estimates: map[estKey]*estRing{},
		recalled:  map[estKey]bool{},
	}
}

// Observe ingests one stats snapshot. Call it at whatever cadence the
// deployment polls stats; the served /v1/diagnosis endpoint calls it
// on every GET. Only counter deltas between observations matter, so
// the cadence shifts sensitivity, never correctness.
func (d *Diagnoser) Observe(st ServerStats) {
	snap := diagSnapshot{
		rejected: st.Rejected + st.MonitorsRejected,
		wireErrs: st.WireErrors,
		draining: st.Draining,
	}
	for _, sh := range st.Shards {
		snap.shards = append(snap.shards, diagShardObs{
			done:        sh.Lab.PanelsRun + sh.Lab.MonitorsRun,
			pending:     sh.QueueLen + sh.InFlight,
			queueCap:    sh.QueueCap,
			quarantined: sh.Quarantined,
			removed:     sh.Removed,
		})
	}
	d.mu.Lock()
	if len(d.snaps) > 0 {
		prev := d.snaps[len(d.snaps)-1]
		for i := range snap.shards {
			if i >= len(prev.shards) || !prev.shards[i].quarantined || snap.shards[i].quarantined {
				continue
			}
			// The shard came back from quarantine (probes restored it, or
			// an operator did). Its estimate history describes the sick
			// instrument, not the healed one — without this reset the old
			// fouled recovery ratios would re-convict a healthy shard on
			// the next Diagnose.
			for k := range d.estimates {
				if k.shard == i {
					delete(d.estimates, k)
				}
			}
			for k := range d.recalled {
				if k.shard == i {
					delete(d.recalled, k)
				}
			}
		}
	}
	d.snaps = append(d.snaps, snap)
	if len(d.snaps) > diagWindow {
		d.snaps = d.snaps[len(d.snaps)-diagWindow:]
	}
	d.mu.Unlock()
}

// ObservePanel ingests one panel outcome: every reading with a known
// true concentration contributes a recovery ratio (estimated over
// true) to its (shard, target) stream. Failed or rejected outcomes are
// ignored. Feed it every outcome the fleet delivers — the Server does
// so for each panel it submits, on the worker that completes it.
func (d *Diagnoser) ObservePanel(o PanelOutcome) {
	if o.Err != nil || o.Shard < 0 {
		return
	}
	d.mu.Lock()
	for _, r := range o.Result.Readings {
		if r.TrueMM <= 0 || math.IsNaN(r.EstimatedMM) || math.IsInf(r.EstimatedMM, 0) {
			continue
		}
		k := estKey{shard: o.Shard, target: r.Target}
		ring := d.estimates[k]
		if ring == nil {
			ring = &estRing{}
			d.estimates[k] = ring
		}
		ring.push(r.EstimatedMM / r.TrueMM)
	}
	d.mu.Unlock()
}

// Diagnose classifies everything observed so far and returns the
// verdict. A shard convicted of fouling or stalling is quarantined
// (its backlog rerouted to siblings) before Diagnose returns; the
// conviction's finding carries Quarantined=true. Quarantine calls run
// outside the diagnoser's lock.
func (d *Diagnoser) Diagnose() Diagnosis {
	d.mu.Lock()
	findings := append(d.foulingFindingsLocked(), d.rateFindingsLocked()...)
	snapshots := len(d.snaps)
	d.mu.Unlock()

	sort.SliceStable(findings, func(i, j int) bool { return findings[i].Severity > findings[j].Severity })

	// Execute convictions without holding d.mu: Quarantine can block on
	// sibling queues whose drain path feeds ObservePanel.
	quarantined := map[int]bool{}
	for _, q := range d.fleet.Quarantined() {
		quarantined[q] = true
	}
	for i := range findings {
		f := &findings[i]
		if f.Shard < 0 {
			continue
		}
		if quarantined[f.Shard] {
			f.Quarantined = true
			continue
		}
		if f.Class != ClassSensorFouling && f.Class != ClassShardStall {
			continue
		}
		if err := d.fleet.Quarantine(f.Shard); err == nil {
			quarantined[f.Shard] = true
			f.Quarantined = true
		}
	}

	// Feed fresh fouling convictions to the recalibration trigger (also
	// outside d.mu — the trigger takes the scheduler's lock).
	d.mu.Lock()
	var recalTargets []string
	if d.recalTrigger != nil {
		for _, f := range findings {
			if f.Class != ClassSensorFouling || f.Shard < 0 || f.Target == "" {
				continue
			}
			k := estKey{shard: f.Shard, target: f.Target}
			if !d.recalled[k] {
				d.recalled[k] = true
				recalTargets = append(recalTargets, f.Target)
			}
		}
	}
	d.mu.Unlock()
	for _, t := range recalTargets {
		d.recalTrigger(t)
	}

	out := Diagnosis{Status: StatusHealthy, Snapshots: snapshots, Findings: findings}
	if len(findings) > 0 {
		out.Status = StatusDegraded
	}
	out.History = d.fleet.Events()
	out.QuarantinedShards = d.fleet.Quarantined()
	return out
}

// foulingFindingsLocked runs the cross-shard estimate comparison
// (callers hold d.mu). For each target with mature streams on at least
// two shards, a shard whose mean recovery ratio deviates from the
// leave-one-out median of its siblings' by more than the threshold —
// AND whose stream is markedly noisier than the quietest one — is
// convicted of sensor fouling. The noise gate is what disambiguates a
// two-shard disagreement: fouling drags the mean and makes the stream
// jittery, so the sick side is the loud side.
func (d *Diagnoser) foulingFindingsLocked() []Finding {
	type obs struct {
		shard        int
		mean, relStd float64
	}
	byTarget := map[string][]obs{}
	for k, ring := range d.estimates {
		n, mean, relStd := ring.stats()
		if n < diagMinEstimates {
			continue
		}
		byTarget[k.target] = append(byTarget[k.target], obs{shard: k.shard, mean: mean, relStd: relStd})
	}
	var findings []Finding
	targets := make([]string, 0, len(byTarget))
	for t := range byTarget {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, target := range targets {
		group := byTarget[target]
		if len(group) < 2 {
			continue
		}
		sort.Slice(group, func(i, j int) bool { return group[i].shard < group[j].shard })
		minRel := math.Inf(1)
		for _, o := range group {
			if o.relStd < minRel {
				minRel = o.relStd
			}
		}
		for i, o := range group {
			others := make([]float64, 0, len(group)-1)
			for j, p := range group {
				if j != i {
					others = append(others, p.mean)
				}
			}
			ref := median(others)
			if ref == 0 {
				continue
			}
			dev := math.Abs(o.mean-ref) / math.Abs(ref)
			if dev <= diagFoulingThreshold {
				continue
			}
			if o.relStd < diagNoiseRatio*math.Max(minRel, 1e-9) {
				continue
			}
			// The fouling model loses 40–100% of Severity in gain
			// (expected 70%), so deviation/0.7 estimates the injected
			// severity.
			findings = append(findings, Finding{
				Class:    ClassSensorFouling,
				Shard:    o.shard,
				Target:   target,
				Severity: math.Min(1, dev/0.7),
				Evidence: fmt.Sprintf("recovery %.3f vs sibling median %.3f (%.0f%% off, noise %.1f%% vs fleet-min %.1f%%)",
					o.mean, ref, 100*dev, 100*o.relStd, 100*minRel),
			})
		}
	}
	return findings
}

// rateFindingsLocked classifies the counter-delta anomalies — stall,
// saturation, wire errors, drain (callers hold d.mu).
func (d *Diagnoser) rateFindingsLocked() []Finding {
	var findings []Finding
	if len(d.snaps) == 0 {
		return nil
	}
	last := d.snaps[len(d.snaps)-1]

	// Shard stall: backlog standing while the completion counter stays
	// frozen across enough consecutive observation intervals.
	stalled := false
	for j := range last.shards {
		if last.shards[j].quarantined || last.shards[j].removed {
			continue
		}
		confirm := 0
		for i := len(d.snaps) - 1; i >= 1; i-- {
			cur, prev := d.snaps[i], d.snaps[i-1]
			if j >= len(cur.shards) || j >= len(prev.shards) {
				break
			}
			if prev.shards[j].pending > 0 && cur.shards[j].done == prev.shards[j].done {
				confirm++
				continue
			}
			break
		}
		if confirm < diagStallConfirmations {
			continue
		}
		stalled = true
		pend := last.shards[j].pending
		findings = append(findings, Finding{
			Class:    ClassShardStall,
			Shard:    j,
			Severity: math.Min(1, float64(pend)/float64(last.shards[j].queueCap+1)),
			Evidence: fmt.Sprintf("%d panels pending, no completions across %d consecutive observations", pend, confirm),
		})
	}

	if len(d.snaps) >= 2 {
		first := d.snaps[0]
		// Queue saturation: load shed during the window with the shards
		// demonstrably live — a stalled shard explains backpressure by
		// itself and suppresses this finding.
		if rej := last.rejected - first.rejected; rej > 0 && !stalled {
			var done, doneFirst uint64
			for _, sh := range last.shards {
				done += sh.done
			}
			for _, sh := range first.shards {
				doneFirst += sh.done
			}
			attempts := float64(rej) + float64(done-doneFirst)
			findings = append(findings, Finding{
				Class:    ClassQueueSaturation,
				Shard:    -1,
				Severity: math.Min(1, float64(rej)/math.Max(attempts, 1)),
				Evidence: fmt.Sprintf("%d submissions shed over the window against %d completions", rej, done-doneFirst),
			})
		}
		if we := last.wireErrs - first.wireErrs; we > 0 {
			findings = append(findings, Finding{
				Class:    ClassWireErrors,
				Shard:    -1,
				Severity: math.Min(1, float64(we)/10),
				Evidence: fmt.Sprintf("%d malformed payloads refused at the wire boundary over the window", we),
			})
		}
	}
	if last.draining {
		findings = append(findings, Finding{
			Class:    ClassDrain,
			Shard:    -1,
			Severity: 0.25,
			Evidence: "server is draining: intake refused, in-flight work completing",
		})
	}
	return findings
}

// median returns the middle value of xs (mean of the middle pair for
// even lengths). xs must be non-empty; it is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// toWireDiagnosis converts a diagnosis to its wire twin.
func toWireDiagnosis(d Diagnosis) wire.Diagnosis {
	out := wire.Diagnosis{
		Schema:            wire.SchemaVersion,
		Status:            d.Status,
		Snapshots:         d.Snapshots,
		QuarantinedShards: d.QuarantinedShards,
	}
	for _, f := range d.Findings {
		out.Findings = append(out.Findings, wire.DiagnosisFinding{
			Class:       f.Class,
			Shard:       f.Shard,
			Target:      f.Target,
			Severity:    f.Severity,
			Quarantined: f.Quarantined,
			Evidence:    f.Evidence,
		})
	}
	for _, e := range d.History {
		out.History = append(out.History, wire.DiagnosisEvent{
			At:     e.At.UTC().Format(time.RFC3339Nano),
			Kind:   e.Kind,
			Shard:  e.Shard,
			Detail: e.Detail,
		})
	}
	return out
}

// diagnosisFromWire converts a wire diagnosis back to the local type.
func diagnosisFromWire(w wire.Diagnosis) Diagnosis {
	out := Diagnosis{
		Status:            w.Status,
		Snapshots:         w.Snapshots,
		QuarantinedShards: w.QuarantinedShards,
	}
	for _, f := range w.Findings {
		out.Findings = append(out.Findings, Finding{
			Class:       f.Class,
			Shard:       f.Shard,
			Target:      f.Target,
			Severity:    f.Severity,
			Quarantined: f.Quarantined,
			Evidence:    f.Evidence,
		})
	}
	for _, e := range w.History {
		at, err := time.Parse(time.RFC3339Nano, e.At)
		if err != nil {
			// Validate already vetted the timestamp; an unparsable one can
			// only reach here through a hand-built wire value — keep the
			// event with a zero time rather than dropping history.
			at = time.Time{}
		}
		out.History = append(out.History, FleetEvent{
			At:     at,
			Kind:   e.Kind,
			Shard:  e.Shard,
			Detail: e.Detail,
		})
	}
	return out
}
