package advdiag

import (
	"time"

	rt "advdiag/internal/runtime"
)

// MonitorRequest is one continuous-monitoring acquisition submitted to
// the serving stack (Lab.RunMonitor, Fleet.SubmitMonitor, POST
// /v1/monitors): the service twin of a hand-held Sensor.Monitor call,
// plus the identity and seed that make population-scale scheduling
// deterministic.
type MonitorRequest struct {
	// ID names the campaign (patient, implant) this acquisition belongs
	// to; the Fleet's consistent-hash router keys on it, and the
	// scheduler routes outcomes back by it.
	ID string
	// Tick is the acquisition's index within its campaign (0-based).
	// It is echoed in the outcome; together with ID it identifies the
	// tick uniquely.
	Tick int
	// Target is the monitored metabolite; the routed shard must serve
	// it with a chronoamperometric electrode.
	Target string
	// ConcentrationMM is the concentration presented in the chamber
	// (introduced after the baseline phase when BaselineSeconds > 0).
	ConcentrationMM float64
	// DurationSeconds is the trace length; zero selects the protocol
	// default (60 s).
	DurationSeconds float64
	// BaselineSeconds, when positive, runs the two-phase protocol and
	// makes the baseline-subtracted step current the calibration signal.
	BaselineSeconds float64
	// Injections are concentration steps during the run (Fig. 3-style
	// experiments); the same validation as Sensor.Monitor applies.
	Injections []InjectionEvent
	// AgeHours is the film age at acquisition time — the drift input.
	AgeHours float64
	// Polymer applies the paper's §III polymer stabilization.
	Polymer bool
	// Seed fixes the acquisition's noise stream. Unlike panels — whose
	// seeds derive from the fleet-wide submission index — a monitor's
	// seed travels with the request, so schedulers derive it from
	// content (MonitorSeed over campaign ID and tick) and results never
	// depend on submission interleaving, worker count, or shard count.
	Seed uint64
}

// spec converts to the execution-layer twin.
func (r MonitorRequest) spec() rt.MonitorSpec {
	inj := make([]rt.Injection, len(r.Injections))
	for i, v := range r.Injections {
		inj[i] = rt.Injection{AtSeconds: v.AtSeconds, DeltaMM: v.DeltaMM}
	}
	return rt.MonitorSpec{
		Target:          r.Target,
		ConcentrationMM: r.ConcentrationMM,
		DurationSeconds: r.DurationSeconds,
		BaselineSeconds: r.BaselineSeconds,
		Injections:      inj,
		AgeHours:        r.AgeHours,
		Polymer:         r.Polymer,
	}
}

// Validate checks the request against the execution runtime's input
// contract — the same validation the run itself applies, so a request
// that validates is a request a platform will accept (assuming it
// serves the target at all).
func (r MonitorRequest) Validate() error { return r.spec().Validate() }

// MonitorSeed derives a campaign tick's deterministic noise seed from
// the base seed and the tick's identity (campaign ID, tick index)
// alone — the seeding rule behind the scheduler's byte-identical
// results at any worker or shard count.
func MonitorSeed(base uint64, campaignID string, tick int) uint64 {
	return rt.MonitorSeed(base, campaignID, tick)
}

// MonitorOutcome is the serving stack's answer to one MonitorRequest.
type MonitorOutcome struct {
	// Index is the fleet-wide monitor acceptance index (-1 for a
	// request that never entered a fleet — direct Lab runs, rejected
	// submissions). Unlike a panel's Index it orders outcomes only; it
	// never seeds anything.
	Index int
	// ID and Tick echo the request.
	ID   string
	Tick int
	// Shard is the fleet shard that ran the acquisition (0 for a plain
	// Lab, -1 when rejected before acceptance).
	Shard int
	// Result is the trace with its analysis; valid only when Err is
	// nil.
	Result MonitorResult
	// Err is the per-request failure; other requests are unaffected.
	Err error
	// WallSeconds is the simulation wall-clock cost.
	WallSeconds float64
}

// monitorResult converts the runtime package's trace into the public
// type. The fields are copied bit-for-bit, so the conversion cannot
// change anything MonitorResult.Fingerprint hashes.
func monitorResult(t rt.MonitorTrace) MonitorResult {
	return MonitorResult{
		TimesSeconds:      t.TimesSeconds,
		CurrentsMicroAmps: t.CurrentsMicroAmps,
		T90Seconds:        t.Analysis.T90Seconds,
		TransientSeconds:  t.Analysis.TransientSeconds,
		BaselineMicroAmps: t.Analysis.BaselineMicroAmps,
		SteadyMicroAmps:   t.Analysis.SteadyMicroAmps,
		Settled:           t.Analysis.Settled,
		StepMicroAmps:     t.StepMicroAmps,
		EstimatedMM:       t.EstimatedMM,
	}
}

// RunMonitor executes one monitoring acquisition synchronously on the
// Lab's platform, seeded by the request's own Seed (never the Lab's
// panel-index derivation). The outcome's Index is -1: direct runs are
// outside any fleet acceptance sequence.
func (l *Lab) RunMonitor(req MonitorRequest) MonitorOutcome {
	return l.core.runMonitor(-1, req)
}

// runMonitor executes one monitoring acquisition and updates the
// aggregate stats. idx is the fleet-wide monitor acceptance index (or
// -1 for direct runs).
func (c *execCore) runMonitor(idx int, req MonitorRequest) MonitorOutcome {
	start := time.Now()
	tr, err := c.p.exec.RunMonitor(req.spec(), req.Seed)
	end := time.Now()
	var failed uint64
	if err != nil {
		failed = 1
	}
	c.record(start, end, true, 1, failed)

	out := MonitorOutcome{
		Index:       idx,
		ID:          req.ID,
		Tick:        req.Tick,
		Err:         err,
		WallSeconds: end.Sub(start).Seconds(),
	}
	if err == nil {
		out.Result = monitorResult(tr)
	}
	return out
}
