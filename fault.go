package advdiag

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"advdiag/internal/mathx"
)

// FaultKind enumerates the injectable fault classes a FaultPlan can arm
// on a Fleet. Every fault is deterministic — seeded where it draws
// randomness, replayable by construction — which is what makes the
// diagnosis layer provable in ordinary tests instead of flaky chaos
// runs.
type FaultKind int

const (
	// FaultFouledElectrode perturbs the targeted shard's analog
	// acquisition chain the way a film degraded by adsorbed matrix
	// proteins would: sensitivity drops and the signal turns noisy, so
	// the shard keeps serving panels whose concentration estimates have
	// silently drifted. The perturbation is seeded per (fault seed,
	// sample seed, target) — see internal/runtime.Fouling.
	FaultFouledElectrode FaultKind = iota + 1
	// FaultDeadShard hangs the shard's workers: accepted jobs park
	// instead of running, the bounded queue backs up, and nothing
	// completes — a crashed or wedged instrument. The held work is not
	// lost: Quarantine reroutes it to siblings (same seed indices, so
	// fingerprints are unchanged) and ClearFaults releases the workers
	// to run it in place.
	FaultDeadShard
	// FaultSlowShard delays every job on the shard by Delay before it
	// runs — a degraded instrument that still answers. Results are
	// unchanged (the delay never touches the measurement), only timing.
	FaultSlowShard
	// FaultFlakyShard makes the shard intermittently fail: work arriving
	// during a down slot of a seeded duty cycle stalls (held, not lost —
	// exactly like a dead shard's backlog) while up-slot work runs
	// normally. Severity is the down fraction of each Period-slot cycle
	// and Seed phases the cycle, so the failure pattern replays bit for
	// bit. This is the fault class circuit breakers exist for: health
	// probes draw from the same slot sequence, so a flaky shard fails
	// probes intermittently too, exercising the open/half-open dance.
	FaultFlakyShard
)

// String names the kind for reports.
func (k FaultKind) String() string {
	switch k {
	case FaultFouledElectrode:
		return "fouled_electrode"
	case FaultDeadShard:
		return "dead_shard"
	case FaultSlowShard:
		return "slow_shard"
	case FaultFlakyShard:
		return "flaky_shard"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one injectable failure, aimed at one shard. Faults on the
// same shard compose (a shard can be fouled and slow at once); a fault
// of the same kind injected again replaces the earlier one.
type Fault struct {
	// Kind selects the failure class.
	Kind FaultKind
	// Shard is the target shard index.
	Shard int
	// Target restricts a FaultFouledElectrode to the electrode(s)
	// measuring one species; empty fouls every electrode on the shard.
	Target string
	// Severity scales a FaultFouledElectrode in (0,1]: the expected
	// sensitivity-loss fraction and the relative noise amplitude. For a
	// FaultFlakyShard it is the duty cycle's down fraction in (0,1).
	Severity float64
	// Delay is a FaultSlowShard's per-job stall.
	Delay time.Duration
	// Period is a FaultFlakyShard's duty-cycle length in slots (jobs +
	// probes); each cycle is round(Severity×Period) down slots followed
	// by up slots, phase-shifted by Seed. Minimum 2, so every cycle has
	// at least one slot of each kind.
	Period int
	// Seed is the fault's own deterministic stream; two injections with
	// equal seeds perturb identically.
	Seed uint64
}

// Validate checks the fault against the model and a fleet of the given
// shard count.
func (ft Fault) Validate(shards int) error {
	if ft.Shard < 0 || ft.Shard >= shards {
		return fmt.Errorf("advdiag: fault targets shard %d outside [0,%d)", ft.Shard, shards)
	}
	switch ft.Kind {
	case FaultFouledElectrode:
		if math.IsNaN(ft.Severity) || math.IsInf(ft.Severity, 0) || ft.Severity <= 0 || ft.Severity > 1 {
			return fmt.Errorf("advdiag: fouling severity %g outside (0,1]", ft.Severity)
		}
	case FaultDeadShard:
	case FaultSlowShard:
		if ft.Delay <= 0 {
			return fmt.Errorf("advdiag: slow-shard fault needs a positive delay, got %v", ft.Delay)
		}
	case FaultFlakyShard:
		if math.IsNaN(ft.Severity) || ft.Severity <= 0 || ft.Severity >= 1 {
			return fmt.Errorf("advdiag: flaky duty cycle %g outside (0,1)", ft.Severity)
		}
		if ft.Period < 2 {
			return fmt.Errorf("advdiag: flaky period %d below the 2-slot minimum", ft.Period)
		}
	default:
		return fmt.Errorf("advdiag: unknown fault kind %d", int(ft.Kind))
	}
	return nil
}

// FaultPlan is a replayable set of faults: inject the same plan into
// two fleets with the same traffic and the failures — and therefore the
// diagnoses — are identical. Arm it with Fleet.InjectFaults (right
// after NewFleet, before any traffic, for a fleet that starts life
// sick); a fleet with no plan pays one atomic nil-check per job.
type FaultPlan struct {
	Faults []Fault
}

// Validate checks every fault in the plan against a fleet of the given
// shard count.
func (p FaultPlan) Validate(shards int) error {
	for i, ft := range p.Faults {
		if err := ft.Validate(shards); err != nil {
			return fmt.Errorf("advdiag: fault %d: %w", i, err)
		}
	}
	return nil
}

// MalformedClient is the wire-level fault injector: a deliberately
// broken client that sends deterministic corrupt payloads at a Server,
// so wire-error diagnosis is provable in CI without hand-rolled HTTP in
// every test. The i-th payload is drawn from the seeded stream —
// truncated JSON, unknown fields, schema-version skew, non-finite or
// negative concentrations, unknown species — and the same seed replays
// the same corruption sequence bit for bit.
type MalformedClient struct {
	// BaseURL addresses the server (scheme://host[:port], no trailing
	// path).
	BaseURL string
	// Seed fixes the corruption sequence.
	Seed uint64
	// HTTPClient substitutes the transport (default
	// http.DefaultClient).
	HTTPClient *http.Client
}

// malformedPayloads are the corruption shapes Send cycles through; each
// must be refused by the wire layer's strict decoding with HTTP 400.
var malformedPayloads = []string{
	`{"schema":2,"concentrations":`,                       // truncated JSON
	`{"schema":2,"surprise":true,"concentrations":{}}`,    // unknown field
	`{"schema":99,"concentrations":{"glucose":1}}`,        // version skew
	`{"schema":2,"concentrations":{"glucose":-3}}`,        // negative concentration
	`{"schema":2,"concentrations":{"unobtainium":1}}`,     // unregistered species
	`{"schema":2,"concentrations":{"glucose":1e309}}`,     // overflows to +Inf
	`{"schema":2,"concentrations":{"glucose":1}}trailing`, // trailing garbage
	`not json at all`, // no JSON framing
}

// Payload returns the i-th corrupt request body of the seeded sequence.
func (mc *MalformedClient) Payload(i int) []byte {
	rng := mathx.NewRNG(mathx.Mix64(mc.Seed) + uint64(i))
	return []byte(malformedPayloads[rng.Uint64()%uint64(len(malformedPayloads))])
}

// Send posts n corrupt payloads to POST /v1/panels and reports how many
// the server refused with HTTP 400 — a correct server refuses all of
// them at the wire boundary, before anything reaches the fleet.
func (mc *MalformedClient) Send(ctx context.Context, n int) (refused int, err error) {
	hc := mc.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	base := strings.TrimRight(mc.BaseURL, "/")
	for i := 0; i < n; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/panels", bytes.NewReader(mc.Payload(i)))
		if err != nil {
			return refused, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return refused, err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // body content is irrelevant
		resp.Body.Close()              //nolint:errcheck // read-only body
		if resp.StatusCode == http.StatusBadRequest {
			refused++
		}
	}
	return refused, nil
}
