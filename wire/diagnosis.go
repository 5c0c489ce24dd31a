package wire

import (
	"encoding/json"
	"fmt"
	"time"
)

// Diagnosis classes: the failure modes the fleet diagnoser can name.
// Each class is a closed vocabulary item — decoders reject anything
// else, so a report that decodes is a report the dashboard can chart.
const (
	// ClassSensorFouling is an analog-chain fault: one shard's estimates
	// for a target drifted away from its siblings' with elevated noise —
	// the signature of a fouled electrode film.
	ClassSensorFouling = "sensor_fouling"
	// ClassShardStall is a liveness fault: a shard holds pending work
	// across consecutive observations without completing any of it.
	ClassShardStall = "shard_stall"
	// ClassQueueSaturation is a capacity fault: the fleet is shedding
	// load (TrySubmit rejections) while its shards stay live.
	ClassQueueSaturation = "queue_saturation"
	// ClassWireErrors is a boundary fault: clients are sending payloads
	// the strict wire layer refuses.
	ClassWireErrors = "wire_errors"
	// ClassDrain reports the server refusing intake because it is
	// draining — expected during shutdown, anomalous outside it.
	ClassDrain = "drain"
)

// Diagnosis statuses.
const (
	// StatusHealthy means no finding survived the diagnoser's
	// thresholds.
	StatusHealthy = "healthy"
	// StatusDegraded means at least one finding did.
	StatusDegraded = "degraded"
)

// diagnosisClasses is the closed class vocabulary Validate enforces.
var diagnosisClasses = map[string]bool{
	ClassSensorFouling:   true,
	ClassShardStall:      true,
	ClassQueueSaturation: true,
	ClassWireErrors:      true,
	ClassDrain:           true,
}

// Lifecycle event kinds: the fleet history entries a diagnosis can
// carry. Closed vocabulary, like the classes.
const (
	// EventShardAdded records a runtime AddShard.
	EventShardAdded = "shard_added"
	// EventShardRemoved records a runtime RemoveShard.
	EventShardRemoved = "shard_removed"
	// EventQuarantined records a shard leaving the routing view (breaker
	// opened by probes, a diagnoser conviction, or an operator).
	EventQuarantined = "quarantined"
	// EventProbed records a health-probe transition on a shard (failure
	// progress toward the breaker opening, or restore progress on a
	// quarantined shard).
	EventProbed = "probed"
	// EventRestored records an automatic un-quarantine: enough
	// consecutive known-good probes closed the breaker.
	EventRestored = "restored"
)

// diagnosisEvents is the closed event-kind vocabulary.
var diagnosisEvents = map[string]bool{
	EventShardAdded:   true,
	EventShardRemoved: true,
	EventQuarantined:  true,
	EventProbed:       true,
	EventRestored:     true,
}

// DiagnosisEvent is one timestamped fleet lifecycle event in a
// diagnosis history.
type DiagnosisEvent struct {
	// At is the event time in RFC 3339 format with nanoseconds.
	At string `json:"at"`
	// Kind is the event kind (one of the Event… constants).
	Kind string `json:"kind"`
	// Shard is the shard the event concerns.
	Shard int `json:"shard"`
	// Detail is the human-readable specifics.
	Detail string `json:"detail,omitempty"`
}

// Validate checks the event against the closed vocabulary and parses
// its timestamp.
func (e *DiagnosisEvent) Validate() error {
	if _, err := time.Parse(time.RFC3339Nano, e.At); err != nil {
		return fmt.Errorf("wire: diagnosis event time: %w", err)
	}
	if !diagnosisEvents[e.Kind] {
		return fmt.Errorf("wire: unknown diagnosis event kind %q", e.Kind)
	}
	if e.Shard < 0 {
		return fmt.Errorf("wire: diagnosis event shard %d is negative", e.Shard)
	}
	return nil
}

// DiagnosisFinding is one classified anomaly in a fleet diagnosis.
type DiagnosisFinding struct {
	// Class is the failure mode (one of the Class… constants).
	Class string `json:"class"`
	// Shard is the implicated shard index, or -1 for fleet-wide
	// findings (saturation, wire errors, drain).
	Shard int `json:"shard"`
	// Target is the implicated species for sensor-level findings.
	Target string `json:"target,omitempty"`
	// Severity grades the finding in [0,1] — 1 is the worst the
	// diagnoser can express for the class.
	Severity float64 `json:"severity"`
	// Quarantined reports that the diagnoser (or an operator) has
	// already removed the shard from routing over this finding.
	Quarantined bool `json:"quarantined,omitempty"`
	// Evidence is the human-readable trail: the numbers that crossed a
	// threshold, for the operator reading the report.
	Evidence string `json:"evidence,omitempty"`
}

// Diagnosis is the response body of GET /v1/diagnosis: the diagnoser's
// current explanation of the fleet's health.
type Diagnosis struct {
	// Schema is the wire schema version (SchemaVersion).
	Schema int `json:"schema"`
	// Status is healthy or degraded.
	Status string `json:"status"`
	// Snapshots counts the observations the verdict rests on; a young
	// diagnoser (fewer than two) cannot see rate anomalies yet.
	Snapshots int `json:"snapshots"`
	// QuarantinedShards lists every shard currently out of routing.
	QuarantinedShards []int `json:"quarantined_shards,omitempty"`
	// Findings are the classified anomalies, worst first.
	Findings []DiagnosisFinding `json:"findings,omitempty"`
	// History is the fleet's lifecycle timeline, oldest first — shards
	// added and removed, quarantines, probe transitions, automatic
	// restores. Optional: a diagnosis without history is valid.
	History []DiagnosisEvent `json:"history,omitempty"`
}

// Validate checks the finding against the closed vocabulary and value
// ranges.
func (f *DiagnosisFinding) Validate() error {
	if !diagnosisClasses[f.Class] {
		return fmt.Errorf("wire: unknown diagnosis class %q", f.Class)
	}
	if f.Shard < -1 {
		return fmt.Errorf("wire: diagnosis finding shard %d below -1", f.Shard)
	}
	if !isFinite(f.Severity) || f.Severity < 0 || f.Severity > 1 {
		return fmt.Errorf("wire: diagnosis severity %g outside [0,1]", f.Severity)
	}
	return nil
}

// Validate checks the diagnosis schema, status, and every finding.
func (d *Diagnosis) Validate() error {
	if d.Schema != SchemaVersion {
		return fmt.Errorf("wire: diagnosis schema %d, this decoder speaks %d", d.Schema, SchemaVersion)
	}
	if d.Status != StatusHealthy && d.Status != StatusDegraded {
		return fmt.Errorf("wire: unknown diagnosis status %q", d.Status)
	}
	if d.Snapshots < 0 {
		return fmt.Errorf("wire: diagnosis snapshot count %d is negative", d.Snapshots)
	}
	for i, q := range d.QuarantinedShards {
		if q < 0 {
			return fmt.Errorf("wire: quarantined shard entry %d is negative (%d)", i, q)
		}
	}
	for i := range d.Findings {
		if err := d.Findings[i].Validate(); err != nil {
			return fmt.Errorf("wire: finding %d: %w", i, err)
		}
	}
	for i := range d.History {
		if err := d.History[i].Validate(); err != nil {
			return fmt.Errorf("wire: history event %d: %w", i, err)
		}
	}
	return nil
}

// MarshalDiagnosis encodes one diagnosis, stamping the schema version
// when the zero value was left in place and validating first.
func MarshalDiagnosis(d Diagnosis) ([]byte, error) {
	if d.Schema == 0 {
		d.Schema = SchemaVersion
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// UnmarshalDiagnosis strictly decodes one diagnosis: unknown fields, a
// mismatched schema version, classes or statuses outside the closed
// vocabulary, and out-of-range severities are all errors.
func UnmarshalDiagnosis(data []byte) (Diagnosis, error) {
	var d Diagnosis
	if err := strictUnmarshal(data, &d); err != nil {
		return Diagnosis{}, fmt.Errorf("wire: diagnosis: %w", err)
	}
	if err := d.Validate(); err != nil {
		return Diagnosis{}, err
	}
	return d, nil
}
