// Package wire is the versioned ingest/egress format of the advdiag
// service boundary: the JSON shapes in which samples enter the
// platform and panel results leave it, over HTTP, files, or queues.
//
// Every message carries an explicit schema version. Version 2 is the
// current schema: version 1 plus the panel result's noise_model stamp,
// which names the noise model that drew the result (results of two
// noise models are not bit-comparable). Decoding rejects any other
// version, any unknown field, and any payload that fails the same
// validation the execution runtime applies (see
// internal/runtime.ValidateSample), so a payload that decodes is a
// payload the platform will accept.
//
// The format is lossless for float64: encoding/json renders floats in
// their shortest exact form, so Decode(Encode(x)) reproduces every bit
// of every numeric field. The serving layer's end-to-end determinism
// guarantee (client-submitted batches fingerprint-identical to local
// runs) rests on this; FuzzResultRoundTrip and the fingerprint
// property tests in the root package pin it.
//
// Compatibility policy: a schema version is a closed contract — any
// field addition, removal, or change of meaning bumps SchemaVersion,
// and decoding is strict (unknown fields are errors), so version skew
// is always detected at the boundary instead of surfacing later as a
// silently dropped or misread field. Servers answer a version they do
// not speak with HTTP 400 and the wire error message, never a silent
// reinterpretation.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"advdiag/internal/runtime"
)

// SchemaVersion is the wire schema this package encodes and the only
// version it accepts when decoding.
const SchemaVersion = 2

// Sample is one specimen submitted for a panel: the wire twin of
// advdiag.Sample plus the schema version.
type Sample struct {
	// Schema is the wire schema version (SchemaVersion).
	Schema int `json:"schema"`
	// ID labels the sample in results and routes consistent-hash
	// fleets; it carries no other semantics.
	ID string `json:"id,omitempty"`
	// Concentrations maps species name → mM. The runtime validation
	// contract applies: finite, non-negative, physically plausible,
	// registered species.
	Concentrations map[string]float64 `json:"concentrations"`
}

// Reading is one assay result inside a panel result — field-for-field
// the root package's TargetReading.
type Reading struct {
	Target            string  `json:"target"`
	WE                string  `json:"we"`
	Probe             string  `json:"probe"`
	MeasuredMicroAmps float64 `json:"measured_ua"`
	EstimatedMM       float64 `json:"estimated_mm"`
	TrueMM            float64 `json:"true_mm"`
	PeakMV            float64 `json:"peak_mv"`
}

// PanelResult is one full multi-target acquisition on the wire.
type PanelResult struct {
	// Schema is the wire schema version (SchemaVersion).
	Schema int `json:"schema"`
	// Readings per target, in schedule order.
	Readings []Reading `json:"readings"`
	// PanelSeconds is the scheduled panel time.
	PanelSeconds float64 `json:"panel_seconds"`
	// NoiseModel is the version of the noise model that drew the
	// panel (internal/analog.NoiseModelVersion); servers always stamp
	// it. Results stamped with different versions are not
	// bit-comparable.
	NoiseModel int `json:"noise_model"`
}

// Outcome is the service's per-sample answer: either a result or an
// error, plus the identifiers that tie it back to the submission. It
// is the NDJSON line type of the streaming endpoints and the element
// type of batch responses.
type Outcome struct {
	// Schema is the wire schema version (SchemaVersion).
	Schema int `json:"schema"`
	// Seq is the sample's position within the request that submitted
	// it (line number for streams, array index for batches).
	Seq int `json:"seq"`
	// Index is the fleet-wide submission index that seeded the panel's
	// noise stream, or -1 when the sample was never accepted.
	Index int `json:"index"`
	// ID echoes the sample ID.
	ID string `json:"id,omitempty"`
	// Shard is the fleet shard that ran the panel (-1 when rejected).
	Shard int `json:"shard"`
	// Error is the per-sample failure, empty on success.
	Error string `json:"error,omitempty"`
	// Result is the panel, present only when Error is empty.
	Result *PanelResult `json:"result,omitempty"`
	// ScheduledStartSeconds is the panel's start on its shard's
	// instrument timeline; WallSeconds the simulation cost.
	ScheduledStartSeconds float64 `json:"scheduled_start_s"`
	WallSeconds           float64 `json:"wall_s"`
}

// Validate checks the sample against the schema and the execution
// runtime's input contract, so a sample that decodes is a sample the
// platform will accept.
func (s *Sample) Validate() error {
	if s.Schema != SchemaVersion {
		return fmt.Errorf("wire: sample schema %d, this server speaks %d", s.Schema, SchemaVersion)
	}
	if err := runtime.ValidateSample(s.Concentrations); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// Validate checks the result's schema and that every numeric field is
// finite (JSON cannot carry NaN or ±Inf, so encoding would fail late
// and uselessly without this).
func (r *PanelResult) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("wire: result schema %d, this decoder speaks %d", r.Schema, SchemaVersion)
	}
	if !isFinite(r.PanelSeconds) {
		return fmt.Errorf("wire: result panel_seconds %g is not finite", r.PanelSeconds)
	}
	if r.NoiseModel < 0 {
		return fmt.Errorf("wire: result noise_model %d is negative", r.NoiseModel)
	}
	for i, rd := range r.Readings {
		for _, v := range [...]float64{rd.MeasuredMicroAmps, rd.EstimatedMM, rd.TrueMM, rd.PeakMV} {
			if !isFinite(v) {
				return fmt.Errorf("wire: reading %d (%s): non-finite field %g", i, rd.Target, v)
			}
		}
	}
	return nil
}

// Validate checks the outcome's schema and, when a result is present,
// the result.
func (o *Outcome) Validate() error {
	if o.Schema != SchemaVersion {
		return fmt.Errorf("wire: outcome schema %d, this decoder speaks %d", o.Schema, SchemaVersion)
	}
	if o.Result != nil {
		if err := o.Result.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// MarshalSample encodes the sample, stamping the schema version when
// the zero value was left in place and validating first.
func MarshalSample(s Sample) ([]byte, error) {
	if s.Schema == 0 {
		s.Schema = SchemaVersion
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// UnmarshalSample strictly decodes one sample: unknown fields, a
// mismatched schema version, and concentrations the runtime would
// refuse are all errors.
func UnmarshalSample(data []byte) (Sample, error) {
	var s Sample
	if err := strictUnmarshal(data, &s); err != nil {
		return Sample{}, fmt.Errorf("wire: sample: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Sample{}, err
	}
	return s, nil
}

// MarshalResult encodes the result, stamping the schema version when
// the zero value was left in place and validating first.
func MarshalResult(r PanelResult) ([]byte, error) {
	if r.Schema == 0 {
		r.Schema = SchemaVersion
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// UnmarshalResult strictly decodes one panel result.
func UnmarshalResult(data []byte) (PanelResult, error) {
	var r PanelResult
	if err := strictUnmarshal(data, &r); err != nil {
		return PanelResult{}, fmt.Errorf("wire: result: %w", err)
	}
	if err := r.Validate(); err != nil {
		return PanelResult{}, err
	}
	return r, nil
}

// MarshalOutcome encodes one outcome, stamping schema versions left at
// zero (the outcome's and its result's) and validating first.
func MarshalOutcome(o Outcome) ([]byte, error) {
	if o.Schema == 0 {
		o.Schema = SchemaVersion
	}
	if o.Result != nil && o.Result.Schema == 0 {
		cp := *o.Result
		cp.Schema = SchemaVersion
		o.Result = &cp
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(o)
}

// UnmarshalOutcome strictly decodes one outcome (one NDJSON line of a
// streaming response, or one element of a batch response).
func UnmarshalOutcome(data []byte) (Outcome, error) {
	var o Outcome
	if err := strictUnmarshal(data, &o); err != nil {
		return Outcome{}, fmt.Errorf("wire: outcome: %w", err)
	}
	if err := o.Validate(); err != nil {
		return Outcome{}, err
	}
	return o, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing
// garbage — the wire contract is exact, not "ignore what you don't
// know" (schema evolution happens by version bump, never by silently
// dropped fields).
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second Decode must see EOF: NDJSON framing hands us exactly
	// one value per line.
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
