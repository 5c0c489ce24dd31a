package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestDiagnosisRoundTrip(t *testing.T) {
	d := Diagnosis{
		Status:            StatusDegraded,
		Snapshots:         9,
		QuarantinedShards: []int{1, 3},
		Findings: []DiagnosisFinding{
			{Class: ClassSensorFouling, Shard: 1, Target: "glucose", Severity: 0.62,
				Quarantined: true, Evidence: "recovery 0.55 vs sibling median 0.98"},
			{Class: ClassShardStall, Shard: 3, Severity: 1, Quarantined: true,
				Evidence: "7 panels pending, no completions across 4 consecutive observations"},
			{Class: ClassQueueSaturation, Shard: -1, Severity: 0.3},
			{Class: ClassWireErrors, Shard: -1, Severity: 0.1},
			{Class: ClassDrain, Shard: -1, Severity: 0.25},
		},
		History: []DiagnosisEvent{
			{At: "2026-08-07T09:15:04.000000001Z", Kind: EventShardAdded, Shard: 2, Detail: "targets glucose"},
			{At: "2026-08-07T09:15:05.5Z", Kind: EventProbed, Shard: 1, Detail: "probe failure 2/3"},
			{At: "2026-08-07T09:15:06Z", Kind: EventQuarantined, Shard: 1, Detail: "breaker open, 4 backlog jobs rerouted"},
			{At: "2026-08-07T09:15:08Z", Kind: EventShardRemoved, Shard: 3},
			{At: "2026-08-07T09:15:09Z", Kind: EventRestored, Shard: 1, Detail: "3 consecutive known-good probes, breaker closed"},
		},
	}
	data, err := MarshalDiagnosis(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalDiagnosis(data)
	if err != nil {
		t.Fatal(err)
	}
	d.Schema = SchemaVersion
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip changed the diagnosis:\n%+v\nvs\n%+v", d, back)
	}
}

func TestDiagnosisStrictDecoding(t *testing.T) {
	cases := []struct {
		name, payload, wantErr string
	}{
		{"unknown field", `{"schema":2,"status":"healthy","snapshots":0,"surprise":true}`, "unknown field"},
		{"schema skew", `{"schema":3,"status":"healthy","snapshots":0}`, "schema 3"},
		{"bad status", `{"schema":2,"status":"on fire","snapshots":0}`, "unknown diagnosis status"},
		{"bad class", `{"schema":2,"status":"degraded","snapshots":1,"findings":[{"class":"gremlins","shard":0,"severity":0.5}]}`, "unknown diagnosis class"},
		{"severity range", `{"schema":2,"status":"degraded","snapshots":1,"findings":[{"class":"shard_stall","shard":0,"severity":1.5}]}`, "severity"},
		{"shard below -1", `{"schema":2,"status":"degraded","snapshots":1,"findings":[{"class":"shard_stall","shard":-2,"severity":0.5}]}`, "below -1"},
		{"negative snapshots", `{"schema":2,"status":"healthy","snapshots":-1}`, "negative"},
		{"negative quarantine entry", `{"schema":2,"status":"healthy","snapshots":0,"quarantined_shards":[-1]}`, "negative"},
		{"bad event kind", `{"schema":2,"status":"healthy","snapshots":0,"history":[{"at":"2026-08-07T09:15:06Z","kind":"exploded","shard":0}]}`, "unknown diagnosis event kind"},
		{"bad event time", `{"schema":2,"status":"healthy","snapshots":0,"history":[{"at":"yesterday","kind":"probed","shard":0}]}`, "event time"},
		{"negative event shard", `{"schema":2,"status":"healthy","snapshots":0,"history":[{"at":"2026-08-07T09:15:06Z","kind":"probed","shard":-1}]}`, "negative"},
		{"truncated", `{"schema":2,"status":"healthy"`, "unexpected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalDiagnosis([]byte(tc.payload))
			if err == nil {
				t.Fatalf("decoder accepted %s", tc.payload)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestMarshalDiagnosisRejectsInvalid(t *testing.T) {
	for _, d := range []Diagnosis{
		{Status: "fine", Snapshots: 1},
		{Status: StatusDegraded, Snapshots: 1, Findings: []DiagnosisFinding{{Class: "nope", Shard: 0, Severity: 0.5}}},
		{Status: StatusDegraded, Snapshots: 1, Findings: []DiagnosisFinding{{Class: ClassDrain, Shard: -1, Severity: math.NaN()}}},
	} {
		if _, err := MarshalDiagnosis(d); err == nil {
			t.Fatalf("encoder accepted invalid diagnosis %+v", d)
		}
	}
}

// FuzzDiagnosisRoundTrip: anything the encoder emits the strict
// decoder must accept and reproduce exactly; out-of-contract values
// must be refused at encode time, never silently reshaped.
func FuzzDiagnosisRoundTrip(f *testing.F) {
	f.Add("degraded", "sensor_fouling", "glucose", "recovery 0.5 vs 0.98", 1, 0.62, 3, true, 2)
	f.Add("healthy", "", "", "", -1, 0.0, 0, false, 0)
	f.Add("degraded", "wire_errors", "", "9 refused", -1, 1.0, 12, false, -3)
	f.Fuzz(func(t *testing.T, status, class, target, evidence string, shard int, severity float64, snapshots int, quarantined bool, qshard int) {
		if !utf8.ValidString(target) || !utf8.ValidString(evidence) {
			t.Skip() // json.Marshal coerces invalid UTF-8 to U+FFFD
		}
		d := Diagnosis{Status: status, Snapshots: snapshots}
		if qshard != 0 {
			d.QuarantinedShards = []int{qshard}
		}
		if class != "" {
			d.Findings = []DiagnosisFinding{{
				Class: class, Shard: shard, Target: target,
				Severity: severity, Quarantined: quarantined, Evidence: evidence,
			}}
		}
		data, err := MarshalDiagnosis(d)
		if err != nil {
			return // out-of-contract values correctly refused
		}
		back, err := UnmarshalDiagnosis(data)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output %s: %v", data, err)
		}
		d.Schema = SchemaVersion
		if !reflect.DeepEqual(d, back) {
			t.Fatalf("round trip changed the diagnosis:\n%+v\nvs\n%+v", d, back)
		}
	})
}
