package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"advdiag/internal/mathx"
)

// randMonitorResult builds a deterministic pseudo-random monitor result
// whose floats exercise the full double range — the values a lossless
// wire format must carry.
func randMonitorResult(seed uint64, points int) MonitorResult {
	rng := mathx.NewRNG(seed)
	gnarly := func() float64 {
		switch rng.Uint64() % 5 {
		case 0:
			return math.Copysign(5e-324*float64(1+rng.Uint64()%1000), rng.Float64()-0.5)
		case 1:
			return math.Copysign(1e307*rng.Float64(), rng.Float64()-0.5)
		case 2:
			return math.Copysign(0, rng.Float64()-0.5) // ±0
		default:
			return (rng.Float64() - 0.5) * 100
		}
	}
	r := MonitorResult{
		Schema:            SchemaVersion,
		T90Seconds:        gnarly(),
		TransientSeconds:  gnarly(),
		BaselineMicroAmps: gnarly(),
		SteadyMicroAmps:   gnarly(),
		Settled:           rng.Uint64()%2 == 0,
		StepMicroAmps:     gnarly(),
		EstimatedMM:       gnarly(),
	}
	for i := 0; i < points; i++ {
		r.TimesSeconds = append(r.TimesSeconds, gnarly())
		r.CurrentsMicroAmps = append(r.CurrentsMicroAmps, gnarly())
	}
	return r
}

// TestMonitorResultRoundTripExact: decode(encode(x)) must reproduce
// every bit of every field and series element — the property the
// monitor-smoke fingerprint diff rests on.
func TestMonitorResultRoundTripExact(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := randMonitorResult(seed, int(seed%9))
		data, err := MarshalMonitorResult(r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := UnmarshalMonitorResult(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("seed %d: round trip changed the result:\n%+v\nvs\n%+v", seed, r, back)
		}
		for i := range r.TimesSeconds {
			if math.Float64bits(r.TimesSeconds[i]) != math.Float64bits(back.TimesSeconds[i]) ||
				math.Float64bits(r.CurrentsMicroAmps[i]) != math.Float64bits(back.CurrentsMicroAmps[i]) {
				t.Fatalf("seed %d point %d: series bits changed", seed, i)
			}
		}
	}
}

func TestMonitorRequestRoundTrip(t *testing.T) {
	r := MonitorRequest{
		ID:              "patient-042",
		Tick:            7,
		Target:          "glucose",
		ConcentrationMM: 5.5,
		DurationSeconds: 30,
		BaselineSeconds: 5,
		Injections:      []Injection{{AtSeconds: 10, DeltaMM: 2.5}, {AtSeconds: 20, DeltaMM: 1.0}},
		AgeHours:        168,
		Polymer:         true,
		Seed:            0xdeadbeefcafe,
	}
	data, err := MarshalMonitorRequest(r) // zero Schema is stamped
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMonitorRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Schema = SchemaVersion
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed the request:\n%+v\nvs\n%+v", r, back)
	}
}

func TestMonitorOutcomeRoundTrip(t *testing.T) {
	res := randMonitorResult(3, 6)
	o := MonitorOutcome{Index: 17, ID: "p-1", Tick: 3, Shard: 2, Result: &res, WallSeconds: 0.004}
	data, err := MarshalMonitorOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMonitorOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	o.Schema = SchemaVersion
	if !reflect.DeepEqual(o, back) {
		t.Fatalf("round trip changed the outcome:\n%+v\nvs\n%+v", o, back)
	}

	// Error outcomes carry no result.
	e := MonitorOutcome{Index: -1, ID: "p-2", Shard: -1, Error: "fleet saturated"}
	data, err = MarshalMonitorOutcome(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err = UnmarshalMonitorOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Error != e.Error || back.Result != nil || back.Index != -1 {
		t.Fatalf("error outcome round trip: %+v", back)
	}
}

// TestMonitorStrictDecoding pins the monitor boundary's rejections:
// version skew, unknown fields, and requests the runtime would refuse.
func TestMonitorStrictDecoding(t *testing.T) {
	cases := []struct {
		name, payload, want string
		decode              func(string) error
	}{
		{"request schema skew", `{"schema":3,"tick":0,"target":"glucose","concentration_mm":5,"duration_s":30,"seed":1}`, "schema 3",
			func(p string) error { _, err := UnmarshalMonitorRequest([]byte(p)); return err }},
		{"request unknown field", `{"schema":2,"tick":0,"target":"glucose","concentration_mm":5,"duration_s":30,"seed":1,"priority":9}`, "unknown field",
			func(p string) error { _, err := UnmarshalMonitorRequest([]byte(p)); return err }},
		{"request unknown species", `{"schema":2,"tick":0,"target":"unobtainium","concentration_mm":5,"duration_s":30,"seed":1}`, "unknown species",
			func(p string) error { _, err := UnmarshalMonitorRequest([]byte(p)); return err }},
		{"request negative duration", `{"schema":2,"tick":0,"target":"glucose","concentration_mm":5,"duration_s":-1,"seed":1}`, "negative",
			func(p string) error { _, err := UnmarshalMonitorRequest([]byte(p)); return err }},
		{"request baseline swallows trace", `{"schema":2,"tick":0,"target":"glucose","concentration_mm":5,"duration_s":30,"baseline_s":30,"seed":1}`, "swallows",
			func(p string) error { _, err := UnmarshalMonitorRequest([]byte(p)); return err }},
		{"request injection past end", `{"schema":2,"tick":0,"target":"glucose","concentration_mm":5,"duration_s":30,"injections":[{"at_s":31,"delta_mm":1}],"seed":1}`, "past",
			func(p string) error { _, err := UnmarshalMonitorRequest([]byte(p)); return err }},
		{"result schema skew", `{"schema":7,"times_s":[],"currents_ua":[],"t90_s":0,"transient_s":0,"baseline_ua":0,"steady_ua":0,"settled":true,"step_ua":0,"estimated_mm":0}`, "schema 7",
			func(p string) error { _, err := UnmarshalMonitorResult([]byte(p)); return err }},
		{"outcome schema skew", `{"schema":0,"index":0,"tick":0,"shard":0,"wall_s":0}`, "schema 0",
			func(p string) error { _, err := UnmarshalMonitorOutcome([]byte(p)); return err }},
		{"outcome trailing data", `{"schema":2,"index":0,"tick":0,"shard":0,"wall_s":0} {"x":1}`, "trailing",
			func(p string) error { _, err := UnmarshalMonitorOutcome([]byte(p)); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode(tc.payload)
			if err == nil {
				t.Fatalf("payload %s must fail to decode", tc.payload)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzMonitorRequest: every request MarshalMonitorRequest accepts must
// decode back identically, and arbitrary inputs must never panic the
// strict decoder or the runtime validation it delegates to.
func FuzzMonitorRequest(f *testing.F) {
	f.Add("patient-001", "glucose", 5.5, 30.0, 5.0, 10.0, 2.5, 24.0, uint64(1))
	f.Add("", "lactate", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint64(0))
	f.Add("p", "glutamate", 0.1, 4.0, 1.0, 3.9, -0.05, 8760.0, uint64(math.MaxUint64))

	f.Fuzz(func(t *testing.T, id, target string, mm, dur, base, injAt, injDelta, age float64, seed uint64) {
		// json.Marshal coerces invalid UTF-8 to U+FFFD; byte-exact
		// round-tripping is only promised for valid strings.
		if !utf8.ValidString(id) || !utf8.ValidString(target) {
			t.Skip()
		}
		r := MonitorRequest{
			ID:              id,
			Target:          target,
			ConcentrationMM: mm,
			DurationSeconds: dur,
			BaselineSeconds: base,
			Injections:      []Injection{{AtSeconds: injAt, DeltaMM: injDelta}},
			AgeHours:        age,
			Seed:            seed,
		}
		data, err := MarshalMonitorRequest(r)
		if err != nil {
			// Unknown species / non-finite / out-of-contract values are
			// correctly refused; nothing more to check.
			return
		}
		back, err := UnmarshalMonitorRequest(data)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output %s: %v", data, err)
		}
		r.Schema = SchemaVersion
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("round trip changed the request:\n%+v\nvs\n%+v", r, back)
		}
	})
}
