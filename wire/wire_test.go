package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"advdiag/internal/mathx"
)

// randResult builds a deterministic pseudo-random panel result whose
// floats exercise the full double range (subnormals, huge magnitudes,
// negative zero) — the values a lossless wire format must carry.
func randResult(seed uint64, readings int) PanelResult {
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
	r := PanelResult{Schema: SchemaVersion, PanelSeconds: 90 * rng.Float64(), NoiseModel: int(seed % 3)}
	for i := 0; i < readings; i++ {
		r.Readings = append(r.Readings, Reading{
			Target:            "target-" + string(rune('a'+i%26)),
			WE:                "we" + string(rune('0'+i%10)),
			Probe:             "probe µ/1A2", // unicode survives JSON
			MeasuredMicroAmps: gnarly(),
			EstimatedMM:       gnarly(),
			TrueMM:            gnarly(),
			PeakMV:            gnarly(),
		})
	}
	return r
}

// TestResultRoundTripExact: decode(encode(x)) must reproduce every bit
// of every field across the double range — the property the serving
// layer's fingerprint guarantee rests on.
func TestResultRoundTripExact(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := randResult(seed, int(seed%7))
		data, err := MarshalResult(r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := UnmarshalResult(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("seed %d: round trip changed the result:\n%+v\nvs\n%+v", seed, r, back)
		}
		for i := range r.Readings {
			for f, pair := range map[string][2]float64{
				"measured": {r.Readings[i].MeasuredMicroAmps, back.Readings[i].MeasuredMicroAmps},
				"est":      {r.Readings[i].EstimatedMM, back.Readings[i].EstimatedMM},
				"true":     {r.Readings[i].TrueMM, back.Readings[i].TrueMM},
				"peak":     {r.Readings[i].PeakMV, back.Readings[i].PeakMV},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("seed %d reading %d %s: bits %x vs %x", seed, i, f, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
				}
			}
		}
	}
}

func TestSampleRoundTrip(t *testing.T) {
	s := Sample{ID: "patient-007", Concentrations: map[string]float64{"glucose": 5.5, "lactate": 1.25}}
	data, err := MarshalSample(s) // zero Schema is stamped
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSample(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || back.ID != s.ID || !reflect.DeepEqual(back.Concentrations, s.Concentrations) {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	res := randResult(3, 4)
	o := Outcome{Seq: 2, Index: 17, ID: "p-1", Shard: 1, Result: &res, ScheduledStartSeconds: 180, WallSeconds: 0.002}
	data, err := MarshalOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	o.Schema = SchemaVersion
	if !reflect.DeepEqual(o, back) {
		t.Fatalf("round trip changed the outcome:\n%+v\nvs\n%+v", o, back)
	}

	// Error outcomes carry no result.
	e := Outcome{Seq: 0, Index: -1, Shard: -1, Error: "fleet saturated"}
	data, err = MarshalOutcome(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err = UnmarshalOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Error != e.Error || back.Result != nil || back.Index != -1 {
		t.Fatalf("error outcome round trip: %+v", back)
	}
}

// TestStrictDecoding pins every rejection the boundary owes its
// callers: version skew, unknown fields, trailing data, and payloads
// the execution runtime would refuse.
func TestStrictDecoding(t *testing.T) {
	cases := []struct {
		name, payload, want string
		decode              func(string) error
	}{
		{"sample schema skew", `{"schema":3,"concentrations":{"glucose":5}}`, "schema 3",
			func(p string) error { _, err := UnmarshalSample([]byte(p)); return err }},
		{"sample schema missing", `{"concentrations":{"glucose":5}}`, "schema 0",
			func(p string) error { _, err := UnmarshalSample([]byte(p)); return err }},
		{"sample unknown field", `{"schema":2,"concentrations":{"glucose":5},"priority":9}`, "unknown field",
			func(p string) error { _, err := UnmarshalSample([]byte(p)); return err }},
		{"sample trailing data", `{"schema":2,"concentrations":{"glucose":5}} {"x":1}`, "trailing",
			func(p string) error { _, err := UnmarshalSample([]byte(p)); return err }},
		{"sample unknown species", `{"schema":2,"concentrations":{"unobtainium":5}}`, "unknown species",
			func(p string) error { _, err := UnmarshalSample([]byte(p)); return err }},
		{"sample negative concentration", `{"schema":2,"concentrations":{"glucose":-1}}`, "negative",
			func(p string) error { _, err := UnmarshalSample([]byte(p)); return err }},
		{"sample unphysical concentration", `{"schema":2,"concentrations":{"glucose":1e30}}`, "bound",
			func(p string) error { _, err := UnmarshalSample([]byte(p)); return err }},
		{"result schema skew", `{"schema":7,"readings":[],"panel_seconds":90}`, "schema 7",
			func(p string) error { _, err := UnmarshalResult([]byte(p)); return err }},
		{"result unknown field", `{"schema":2,"readings":[],"panel_seconds":90,"lab":"x"}`, "unknown field",
			func(p string) error { _, err := UnmarshalResult([]byte(p)); return err }},
		{"result negative noise model", `{"schema":2,"readings":[],"panel_seconds":90,"noise_model":-1}`, "noise_model",
			func(p string) error { _, err := UnmarshalResult([]byte(p)); return err }},
		{"outcome schema skew", `{"schema":0,"seq":0,"index":0,"shard":0}`, "schema 0",
			func(p string) error { _, err := UnmarshalOutcome([]byte(p)); return err }},
		{"outcome result schema skew", `{"schema":2,"seq":0,"index":0,"shard":0,"result":{"schema":3,"readings":[],"panel_seconds":1},"scheduled_start_s":0,"wall_s":0}`, "schema 3",
			func(p string) error { _, err := UnmarshalOutcome([]byte(p)); return err }},
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

// TestMarshalRejectsNonFinite: NaN/Inf cannot travel as JSON; the
// validator must say so up front instead of failing deep inside
// json.Marshal.
func TestMarshalRejectsNonFinite(t *testing.T) {
	r := PanelResult{Readings: []Reading{{Target: "glucose", EstimatedMM: math.NaN()}}, PanelSeconds: 90}
	if _, err := MarshalResult(r); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN reading must fail marshal, got %v", err)
	}
	r = PanelResult{PanelSeconds: math.Inf(1)}
	if _, err := MarshalResult(r); err == nil {
		t.Fatal("Inf panel_seconds must fail marshal")
	}
	s := Sample{Concentrations: map[string]float64{"glucose": math.NaN()}}
	if _, err := MarshalSample(s); err == nil {
		t.Fatal("NaN concentration must fail marshal")
	}
	bad := PanelResult{PanelSeconds: math.Inf(-1)}
	if _, err := MarshalOutcome(Outcome{Index: 1, Result: &bad}); err == nil {
		t.Fatal("non-finite result inside an outcome must fail marshal")
	}
}

// FuzzSampleRoundTrip: every sample MarshalSample accepts must decode
// back identically, and arbitrary bytes must never panic the strict
// decoder.
func FuzzSampleRoundTrip(f *testing.F) {
	f.Add("patient-001", "glucose", 5.5, "lactate", 1.0)
	f.Add("", "benzphetamine", 0.8, "", 0.0)
	f.Add("p", "cholesterol", 5e-324, "glutamate", 99999.0)

	f.Fuzz(func(t *testing.T, id, spec1 string, mm1 float64, spec2 string, mm2 float64) {
		// json.Marshal coerces invalid UTF-8 to U+FFFD; byte-exact
		// round-tripping is only promised for valid strings.
		if !utf8.ValidString(id) {
			t.Skip()
		}
		s := Sample{ID: id, Concentrations: map[string]float64{}}
		if spec1 != "" {
			s.Concentrations[spec1] = mm1
		}
		if spec2 != "" {
			s.Concentrations[spec2] = mm2
		}
		data, err := MarshalSample(s)
		if err != nil {
			// Unknown species / non-finite / out-of-bound values are
			// correctly refused; nothing more to check.
			return
		}
		back, err := UnmarshalSample(data)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output %s: %v", data, err)
		}
		if back.ID != s.ID || len(back.Concentrations) != len(s.Concentrations) {
			t.Fatalf("round trip changed the sample: %+v vs %+v", back, s)
		}
		for k, v := range s.Concentrations {
			if math.Float64bits(back.Concentrations[k]) != math.Float64bits(v) {
				t.Fatalf("concentration %q: %g vs %g", k, back.Concentrations[k], v)
			}
		}
	})
}

// FuzzResultRoundTrip drives the lossless-float property from
// arbitrary bit patterns: any finite float64 placed in a result field
// must survive encode→decode bit-for-bit.
func FuzzResultRoundTrip(f *testing.F) {
	f.Add("glucose", uint64(0x3ff0000000000000), uint64(1), uint64(0x7fefffffffffffff), uint64(0x8000000000000001))
	f.Add("", uint64(0), uint64(0x8000000000000000), uint64(0x0010000000000000), uint64(42))

	f.Fuzz(func(t *testing.T, target string, b1, b2, b3, b4 uint64) {
		if !utf8.ValidString(target) {
			t.Skip()
		}
		vals := [4]float64{math.Float64frombits(b1), math.Float64frombits(b2), math.Float64frombits(b3), math.Float64frombits(b4)}
		finite := true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
		}
		r := PanelResult{
			Readings:     []Reading{{Target: target, WE: "we1", Probe: "p", MeasuredMicroAmps: vals[0], EstimatedMM: vals[1], TrueMM: vals[2], PeakMV: vals[3]}},
			PanelSeconds: 90,
		}
		data, err := MarshalResult(r)
		if !finite {
			if err == nil {
				t.Fatalf("non-finite result %v must fail marshal", vals)
			}
			return
		}
		if err != nil {
			t.Fatalf("finite result failed marshal: %v", err)
		}
		back, err := UnmarshalResult(data)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output %s: %v", data, err)
		}
		got := back.Readings[0]
		for i, g := range [4]float64{got.MeasuredMicroAmps, got.EstimatedMM, got.TrueMM, got.PeakMV} {
			if math.Float64bits(g) != math.Float64bits(vals[i]) {
				t.Fatalf("field %d: bits %x vs %x", i, math.Float64bits(g), math.Float64bits(vals[i]))
			}
		}
		if got.Target != target {
			t.Fatalf("target: %q vs %q", got.Target, target)
		}
	})
}
