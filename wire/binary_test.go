package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func TestBinarySampleRoundTrip(t *testing.T) {
	s := Sample{ID: "patient-007", Concentrations: map[string]float64{"glucose": 5.5, "lactate": 1.25}}
	data, err := MarshalSampleBinary(s) // zero Schema is stamped
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSampleBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || back.ID != s.ID || !reflect.DeepEqual(back.Concentrations, s.Concentrations) {
		t.Fatalf("round trip: %+v", back)
	}
	// Equal samples encode to equal bytes (sorted key order).
	again, err := MarshalSampleBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("binary sample encoding is not canonical")
	}
}

// TestBinaryOutcomeRoundTripExact: decode(encode(x)) through the binary
// codec must reproduce every bit of every field across the double range
// — the same lossless property TestResultRoundTripExact pins for JSON.
func TestBinaryOutcomeRoundTripExact(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		res := randResult(seed, int(seed%7))
		o := Outcome{Seq: int(seed), Index: int(seed) * 3, ID: "p-µ/1", Shard: 2, Result: &res,
			ScheduledStartSeconds: 415 * float64(seed), WallSeconds: 0.25}
		data, err := MarshalOutcomeBinary(o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := UnmarshalOutcomeBinary(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		o.Schema = SchemaVersion
		if !reflect.DeepEqual(o, back) {
			t.Fatalf("seed %d: round trip changed the outcome:\n%+v\nvs\n%+v", seed, o, back)
		}
		for i := range res.Readings {
			for f, pair := range map[string][2]float64{
				"measured": {res.Readings[i].MeasuredMicroAmps, back.Result.Readings[i].MeasuredMicroAmps},
				"est":      {res.Readings[i].EstimatedMM, back.Result.Readings[i].EstimatedMM},
				"true":     {res.Readings[i].TrueMM, back.Result.Readings[i].TrueMM},
				"peak":     {res.Readings[i].PeakMV, back.Result.Readings[i].PeakMV},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("seed %d reading %d %s: bits %x vs %x", seed, i, f, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
				}
			}
		}
	}

	// Error outcomes carry no result; negative indices survive.
	e := Outcome{Seq: 4, Index: -1, Shard: -1, Error: "fleet saturated"}
	data, err := MarshalOutcomeBinary(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalOutcomeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Error != e.Error || back.Result != nil || back.Index != -1 || back.Shard != -1 {
		t.Fatalf("error outcome round trip: %+v", back)
	}
}

// TestBinaryStrictDecoding pins the binary boundary's rejections:
// version skew, foreign message kinds, truncation at every byte,
// trailing bytes, and frame-length lies.
func TestBinaryStrictDecoding(t *testing.T) {
	s := Sample{Concentrations: map[string]float64{"glucose": 5}}
	good, err := MarshalSampleBinary(s)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(mut func([]byte) []byte) []byte {
		cp := append([]byte(nil), good...)
		return mut(cp)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"version skew", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:], 9)
			return b
		}), "schema 9"},
		{"foreign kind", mutate(func(b []byte) []byte {
			b[6] = binKindOutcome
			return b
		}), "kind"},
		{"unknown kind", mutate(func(b []byte) []byte {
			b[6] = 0xEE
			return b
		}), "kind"},
		{"length lie", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, uint32(len(b)+7))
			return b
		}), "length"},
		{"trailing bytes", mutate(func(b []byte) []byte {
			b = append(b, 0xAB)
			binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}), "trailing"},
		{"empty", nil, "shorter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalSampleBinary(tc.data)
			if err == nil {
				t.Fatal("mutated frame must fail to decode")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Truncation at every prefix must error (never panic, never
	// succeed) once the frame length is made consistent again.
	for cut := 5; cut < len(good); cut++ {
		frame := append([]byte(nil), good[:cut]...)
		binary.LittleEndian.PutUint32(frame, uint32(cut-4))
		if _, err := UnmarshalSampleBinary(frame); err == nil {
			t.Fatalf("truncation to %d bytes must fail", cut)
		}
	}

	// Non-canonical key order is refused: every sample has exactly one
	// valid binary encoding.
	buf0 := beginFrame(binKindSample, 64)
	buf0 = appendBinString(buf0, "")
	buf0 = binary.LittleEndian.AppendUint32(buf0, 2)
	buf0 = appendBinString(buf0, "lactate")
	buf0 = appendBinFloat(buf0, 1)
	buf0 = appendBinString(buf0, "glucose")
	buf0 = appendBinFloat(buf0, 5)
	if _, err := UnmarshalSampleBinary(endFrame(buf0)); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Fatalf("out-of-order keys must fail binary decode, got %v", err)
	}

	// Runtime validation applies to decoded samples exactly as it does
	// to JSON ones.
	bad := Sample{Schema: SchemaVersion, Concentrations: map[string]float64{"unobtainium": 5}}
	buf := beginFrame(binKindSample, 64)
	buf = appendBinString(buf, bad.ID)
	buf = appendBinConcs(buf, bad.Concentrations)
	if _, err := UnmarshalSampleBinary(endFrame(buf)); err == nil || !strings.Contains(err.Error(), "unknown species") {
		t.Fatalf("unknown species must fail binary decode, got %v", err)
	}
}

// TestReadBinaryFrame pins the stream framing: frames reassemble one by
// one, a clean end is io.EOF, a mid-frame end is a truncation error,
// and the size bound rejects oversized payloads before allocation.
func TestReadBinaryFrame(t *testing.T) {
	s1, err := MarshalSampleBinary(Sample{ID: "a", Concentrations: map[string]float64{"glucose": 5}})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := MarshalSampleBinary(Sample{ID: "b", Concentrations: map[string]float64{"lactate": 1}})
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(append(append([]byte(nil), s1...), s2...))
	f1, err := ReadBinaryFrame(r, 1<<20)
	if err != nil || !bytes.Equal(f1, s1) {
		t.Fatalf("frame 1: %v", err)
	}
	f2, err := ReadBinaryFrame(r, 1<<20)
	if err != nil || !bytes.Equal(f2, s2) {
		t.Fatalf("frame 2: %v", err)
	}
	if _, err := ReadBinaryFrame(r, 1<<20); err != io.EOF {
		t.Fatalf("clean stream end must be io.EOF, got %v", err)
	}

	if _, err := ReadBinaryFrame(bytes.NewReader(s1[:len(s1)-3]), 1<<20); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("mid-frame end must be a truncation error, got %v", err)
	}
	if _, err := ReadBinaryFrame(bytes.NewReader(s1[:2]), 1<<20); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("mid-header end must be a truncation error, got %v", err)
	}
	if _, err := ReadBinaryFrame(bytes.NewReader(s1), 8); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("oversized frame must be refused, got %v", err)
	}
}

// FuzzBinaryRoundTrip: arbitrary bytes must never panic the strict
// binary decoder, and everything it does accept must re-encode to the
// identical frame (the encoding is canonical).
func FuzzBinaryRoundTrip(f *testing.F) {
	if s, err := MarshalSampleBinary(Sample{ID: "p", Concentrations: map[string]float64{"glucose": 5.5}}); err == nil {
		f.Add(s)
	}
	res := randResult(7, 3)
	if o, err := MarshalOutcomeBinary(Outcome{Seq: 1, Index: 2, ID: "x", Shard: 0, Result: &res}); err == nil {
		f.Add(o)
	}
	if e, err := MarshalOutcomeBinary(Outcome{Index: -1, Shard: -1, Error: "boom"}); err == nil {
		f.Add(e)
	}
	f.Add([]byte{3, 0, 0, 0, 1, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := UnmarshalSampleBinary(data); err == nil {
			if !utf8.ValidString(s.ID) {
				return // invalid UTF-8 re-encodes byte-identically anyway, but stay conservative
			}
			again, err := MarshalSampleBinary(s)
			if err != nil {
				t.Fatalf("encoder rejected its own decoder's output: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("sample re-encode differs:\n%x\nvs\n%x", data, again)
			}
		}
		if o, err := UnmarshalOutcomeBinary(data); err == nil {
			again, err := MarshalOutcomeBinary(o)
			if err != nil {
				t.Fatalf("encoder rejected its own decoder's output: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("outcome re-encode differs:\n%x\nvs\n%x", data, again)
			}
		}
	})
}

// TestBinaryCodecCheaperThanJSON pins the binary framing's reason to
// exist: one round trip of a Fig. 4-sized sample and its outcome
// (encode and decode of each) must cost less than in JSON. Measured on
// a 2-vCPU x86-64 host with go1.24: JSON ≈50 µs, binary ≈5.5 µs.
func TestBinaryCodecCheaperThanJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("times both codecs with testing.Benchmark")
	}
	s := Sample{Schema: SchemaVersion, ID: "patient-007", Concentrations: map[string]float64{}}
	res := PanelResult{Schema: SchemaVersion, PanelSeconds: 612.5, NoiseModel: 2}
	for i, target := range []string{"glucose", "lactate", "glutamate", "benzphetamine", "aminopyrine", "cholesterol"} {
		k := float64(i + 1)
		s.Concentrations[target] = 0.3712345678*k + 0.05
		res.Readings = append(res.Readings, Reading{
			Target: target, WE: "WE" + string(rune('1'+i)), Probe: "GOx",
			MeasuredMicroAmps: 0.1371234567 * k, EstimatedMM: 1.9112345678 * k, TrueMM: 0.3712345678*k + 0.05, PeakMV: -412.53125,
		})
	}
	o := Outcome{Schema: SchemaVersion, Seq: 3, Index: 1042, ID: s.ID, Shard: 2,
		ScheduledStartSeconds: 3600.25, WallSeconds: 0.00071234, Result: &res}

	jsonTrip := func() error {
		data, err := MarshalSample(s)
		if err == nil {
			_, err = UnmarshalSample(data)
		}
		if err == nil {
			data, err = MarshalOutcome(o)
		}
		if err == nil {
			_, err = UnmarshalOutcome(data)
		}
		return err
	}
	binTrip := func() error {
		data, err := MarshalSampleBinary(s)
		if err == nil {
			_, err = UnmarshalSampleBinary(data)
		}
		if err == nil {
			data, err = MarshalOutcomeBinary(o)
		}
		if err == nil {
			_, err = UnmarshalOutcomeBinary(data)
		}
		return err
	}
	cost := func(trip func() error) time.Duration {
		if err := trip(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := trip(); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp())
	}
	jsonCost, binCost := cost(jsonTrip), cost(binTrip)
	t.Logf("sample+outcome round trip: JSON %v, binary %v (%.1fx)", jsonCost, binCost, float64(jsonCost)/float64(binCost))
	if binCost >= jsonCost {
		t.Fatalf("binary round trip %v is not cheaper than JSON %v", binCost, jsonCost)
	}
}
