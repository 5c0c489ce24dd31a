package advdiag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/mathx"
	"advdiag/wire"
)

// TestWireBridgeFingerprint is the wire round-trip property at the
// type boundary: converting a PanelResult to its wire twin, through
// JSON, and back must preserve the fingerprint bit-for-bit — for
// values across the double range, not just the friendly ones.
func TestWireBridgeFingerprint(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := mathx.NewRNG(seed)
		gnarly := func() float64 {
			switch rng.Uint64() % 4 {
			case 0:
				return math.Copysign(5e-324*float64(1+rng.Uint64()%997), rng.Float64()-0.5)
			case 1:
				return math.Copysign(1e307*rng.Float64(), rng.Float64()-0.5)
			default:
				return (rng.Float64() - 0.5) * 1e3
			}
		}
		pr := PanelResult{PanelSeconds: 90 * rng.Float64()}
		for i := uint64(0); i < seed%6; i++ {
			pr.Readings = append(pr.Readings, TargetReading{
				Target:            "species-µ",
				WE:                "we1",
				Probe:             "GOx",
				MeasuredMicroAmps: gnarly(),
				EstimatedMM:       gnarly(),
				TrueMM:            gnarly(),
				PeakMV:            gnarly(),
			})
		}

		data, err := wire.MarshalResult(toWireResult(pr))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wr, err := wire.UnmarshalResult(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back := resultFromWire(wr)
		if got, want := back.Fingerprint(), pr.Fingerprint(); got != want {
			t.Fatalf("seed %d: fingerprint %x != %x after wire round trip", seed, got, want)
		}
	}
}

// TestWireBridgeFingerprintBinary is the same round-trip property
// through the binary codec: a PanelResult carried inside a binary
// outcome frame must come back fingerprint-identical, across the
// double range.
func TestWireBridgeFingerprintBinary(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := mathx.NewRNG(seed + 1000)
		gnarly := func() float64 {
			switch rng.Uint64() % 4 {
			case 0:
				return math.Copysign(5e-324*float64(1+rng.Uint64()%997), rng.Float64()-0.5)
			case 1:
				return math.Copysign(1e307*rng.Float64(), rng.Float64()-0.5)
			default:
				return (rng.Float64() - 0.5) * 1e3
			}
		}
		pr := PanelResult{PanelSeconds: 90 * rng.Float64()}
		for i := uint64(0); i < seed%6; i++ {
			pr.Readings = append(pr.Readings, TargetReading{
				Target:            "species-µ",
				WE:                "we1",
				Probe:             "GOx",
				MeasuredMicroAmps: gnarly(),
				EstimatedMM:       gnarly(),
				TrueMM:            gnarly(),
				PeakMV:            gnarly(),
			})
		}

		o := PanelOutcome{Index: int(seed), ID: "p", Result: pr}
		data, err := wire.MarshalOutcomeBinary(toWireOutcome(0, o))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wo, err := wire.UnmarshalOutcomeBinary(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back := outcomeFromWire(wo)
		if got, want := back.Result.Fingerprint(), pr.Fingerprint(); got != want {
			t.Fatalf("seed %d: fingerprint %x != %x after binary wire round trip", seed, got, want)
		}
	}
}

// TestWireBridgeOutcome pins the outcome bridge both ways, including
// the error side (errors travel as strings and come back as errors).
func TestWireBridgeOutcome(t *testing.T) {
	pr := PanelResult{PanelSeconds: 90, Readings: []TargetReading{{Target: "glucose", WE: "we1", Probe: "GOx", MeasuredMicroAmps: 1.5, EstimatedMM: 5.5, TrueMM: 5.4}}}
	o := PanelOutcome{Index: 7, ID: "p-9", Shard: 1, Result: pr, ScheduledStartSeconds: 630, WallSeconds: 0.001}
	wo := toWireOutcome(3, o)
	if wo.Seq != 3 || wo.Error != "" || wo.Result == nil {
		t.Fatalf("wire outcome: %+v", wo)
	}
	if wo.Result.NoiseModel != analog.NoiseModelVersion {
		t.Fatalf("wire result stamped noise model %d, want %d", wo.Result.NoiseModel, analog.NoiseModelVersion)
	}
	back := outcomeFromWire(wo)
	if back.Err != nil || back.Index != 7 || back.ID != "p-9" || back.Shard != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Result.Fingerprint() != pr.Fingerprint() {
		t.Fatal("outcome bridge changed the result fingerprint")
	}

	eo := toWireOutcome(0, PanelOutcome{Index: 4, ID: "p-2", Shard: 0, Err: ErrFleetSaturated})
	if eo.Error == "" || eo.Result != nil {
		t.Fatalf("error outcome: %+v", eo)
	}
	if back := outcomeFromWire(eo); back.Err == nil || back.Err.Error() != ErrFleetSaturated.Error() {
		t.Fatalf("error round trip: %+v", back)
	}
}

// TestOutcomeWritersDegradeNonFinite feeds a batch whose middle outcome
// carries a NaN reading, which the wire encoders refuse, through all
// four outcome writers: the /v1/panels JSON answer, the JSON batch
// array, NDJSON stream lines and binary frames. Each must deliver a
// decodable error outcome in the middle slot, between its untouched
// neighbours.
func TestOutcomeWritersDegradeNonFinite(t *testing.T) {
	outs := make([]wire.Outcome, 3)
	for i := range outs {
		pr := PanelResult{PanelSeconds: 90, Readings: []TargetReading{{Target: "glucose", WE: "WE1", Probe: "GOx", MeasuredMicroAmps: 1.5, EstimatedMM: 5.5, TrueMM: 5.4}}}
		if i == 1 {
			pr.Readings[0].EstimatedMM = math.NaN()
		}
		outs[i] = toWireOutcome(i, PanelOutcome{Index: i, ID: fmt.Sprint("s-", i), Result: pr})
	}
	check := func(writer string, got []wire.Outcome) {
		t.Helper()
		if len(got) != len(outs) {
			t.Fatalf("%s: %d outcomes, want %d", writer, len(got), len(outs))
		}
		for i, o := range got {
			if o.Seq != i || o.ID != outs[i].ID {
				t.Fatalf("%s: slot %d holds seq %d id %q", writer, i, o.Seq, o.ID)
			}
			if i == 1 && (o.Result != nil || !strings.Contains(o.Error, "finite")) {
				t.Fatalf("%s: the NaN outcome arrived as %+v, want an error outcome", writer, o)
			}
			if i != 1 && (o.Error != "" || o.Result == nil || o.Result.Readings[0].EstimatedMM != 5.5) {
				t.Fatalf("%s: slot %d arrived as %+v, want its result", writer, i, o)
			}
		}
	}
	decodeLines := func(writer string, data []byte) []wire.Outcome {
		t.Helper()
		var got []wire.Outcome
		for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
			o, err := wire.UnmarshalOutcome(line)
			if err != nil {
				t.Fatalf("%s: %v", writer, err)
			}
			got = append(got, o)
		}
		return got
	}

	var single []wire.Outcome
	for _, o := range outs {
		var buf bytes.Buffer
		writeJSONOutcome(&buf, o)
		single = append(single, decodeLines("single answer", buf.Bytes())...)
	}
	check("single answer", single)

	var stream bytes.Buffer
	for _, o := range outs {
		writeJSONOutcome(&stream, o)
	}
	check("NDJSON stream", decodeLines("NDJSON stream", stream.Bytes()))

	var batch bytes.Buffer
	writeJSONOutcomes(&batch, outs)
	var elems []json.RawMessage
	if err := json.Unmarshal(batch.Bytes(), &elems); err != nil {
		t.Fatalf("batch array: %v", err)
	}
	var fromBatch []wire.Outcome
	for _, e := range elems {
		o, err := wire.UnmarshalOutcome(e)
		if err != nil {
			t.Fatalf("batch array: %v", err)
		}
		fromBatch = append(fromBatch, o)
	}
	check("batch array", fromBatch)

	var frames bytes.Buffer
	for _, o := range outs {
		writeBinaryOutcome(&frames, o)
	}
	var fromFrames []wire.Outcome
	if err := readOutcomeFrames(&frames, func(o wire.Outcome) { fromFrames = append(fromFrames, o) }); err != nil {
		t.Fatalf("binary frames: %v", err)
	}
	check("binary frames", fromFrames)
}
