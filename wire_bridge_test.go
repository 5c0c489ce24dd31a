package advdiag

import (
	"math"
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
