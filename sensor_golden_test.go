package advdiag_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"advdiag"
)

var updateSensorGolden = flag.Bool("update", false, "rewrite testdata/sensor.golden")

// sensorGolden accumulates one labelled float64 or uint64 per line,
// written as its exact bit pattern.
type sensorGolden struct{ b strings.Builder }

func (g *sensorGolden) float(label string, v float64) {
	fmt.Fprintf(&g.b, "%s %016x\n", label, math.Float64bits(v))
}

func (g *sensorGolden) word(label string, u uint64) {
	fmt.Fprintf(&g.b, "%s %016x\n", label, u)
}

// curveHash folds a voltammogram's potentials and currents into one
// FNV-1a value over their exact bit patterns.
func curveHash(vg *advdiag.Voltammogram) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range [][]float64{vg.PotentialsMV, vg.CurrentsMicroAmps} {
		for _, v := range s {
			u := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// TestSensorGolden pins the hand-held Sensor bit for bit: glucose
// chronoamperometry (bare and chopper), a continuous-monitoring run, the
// benzphetamine and CYP11A1 cholesterol voltammetric measurements on
// bare and nanostructured electrodes, and a CYP2B4 voltammogram of a
// two-drug sample. Every sensor is measured more than once, so the
// noise stream's carry-over from one measurement to the next is pinned
// too. Lines labelled ca/ come from chronoamperometry, cv/ from cyclic
// voltammetry.
//
// To regenerate after an intentional numerical change:
//
//	go test . -run TestSensorGolden -update
func TestSensorGolden(t *testing.T) {
	var g sensorGolden
	fmt.Fprintf(&g.b, "arch %s\n", runtime.GOARCH)

	measure := func(prefix string, s *advdiag.Sensor, concs ...float64) {
		t.Helper()
		for i, c := range concs {
			uA, err := s.MeasureSteadyState(c)
			if err != nil {
				t.Fatalf("%s at %g mM: %v", prefix, c, err)
			}
			g.float(fmt.Sprintf("%s/call%d/%gmM", prefix, i+1, c), uA)
		}
	}
	newSensor := func(target string, opts ...advdiag.SensorOption) *advdiag.Sensor {
		t.Helper()
		s, err := advdiag.NewSensor(target, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for seed := uint64(1); seed <= 3; seed++ {
		measure(fmt.Sprintf("ca/glucose/chopper/seed%d", seed),
			newSensor("glucose", advdiag.WithSeed(seed), advdiag.WithChopper()), 0, 0.5, 2, 0.5)
		measure(fmt.Sprintf("ca/glucose/bare/seed%d", seed),
			newSensor("glucose", advdiag.WithSeed(seed), advdiag.WithBareElectrode()), 0, 0.5, 2, 0.5)
	}

	mon := newSensor("glucose", advdiag.WithSeed(4))
	for call := 1; call <= 2; call++ {
		res, err := mon.Monitor(60, advdiag.InjectionEvent{AtSeconds: 20, DeltaMM: 1})
		if err != nil {
			t.Fatal(err)
		}
		g.word(fmt.Sprintf("ca/glucose/monitor/call%d", call), res.Fingerprint())
	}

	measure("cv/benzphetamine/bare", newSensor("benzphetamine", advdiag.WithSeed(5), advdiag.WithBareElectrode()), 0, 0.5, 1.3, 0.5)
	measure("cv/benzphetamine/cnt", newSensor("benzphetamine", advdiag.WithSeed(5), advdiag.WithNanostructuredElectrode()), 0, 0.5, 1.3, 0.5)

	vs := newSensor("benzphetamine", advdiag.WithSeed(6))
	for call := 1; call <= 2; call++ {
		vg, err := vs.RunVoltammetry(map[string]float64{"benzphetamine": 1, "aminopyrine": 4})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("cv/cyp2b4/voltammetry/call%d", call)
		g.word(label+"/curve", curveHash(vg))
		for i, pk := range vg.Peaks {
			g.float(fmt.Sprintf("%s/peak%d/mV", label, i), pk.PotentialMV)
			g.float(fmt.Sprintf("%s/peak%d/uA", label, i), pk.HeightMicroAmps)
		}
	}

	measure("cv/cholesterol/cyp11a1", newSensor("cholesterol", advdiag.WithProbe("CYP11A1"), advdiag.WithSeed(7)), 0, 0.05, 0.1)

	got := g.b.String()
	path := filepath.Join("testdata", "sensor.golden")
	if *updateSensorGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	// Go permits FMA contraction, so bit patterns are pinned per
	// architecture.
	if arch, ok := strings.CutPrefix(strings.SplitN(string(want), "\n", 2)[0], "arch "); ok && arch != runtime.GOARCH {
		t.Skipf("%s was recorded on %s, running on %s; regenerate with -update to pin this architecture", path, arch, runtime.GOARCH)
	}
	if string(want) != got {
		t.Errorf("the Sensor's outputs drifted.\n--- recorded (%s):\n%s--- current:\n%s", path, want, got)
	}
}
