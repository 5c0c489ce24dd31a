package runtime

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"

	"advdiag/internal/core"
)

// update rewrites testdata/monitor_ticks.golden. Regenerate only after
// an intentional numerical change, and say in the commit why the
// numbers moved.
var update = flag.Bool("update", false, "rewrite golden files")

// monitorExecutor is a warmed platform with two monitorable oxidase
// targets, so monitor tests can alternate targets on one Executor.
func monitorExecutor(t testing.TB) *Executor {
	t.Helper()
	best, err := core.BestWith(core.Requirements{
		Targets: []core.TargetSpec{{Species: "glucose"}, {Species: "lactate"}},
	}, core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.Synthesize(best)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(inner, 7)
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	return e
}

// traceFingerprint folds every numeric field and series of a monitor
// trace into one FNV-1a value over exact float64 bit patterns, in the
// order the public MonitorResult.Fingerprint hashes them.
func traceFingerprint(tr MonitorTrace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	series := func(vs []float64) {
		word(uint64(len(vs)))
		for _, v := range vs {
			f(v)
		}
	}
	series(tr.TimesSeconds)
	series(tr.CurrentsMicroAmps)
	f(tr.Analysis.T90Seconds)
	f(tr.Analysis.TransientSeconds)
	f(tr.Analysis.BaselineMicroAmps)
	f(tr.Analysis.SteadyMicroAmps)
	if tr.Analysis.Settled {
		word(1)
	} else {
		word(0)
	}
	f(tr.StepMicroAmps)
	f(tr.EstimatedMM)
	return h.Sum64()
}

// goldenMonitorSpecs is the fixed tick list the golden file pins. It
// alternates the two targets and cycles through zero, one and two
// injections, polymer on and off, film ages from 0 to 168 h, a
// baseline phase or none, a zero concentration and the default
// duration.
func goldenMonitorSpecs() []MonitorSpec {
	targets := []string{"glucose", "lactate"}
	concs := []float64{0, 0.6, 1.2, 2.4}
	durations := []float64{30, 0, 12}
	const n = 36
	specs := make([]MonitorSpec, 0, n)
	for i := 0; i < n; i++ {
		s := MonitorSpec{
			Target:          targets[i%2],
			ConcentrationMM: concs[i%4],
			DurationSeconds: durations[i%3],
			AgeHours:        float64(i) * 168 / (n - 1),
			Polymer:         i%4 >= 2,
		}
		if i%5 == 1 || i%5 == 3 {
			s.BaselineSeconds = 5
		}
		d := s.effectiveDuration()
		switch (i / 2) % 3 {
		case 1:
			s.Injections = []Injection{{AtSeconds: d / 2, DeltaMM: 0.8}}
		case 2:
			s.Injections = []Injection{{AtSeconds: d / 3, DeltaMM: 0.8}, {AtSeconds: 2 * d / 3, DeltaMM: 0.4}}
		}
		specs = append(specs, s)
	}
	return specs
}

// TestMonitorTicksGolden pins RunMonitor bit for bit: each spec of
// goldenMonitorSpecs runs at a fixed seed, and its trace fingerprint
// must match testdata/monitor_ticks.golden. To regenerate after an
// INTENTIONAL numerical change:
//
//	go test ./internal/runtime -run TestMonitorTicksGolden -update
func TestMonitorTicksGolden(t *testing.T) {
	e := monitorExecutor(t)
	var b strings.Builder
	fmt.Fprintf(&b, "arch %s\n", goruntime.GOARCH)
	for i, spec := range goldenMonitorSpecs() {
		tr, err := e.RunMonitor(spec, MonitorSeed(e.Seed(), "golden", i))
		if err != nil {
			t.Fatalf("spec %d %+v: %v", i, spec, err)
		}
		fmt.Fprintf(&b, "%02d %s %016x\n", i, spec.Target, traceFingerprint(tr))
	}
	got := b.String()
	path := filepath.Join("testdata", "monitor_ticks.golden")
	if *update {
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
	// Bit patterns are only pinned within one architecture (the
	// compiler may fuse multiply-adds differently elsewhere).
	if arch, ok := strings.CutPrefix(strings.SplitN(string(want), "\n", 2)[0], "arch "); ok && arch != goruntime.GOARCH {
		t.Skipf("golden file %s was recorded on %s, running on %s", path, arch, goruntime.GOARCH)
	}
	if string(want) != got {
		t.Errorf("monitor ticks drifted.\n--- recorded (%s):\n%s--- current:\n%s", path, want, got)
	}
}
