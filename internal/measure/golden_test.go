package measure

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
	"advdiag/internal/trace"
)

// The golden-trace suite pins the diffusion/electrochemistry hot path
// bit-for-bit: each test runs a fixed-seed protocol, hashes every
// float64 of the resulting traces, and compares against a committed
// golden file. Any numerical drift — an reordered floating-point
// reduction, a changed noise draw, a solver tweak — fails loudly here
// instead of silently shifting calibration results.
//
// To regenerate after an INTENTIONAL numerical change:
//
//	go test ./internal/measure -run TestGolden -update
//
// and commit the rewritten testdata/*.golden files with a note on why
// the numbers moved. A change to the noise draws also bumps
// analog.NoiseModelVersion.
var update = flag.Bool("update", false, "rewrite golden trace files")

// hashSeries folds labelled float64 slices into one sha256. The label
// keeps a swap of two same-length traces from cancelling out.
func hashSeries(parts map[string][]float64) string {
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		vals := parts[name]
		binary.LittleEndian.PutUint64(buf[:], uint64(len(vals)))
		h.Write(buf[:])
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenSummary renders the comparison record: the architecture the
// numbers were recorded on (Go permits FMA contraction, so bit
// patterns legitimately differ across architectures), the hash, and a
// few human-readable anchors (exact bit patterns) that make a mismatch
// diagnosable without rerunning old commits.
func goldenSummary(parts map[string][]float64, anchors map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "arch %s\n", runtime.GOARCH)
	fmt.Fprintf(&b, "sha256 %s\n", hashSeries(parts))
	names := make([]string, 0, len(anchors))
	for name := range anchors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := anchors[name]
		fmt.Fprintf(&b, "%s %016x (%g)\n", name, math.Float64bits(v), v)
	}
	return b.String()
}

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
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
	// Bit-exact comparison only holds within one architecture: the Go
	// compiler may fuse multiply-adds differently on e.g. arm64 than on
	// the arch that recorded the file.
	if arch, ok := strings.CutPrefix(strings.SplitN(string(want), "\n", 2)[0], "arch "); ok && arch != runtime.GOARCH {
		t.Skipf("golden file %s was recorded on %s, running on %s; regenerate with -update to pin this architecture", path, arch, runtime.GOARCH)
	}
	if string(want) != got {
		t.Errorf("numerical drift in the %s hot path.\n--- recorded (%s):\n%s--- current:\n%s"+
			"If the change is intentional, regenerate with `go test ./internal/measure -run TestGolden -update` and commit.",
			name, path, want, got)
	}
}

func seriesParts(prefix string, s *trace.Series) (string, []float64) {
	return prefix, s.Values
}

// TestGoldenCATrace pins the chronoamperometric hot path: glucose
// oxidase on CNT, two-phase protocol, fixed seed — membrane lag,
// Michaelis–Menten turnover, double-layer charging, blank noise, and
// the full analog chain all feed the hash.
func TestGoldenCATrace(t *testing.T) {
	a := assayFor(t, "glucose", enzyme.Chronoamperometry)
	we := electrode.NewWorking("WE1", electrode.CNT, a)
	sol := cell.NewSolution().Set("glucose", phys.MilliMolar(2))
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, err := NewEngine(c, 20240901)
	if err != nil {
		t.Fatal(err)
	}
	chain := analog.NewNanoChain(nil, eng.RNG())
	res, err := eng.RunCA("WE1", chain, Chronoamperometry{Duration: 90, BaselinePhase: 15})
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string][]float64{}
	for _, s := range []struct {
		name string
		ser  *trace.Series
	}{{"raw", res.Raw}, {"recorded", res.Recorded}, {"current", res.Current}} {
		k, v := seriesParts(s.name, s.ser)
		parts[k] = v
	}
	checkGolden(t, "ca_glucose", goldenSummary(parts, map[string]float64{
		"steady_A": float64(res.SteadyCurrent()),
		"step_A":   float64(res.StepCurrent()),
		"n":        float64(res.Current.Len()),
	}))
}

// TestGoldenCVTrace pins the voltammetric path of referenceRunCV, the
// per-binding-solver oracle RunCV is checked against: the CYP2B4
// dual-drug electrode, fixed seed — the diffusion solver, film
// background bumps, sweep generation, digitization, and the
// final-cycle voltammogram extraction all feed the hash. RunCV itself
// is pinned to this oracle by TestRunCVMatchesReference and, through
// RunCVWithBasis, by TestGoldenCVBasisTrace.
func TestGoldenCVTrace(t *testing.T) {
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	we := electrode.NewWorking("WE1", electrode.Bare, a)
	sol := cell.NewSolution().
		Set("benzphetamine", phys.MilliMolar(1)).
		Set("aminopyrine", phys.MilliMolar(4))
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, err := NewEngine(c, 20240902)
	if err != nil {
		t.Fatal(err)
	}
	chain := analog.NewNanoChain(nil, eng.RNG())
	var peaks []phys.Voltage
	for _, b := range a.CYP.Bindings {
		peaks = append(peaks, b.PeakPotential)
	}
	start, vertex := CVWindowFor(peaks...)
	res, err := referenceRunCV(eng, "WE1", chain, CyclicVoltammetry{Start: start, Vertex: vertex})
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string][]float64{
		"potential": res.Potential.Values,
		"raw":       res.Raw.Values,
		"current":   res.Current.Values,
		"vg_x":      res.Voltammogram.X,
		"vg_y":      res.Voltammogram.Y,
	}
	minY := math.Inf(1)
	for _, v := range res.Voltammogram.Y {
		if v < minY {
			minY = v
		}
	}
	checkGolden(t, "cv_cyp2b4", goldenSummary(parts, map[string]float64{
		"vg_points": float64(len(res.Voltammogram.X)),
		"vg_min_A":  minY,
		"n_samples": float64(res.Current.Len()),
		"sweep_Vs":  float64(res.Rate),
	}))
}

// TestGoldenCVTemplates pins the calibration side of the CV path: the
// noise-free unit templates the panel quantification fits against. If
// these drift relative to the measured traces, every concentration
// estimate silently shifts — so they get their own golden file.
func TestGoldenCVTemplates(t *testing.T) {
	a := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	we := electrode.NewWorking("WE1", electrode.Bare, a)
	sol := cell.NewSolution()
	c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, err := NewEngine(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	var peaks []phys.Voltage
	for _, b := range a.CYP.Bindings {
		peaks = append(peaks, b.PeakPotential)
	}
	start, vertex := CVWindowFor(peaks...)
	chain := analog.NewNanoChain(nil, eng.RNG())
	grid, templates, err := eng.CVTemplates("WE1", CyclicVoltammetry{Start: start, Vertex: vertex}, chain)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string][]float64{"grid_x": grid.X}
	anchors := map[string]float64{"grid_points": float64(len(grid.X))}
	for name, tpl := range templates {
		parts["tpl_"+name] = tpl
		peak := 0.0
		for _, v := range tpl {
			if -v > peak {
				peak = -v
			}
		}
		anchors["peak_"+name] = peak
	}
	checkGolden(t, "cv_templates_cyp2b4", goldenSummary(parts, anchors))
}

// TestGoldenCVBasisTrace pins the basis-mode voltammetric path
// (RunCVWithBasis) with every binding active, on the CYP2B4 dual-drug
// electrode and on a three-binding isoform (CYP2B4's bindings plus
// CYP2E1's p-nitrophenol), whose faradaic sum depends on the order the
// bindings are added in. Each runs one and two sweep cycles on a basis
// built through the run's own chain, whose sweep grid the run reads.
// Every trace of every run feeds one hash.
func TestGoldenCVBasisTrace(t *testing.T) {
	cyp2b4 := assayFor(t, "benzphetamine", enzyme.CyclicVoltammetry)
	cyp2e1 := assayFor(t, "p-nitrophenol", enzyme.CyclicVoltammetry)
	triple := cyp2b4
	triple.CYP = &enzyme.CYP{
		Isoform:  "CYP2B4+2E1",
		Bindings: append(append([]*enzyme.Binding(nil), cyp2b4.CYP.Bindings...), cyp2e1.Binding),
	}
	parts := map[string][]float64{}
	anchors := map[string]float64{}
	for _, a := range []enzyme.Assay{cyp2b4, triple} {
		var peaks []phys.Voltage
		for _, b := range a.CYP.Bindings {
			peaks = append(peaks, b.PeakPotential)
		}
		start, vertex := CVWindowFor(peaks...)
		for _, cycles := range []int{1, 2} {
			sol := cell.NewSolution()
			for k, b := range a.CYP.Bindings {
				sol.Set(b.Substrate.Name, phys.MilliMolar(float64(1+3*k)))
			}
			we := electrode.NewWorking("WE1", electrode.Bare, a)
			c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
			eng, err := NewEngine(c, 20240903+uint64(cycles))
			if err != nil {
				t.Fatal(err)
			}
			chain := analog.NewNanoChain(nil, eng.RNG())
			proto := CyclicVoltammetry{Start: start, Vertex: vertex, Cycles: cycles}
			basis, err := eng.CVFluxBasis("WE1", proto, chain)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunCVWithBasis("WE1", chain, proto, basis)
			if err != nil {
				t.Fatal(err)
			}
			// "chaintrue": the basis was built through the run's chain.
			key := fmt.Sprintf("%s_c%d_chaintrue_", a.CYP.Isoform, cycles)
			parts[key+"potential"] = res.Potential.Values
			parts[key+"raw"] = res.Raw.Values
			parts[key+"recorded"] = res.Recorded.Values
			parts[key+"current"] = res.Current.Values
			parts[key+"vg_x"] = res.Voltammogram.X
			parts[key+"vg_y"] = res.Voltammogram.Y
			minRaw := math.Inf(1)
			for _, v := range res.Raw.Values {
				minRaw = math.Min(minRaw, v)
			}
			anchors[key+"raw_min_A"] = minRaw
			anchors[key+"n_samples"] = float64(res.Raw.Len())
		}
	}
	checkGolden(t, "cv_basis_cyp2b4", goldenSummary(parts, anchors))
}
