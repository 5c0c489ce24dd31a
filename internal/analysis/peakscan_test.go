package analysis

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"advdiag/internal/cell"
	"advdiag/internal/core"
	"advdiag/internal/enzyme"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
	"advdiag/internal/signalproc"
	"advdiag/internal/trace"
)

// findReductionPeaksReference is the multi-pass FindReductionPeaks the
// scratch scan replaced, kept as the bit-identity oracle: the branch
// copied out, a negated copy, then signalproc.Detrend and
// signalproc.MovingAverage each into a fresh slice and
// signalproc.FindPeaks (pinned to the walking detector by signalproc's
// own oracle).
func findReductionPeaksReference(vg *trace.XY, minHeight phys.Current) ([]PeakQuant, error) {
	if err := vg.Validate(); err != nil {
		return nil, err
	}
	if vg.Len() < 8 {
		return nil, ErrInsufficientData
	}
	pot, cur := []float64{vg.X[0]}, []float64{vg.Y[0]}
	for i := 1; i < vg.Len(); i++ {
		if vg.X[i] >= vg.X[i-1] {
			break
		}
		pot = append(pot, vg.X[i])
		cur = append(cur, vg.Y[i])
	}
	if len(pot) < 8 {
		return nil, fmt.Errorf("analysis: voltammogram does not start with a cathodic branch")
	}
	inv := make([]float64, len(cur))
	for i, y := range cur {
		inv[i] = -y
	}
	smooth := signalproc.MovingAverage(signalproc.Detrend(inv), 5)
	var out []PeakQuant
	for _, p := range signalproc.FindPeaks(pot, smooth, float64(minHeight)) {
		if p.Y < float64(minHeight) {
			continue
		}
		out = append(out, PeakQuant{Potential: phys.Voltage(p.X), Height: phys.Current(p.Y), Prominence: p.Prominence})
	}
	return out, nil
}

// randomVoltammogram draws one cycle of 0–700 samples: a falling
// branch and the rising return, or (one time in ten) a cycle that
// starts rising; one in fifty drops its last current. Currents come
// from four families like those of signalproc's peak oracle: Fig.
// 4-shaped ADC-quantized reduction peaks on a sloped charging
// background, small integers dense in ties, plateau random walks, and
// ±0, ±1 and ±MaxFloat64, whose sums overflow to infinities.
func randomVoltammogram(rng *rand.Rand) *trace.XY {
	n := rng.IntN(701)
	vg := trace.NewXY("V", "A")
	start, step := 0.1+0.2*rng.Float64(), 1e-3*(0.5+2*rng.Float64())
	if rng.IntN(3) == 0 {
		// A dyadic grid keeps potential differences exact, so peaks
		// either side of an expected potential tie in distance.
		start, step = float64(rng.IntN(256))/512, 1.0/512
	}
	turn := rng.IntN(n + 1)
	if rng.IntN(10) == 0 {
		turn = 0
	}
	lsb := math.Pow(10, -12+rng.Float64())
	slope, offset := rng.NormFloat64()*1e-9, rng.NormFloat64()*1e-9
	noise := rng.Float64() * 20 * lsb
	type gauss struct{ at, width, height float64 }
	peaks := make([]gauss, rng.IntN(4))
	for k := range peaks {
		peaks[k] = gauss{start - float64(turn)*step*rng.Float64(), 0.02 + 0.05*rng.Float64(), rng.Float64() * 5e-9}
	}
	family, walk := rng.IntN(4), 0.0
	for i := 0; i < n; i++ {
		e := start - float64(i)*step
		if i >= turn {
			e = start - float64(2*turn-i)*step
		}
		var y float64
		switch family {
		case 0:
			y = offset + slope*e + noise*rng.NormFloat64()
			for _, g := range peaks {
				u := (e - g.at) / g.width
				y -= g.height * math.Exp(-u*u)
			}
			y = math.Round(y/lsb) * lsb
		case 1:
			y = float64(rng.IntN(4))
		case 2:
			walk += float64(rng.IntN(5)/2 - 1)
			y = walk
		default:
			y = []float64{math.Copysign(0, -1), 0, 1, -1, math.MaxFloat64, -math.MaxFloat64}[rng.IntN(6)]
		}
		vg.Append(e, y)
	}
	if n > 0 && rng.IntN(50) == 0 {
		vg.Y = vg.Y[:n-1]
	}
	return vg
}

// TestPeakScanMatchesReference: one reused PeakScratch fails exactly
// where the reference errors, picks the same peak near every expected
// potential and holds the reference's peaks bit for bit;
// FindReductionPeaks and PeakNear agree with it.
func TestPeakScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 7))
	// Bit for bit; any NaN matches any NaN, as in signalproc's oracle.
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
	same := func(a, b PeakQuant) bool {
		return bits(float64(a.Potential), float64(b.Potential)) && bits(float64(a.Height), float64(b.Height)) &&
			bits(a.Prominence, b.Prominence)
	}
	var s PeakScratch
	const traces = 100000
	for i := 0; i < traces; i++ {
		vg := randomVoltammogram(rng)
		minHeight := phys.Current([]float64{0, 0, 1e-12, 1e-9, 1}[rng.IntN(5)])
		want, werr := findReductionPeaksReference(vg, minHeight)
		if ok := s.Scan(vg, minHeight); ok != (werr == nil) {
			t.Fatalf("trace %d (n=%d): Scan reports %v, reference error %v", i, vg.Len(), ok, werr)
		}
		got, gerr := FindReductionPeaks(vg, minHeight)
		if (gerr == nil) != (werr == nil) || (werr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("trace %d (n=%d): FindReductionPeaks error %v, reference %v", i, vg.Len(), gerr, werr)
		}
		if werr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trace %d (n=%d): %d peaks, reference %d", i, vg.Len(), len(got), len(want))
		}
		for k := range want {
			if !same(got[k], want[k]) {
				t.Fatalf("trace %d (n=%d) peak %d: found %+v, reference %+v", i, vg.Len(), k, got[k], want[k])
			}
		}
		for _, window := range []phys.Voltage{phys.MilliVolts(5), phys.MilliVolts(40), phys.MilliVolts(80), 1} {
			expected := phys.Voltage(vg.X[rng.IntN(vg.Len())])
			best, bestDist := -1, float64(window)
			for k, p := range want {
				if d := math.Abs(float64(p.Potential - expected)); d <= bestDist {
					best, bestDist = k, d
				}
			}
			pk, ok := s.Near(expected, window)
			near, err := PeakNear(vg, expected, window, minHeight)
			if ok != (best >= 0) || (err == nil) != ok || (ok && (!same(pk, want[best]) || !same(near, want[best]))) {
				t.Fatalf("trace %d (n=%d) near %v within %v: Near %+v %v, PeakNear %+v %v, reference index %d",
					i, vg.Len(), expected, window, pk, ok, near, err, best)
			}
		}
		if len(s.quants) != len(want) {
			t.Fatalf("trace %d (n=%d): %d scanned peaks, reference %d", i, vg.Len(), len(s.quants), len(want))
		}
		for k := range want {
			if !same(s.quants[k], want[k]) {
				t.Fatalf("trace %d (n=%d) peak %d: scanned %+v, reference %+v", i, vg.Len(), k, s.quants[k], want[k])
			}
		}
	}
}

// fig4Voltammograms designs the paper's six-target Fig. 4 platform and
// runs its two voltammetric electrodes once on the demonstrator sample:
// CYP2B4 (benzphetamine and aminopyrine, a 651-sample forward branch
// with two clear peaks) and CYP11A1 (cholesterol near its detection
// limit, a noisy 501-sample branch with over a hundred maxima). It
// returns the final-cycle voltammograms a panel scans.
func fig4Voltammograms(tb testing.TB) []*trace.XY {
	tb.Helper()
	sample := map[string]float64{
		"glucose": 2.0, "lactate": 1.0, "glutamate": 1.0,
		"benzphetamine": 0.8, "aminopyrine": 4.0, "cholesterol": 0.05,
	}
	var req core.Requirements
	sol := cell.NewSolution()
	for _, name := range []string{"glucose", "lactate", "glutamate", "benzphetamine", "aminopyrine", "cholesterol"} {
		req.Targets = append(req.Targets, core.TargetSpec{Species: name})
		sol.Set(name, phys.MilliMolar(sample[name]))
	}
	best, err := core.BestWith(req, core.ExploreOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := core.Synthesize(best)
	if err != nil {
		tb.Fatal(err)
	}
	solutions := map[string]*cell.Solution{}
	for _, ch := range p.Candidate.Chambers {
		solutions[ch] = sol
	}
	c, err := p.Instantiate(solutions)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := measure.NewEngine(c, 9)
	if err != nil {
		tb.Fatal(err)
	}
	var out []*trace.XY
	for _, ep := range p.Candidate.Electrodes {
		if ep.Technique != enzyme.CyclicVoltammetry {
			continue
		}
		var peaks []phys.Voltage
		for _, a := range ep.Assays {
			peaks = append(peaks, a.Binding.PeakPotential)
		}
		start, vertex := measure.CVWindowFor(peaks...)
		chain, err := p.ChainFor(ep.Name, eng.RNG())
		if err != nil {
			tb.Fatal(err)
		}
		res, err := eng.RunCV(ep.Name, chain, measure.CyclicVoltammetry{Start: start, Vertex: vertex})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, res.Voltammogram)
	}
	if len(out) != 2 {
		tb.Fatalf("the Fig. 4 platform has %d voltammetric electrodes, want 2", len(out))
	}
	return out
}

// TestPeakScanAllocFree: a warm scan of either Fig. 4 voltammogram
// allocates nothing.
func TestPeakScanAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds allocate differently from the compiled binary this count pins")
	}
	vgs := fig4Voltammograms(t)
	var s PeakScratch
	for _, vg := range vgs {
		if !s.Scan(vg, 0) || len(s.quants) == 0 {
			t.Fatal("every Fig. 4 voltammogram must scan to at least one peak")
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, vg := range vgs {
			s.Scan(vg, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm PeakScratch scans allocate %.0f objects per panel, want 0", allocs)
	}
}

// BenchmarkPeakScan measures the reduction-peak scans of one Fig. 4
// panel — both voltammograms, on one warm scratch, as the panel kernel
// runs them.
func BenchmarkPeakScan(b *testing.B) {
	vgs := fig4Voltammograms(b)
	var s PeakScratch
	for _, vg := range vgs {
		s.Scan(vg, 0)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, vg := range vgs {
			s.Scan(vg, 0)
		}
	}
}
