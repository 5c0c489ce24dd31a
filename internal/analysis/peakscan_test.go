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

// peaksReference is the multi-pass detector Locate replaced, kept as
// the bit-identity oracle: the forward branch copied out, a negated
// copy, then signalproc.Detrend and signalproc.MovingAverage each into
// a fresh slice and signalproc.MaximaInto (pinned to the walking
// detector by signalproc's own oracle). It returns every refined
// maximum of the branch, in index order.
func peaksReference(vg *trace.XY) ([]PeakQuant, error) {
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
	for _, p := range signalproc.MaximaInto(nil, pot, smooth) {
		out = append(out, PeakQuant{Potential: phys.Voltage(p.X), Height: phys.Current(p.Y)})
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

// rulePick is the nearest-peak rule by brute force over a list of
// peaks: of the peaks with a height of at least 0 (or NaN) within the
// window, the one at the minimal distance from the expected potential;
// of two at that distance, the taller, and when neither is taller
// (equal or NaN heights), the one at the more negative potential. It
// returns the winner's index (−1 when none lies inside) and whether
// another peak tied with it on distance.
func rulePick(peaks []PeakQuant, expected, window phys.Voltage) (best int, tied bool) {
	best, bestDist := -1, math.Inf(1)
	for k, p := range peaks {
		if d := math.Abs(float64(p.Potential - expected)); !(p.Height < 0) && d <= float64(window) && d < bestDist {
			best, bestDist = k, d
		}
	}
	for k, p := range peaks {
		if best < 0 || k == best || p.Height < 0 || math.Abs(float64(p.Potential-expected)) != bestDist {
			continue
		}
		tied = true
		if q := peaks[best]; p.Height > q.Height || !(p.Height < q.Height) && p.Potential < q.Potential {
			best = k
		}
	}
	return best, tied
}

// samePeak compares peaks bit for bit; any NaN matches any NaN, as in
// signalproc's oracle.
func samePeak(a, b PeakQuant) bool {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
	return bits(float64(a.Potential), float64(b.Potential)) && bits(float64(a.Height), float64(b.Height))
}

// checkLookup holds a located scratch and PeakNear to the rule's pick
// among the reference's peaks.
func checkLookup(t *testing.T, l *PeakScratch, vg *trace.XY, want []PeakQuant, expected, window phys.Voltage) {
	t.Helper()
	best, _ := rulePick(want, expected, window)
	pk, ok := l.Lookup(expected, window)
	near, err := PeakNear(vg, expected, window)
	if ok != (best >= 0) || (err == nil) != ok || (ok && (!samePeak(pk, want[best]) || !samePeak(near, want[best]))) {
		t.Fatalf("n=%d near %v within %v: Lookup %+v %v, PeakNear %+v %v, reference index %d of %+v",
			vg.Len(), expected, window, pk, ok, near, err, best, want)
	}
}

// TestPeakScanMatchesReference: one reused PeakScratch fails to Locate
// exactly where the reference errors, PeakNear with the reference's
// error, and a located branch holds the reference's maxima bit for
// bit. Lookup and PeakNear then pick the rule's peak among them near
// every expected potential, in four windows, the dyadic grids
// supplying the distance ties that test the tie rule.
func TestPeakScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 7))
	var l PeakScratch
	traces, ties := 100000, 0
	if testing.Short() {
		traces = 20000
	}
	for i := 0; i < traces; i++ {
		vg := randomVoltammogram(rng)
		want, werr := peaksReference(vg)
		if err := l.Locate(vg); (err == nil) != (werr == nil) {
			t.Fatalf("trace %d (n=%d): Locate error %v, reference error %v", i, vg.Len(), err, werr)
		}
		if werr != nil {
			if _, err := PeakNear(vg, 0, 1); err == nil || err.Error() != werr.Error() {
				t.Fatalf("trace %d (n=%d): PeakNear error %v, reference %v", i, vg.Len(), err, werr)
			}
			if _, ok := l.Lookup(phys.Voltage(0), 1); ok {
				t.Fatalf("trace %d (n=%d): Lookup found a peak after a failed Locate", i, vg.Len())
			}
			continue
		}
		if len(l.maxima) != len(want) {
			t.Fatalf("trace %d (n=%d): %d maxima, reference %d", i, vg.Len(), len(l.maxima), len(want))
		}
		for k, m := range l.maxima {
			if got := (PeakQuant{Potential: phys.Voltage(m.X), Height: phys.Current(m.Y)}); !samePeak(got, want[k]) {
				t.Fatalf("trace %d (n=%d) maximum %d: located %+v, reference %+v", i, vg.Len(), k, got, want[k])
			}
		}
		for _, window := range []phys.Voltage{phys.MilliVolts(5), phys.MilliVolts(40), phys.MilliVolts(80), 1} {
			expected := phys.Voltage(vg.X[rng.IntN(vg.Len())])
			if _, tied := rulePick(want, expected, window); tied {
				ties++
			}
			checkLookup(t, &l, vg, want, expected, window)
		}
	}
	t.Logf("%d lookups in %d traces tied on distance", ties, traces)
	if ties == 0 {
		t.Fatal("no lookup tied on distance; the tie rule went unchecked")
	}
}

// tiedVoltammogram is a falling branch on a dyadic grid (x_i = 1/2 −
// i/256 V, then one rising sample) with two reduction dips of integer
// shape, centred on samples 20 and 40: each smooths to a symmetric
// maximum that refines exactly onto its sample's potential, so the
// two peaks lie exactly 10 samples either side of sample 30. The dip
// at 20 is scaled by left, the one at 40 by right.
func tiedVoltammogram(left, right float64) *trace.XY {
	vg := trace.NewXY("V", "A")
	dip := []float64{1, 2, 4, 2, 1}
	for i := 0; i < 64; i++ {
		y := 0.0
		if d := i - 18; d >= 0 && d < len(dip) {
			y = -left * dip[d]
		}
		if d := i - 38; d >= 0 && d < len(dip) {
			y = -right * dip[d]
		}
		vg.Append(0.5-float64(i)/256, y*0x1p-30)
	}
	vg.Append(0.5-62.0/256, 0)
	return vg
}

// TestPeakLookupTieRule: of two peaks at exactly the same distance
// from the expected potential, the taller wins whichever side it is
// on, and of two equally tall ones the one at the more negative
// potential (sample 40).
func TestPeakLookupTieRule(t *testing.T) {
	for _, c := range []struct {
		left, right float64
		winner      int // sample index of the peak that must win
	}{
		{1, 3, 40},
		{3, 1, 20},
		{2, 2, 40},
	} {
		vg := tiedVoltammogram(c.left, c.right)
		expected, window := phys.Voltage(vg.X[30]), phys.MilliVolts(80)
		want, err := peaksReference(vg)
		if err != nil || len(want) != 2 {
			t.Fatalf("dips %v/%v: reference %+v, %v; want two peaks", c.left, c.right, want, err)
		}
		if _, tied := rulePick(want, expected, window); !tied {
			t.Fatalf("dips %v/%v: peaks %+v do not tie on distance from %v", c.left, c.right, want, expected)
		}
		var l PeakScratch
		if err := l.Locate(vg); err != nil {
			t.Fatal(err)
		}
		checkLookup(t, &l, vg, want, expected, window)
		if pk, _ := l.Lookup(expected, window); pk.Potential != phys.Voltage(vg.X[c.winner]) {
			t.Fatalf("dips %v/%v: picked %v, want the peak at sample %d (%v)", c.left, c.right, pk.Potential, c.winner, vg.X[c.winner])
		}
		// Off the midpoint nothing ties and the nearer peak wins.
		checkLookup(t, &l, vg, want, phys.Voltage(vg.X[29]), window)
	}
}

// FuzzPeakLookup holds Locate + Lookup and PeakNear to the rule's pick
// among the reference's peaks on fuzzed branches: currents from a
// small alphabet (integers dense in ties, ±0, ±MaxFloat64, ±Inf and
// NaN) on a falling grid, dyadic or not, that turns at a fuzzed
// sample.
func FuzzPeakLookup(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 0, 0, 1, 3, 1, 0, 2, 2}, uint16(9), true, uint16(5), uint8(2))
	f.Add([]byte("a voltammogram of fuzzed bytes, twenty-nine"), uint16(30), false, uint16(7), uint8(3))
	f.Add([]byte{7, 7, 7, 250, 251, 7, 7, 252, 7, 7, 7, 253, 254, 255, 7}, uint16(15), true, uint16(3), uint8(1))
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, uint16(12), true, uint16(6), uint8(0))
	special := []float64{math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	f.Fuzz(func(t *testing.T, ys []byte, turn uint16, dyadic bool, at uint16, windowSel uint8) {
		if len(ys) > 700 {
			t.Skip()
		}
		start, step := 0.3, 1.7e-3
		if dyadic {
			start, step = 0.5, 1.0/256
		}
		vg := trace.NewXY("V", "A")
		for i, b := range ys {
			e := start - float64(i)*step
			if i >= int(turn) {
				e = start - float64(2*int(turn)-i)*step
			}
			y := float64(int(b)%8) * 1e-9
			if int(b) >= 256-len(special) {
				y = special[int(b)-(256-len(special))]
			}
			vg.Append(e, y)
		}
		window := []phys.Voltage{phys.MilliVolts(5), phys.MilliVolts(40), phys.MilliVolts(80), 1}[int(windowSel)%4]
		want, werr := peaksReference(vg)
		var l PeakScratch
		if err := l.Locate(vg); (err == nil) != (werr == nil) {
			t.Fatalf("Locate error %v, reference error %v", err, werr)
		}
		if werr != nil {
			return
		}
		for _, k := range []int{int(at), int(at) + 1, int(at) / 2} {
			checkLookup(t, &l, vg, want, phys.Voltage(vg.X[k%vg.Len()]), window)
		}
	})
}

// fig4Voltammogram is one voltammetric electrode of the Fig. 4
// demonstrator, read once: its final-cycle voltammogram, the peak
// potentials of its assays, and the fit plan of its calibration.
type fig4Voltammogram struct {
	vg       *trace.XY
	expected []phys.Voltage
	plan     *FitPlan
}

// fig4Voltammograms designs the paper's six-target Fig. 4 platform and
// runs its two voltammetric electrodes once on the demonstrator sample:
// CYP2B4 (benzphetamine and aminopyrine, a 651-sample forward branch
// with two clear peaks) and CYP11A1 (cholesterol near its detection
// limit, a noisy 501-sample branch with over a hundred maxima). Each
// comes with the fit plan a calibration builds from its flux basis:
// the templates on the run's grid plus one film-background column per
// binding.
func fig4Voltammograms(tb testing.TB) []fig4Voltammogram {
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
	var out []fig4Voltammogram
	var bases []*measure.CVBasis
	var cyps []*enzyme.CYP
	for _, ep := range p.Candidate.Electrodes {
		if ep.Technique != enzyme.CyclicVoltammetry {
			continue
		}
		var peaks []phys.Voltage
		for _, a := range ep.Assays {
			peaks = append(peaks, a.Binding.PeakPotential)
		}
		start, vertex := measure.CVWindowFor(peaks...)
		proto := measure.CyclicVoltammetry{Start: start, Vertex: vertex}
		chain, err := p.ChainFor(ep.Name, eng.RNG())
		if err != nil {
			tb.Fatal(err)
		}
		basis, err := eng.CVFluxBasis(ep.Name, proto, chain)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := eng.RunCVWithBasis(ep.Name, chain, proto, basis)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, fig4Voltammogram{vg: res.Voltammogram, expected: peaks})
		bases, cyps = append(bases, basis), append(cyps, ep.Assays[0].CYP)
	}
	if len(out) != 2 {
		tb.Fatalf("the Fig. 4 platform has %d voltammetric electrodes, want 2", len(out))
	}
	for i := range out {
		grid, templates, err := eng.CVTemplatesFromBasis(bases[i])
		if err != nil {
			tb.Fatal(err)
		}
		var nuisances [][]float64
		for _, b := range cyps[i].Bindings {
			nuisances = append(nuisances, GaussianColumn(grid.X, float64(b.PeakPotential), measure.FilmBumpWidth))
		}
		if out[i].plan, err = NewFitPlan(grid.X, templates, nuisances...); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestPeakScanAllocFree: a warm Locate of either Fig. 4 voltammogram,
// with a Lookup of every assay, allocates nothing.
func TestPeakScanAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds allocate differently from the compiled binary this count pins")
	}
	vgs := fig4Voltammograms(t)
	var s PeakScratch
	for _, v := range vgs {
		if s.Locate(v.vg) != nil || len(s.maxima) == 0 {
			t.Fatal("every Fig. 4 voltammogram must locate at least one peak")
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, v := range vgs {
			s.Locate(v.vg) //nolint:errcheck // best-effort, as in a panel
			for _, e := range v.expected {
				s.Lookup(e, phys.MilliVolts(80))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm PeakScratch lookups allocate %.0f objects per panel, want 0", allocs)
	}
}

// BenchmarkPeakLookup measures one Fig. 4 panel's peak readout as the
// panel kernel runs it: Locate on both voltammograms and a Lookup of
// every assay's peak within 80 mV, on one warm scratch.
func BenchmarkPeakLookup(b *testing.B) {
	vgs := fig4Voltammograms(b)
	var s PeakScratch
	for _, v := range vgs {
		s.Locate(v.vg) //nolint:errcheck // best-effort, as in a panel
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, v := range vgs {
			s.Locate(v.vg) //nolint:errcheck // best-effort, as in a panel
			for _, e := range v.expected {
				s.Lookup(e, phys.MilliVolts(80))
			}
		}
	}
}

// BenchmarkFitPlanFit measures one Fig. 4 panel's template fits: both
// voltammograms against their calibration plans, on one warm scratch.
func BenchmarkFitPlanFit(b *testing.B) {
	vgs := fig4Voltammograms(b)
	var s FitScratch
	for _, v := range vgs {
		if _, err := v.plan.Fit(v.vg, &s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, v := range vgs {
			if _, err := v.plan.Fit(v.vg, &s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
