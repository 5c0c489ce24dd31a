package signalproc

import (
	"math"
	"math/rand/v2"
	"testing"
)

// findPeaksReference is the prominence-thresholded detector that
// MaximaInto replaced, kept as the bit-identity oracle: a walk outward
// from every maximum for its prominence, and an O(k²) plateau-twin
// merge against every kept peak. Its peaks come in index order; the
// detector sorted them by descending prominence.
func findPeaksReference(xs, ys []float64, minProminence float64) []Peak {
	if len(xs) != len(ys) || len(ys) < 3 {
		return nil
	}
	var dst []Peak
	for i := 1; i < len(ys)-1; i++ {
		if !(ys[i] > ys[i-1] && ys[i] >= ys[i+1]) {
			continue
		}
		if prominenceReference(ys, i) < minProminence {
			continue
		}
		x, y := refine(xs, ys, i)
		dst = append(dst, Peak{Index: i, X: x, Y: y})
	}
	return dedupeReference(xs, dst)
}

func prominenceReference(ys []float64, i int) float64 {
	leftMin := ys[i]
	for j := i - 1; j >= 0; j-- {
		if ys[j] > ys[i] {
			break
		}
		if ys[j] < leftMin {
			leftMin = ys[j]
		}
	}
	rightMin := ys[i]
	for j := i + 1; j < len(ys); j++ {
		if ys[j] > ys[i] {
			break
		}
		if ys[j] < rightMin {
			rightMin = ys[j]
		}
	}
	base := leftMin
	if rightMin > base {
		base = rightMin
	}
	return ys[i] - base
}

func dedupeReference(xs []float64, peaks []Peak) []Peak {
	if len(peaks) < 2 {
		return peaks
	}
	dx := 0.0
	if len(xs) > 1 {
		dx = xs[1] - xs[0]
		if dx < 0 {
			dx = -dx
		}
	}
	kept := 0
	for _, p := range peaks {
		dup := false
		for _, q := range peaks[:kept] {
			d := p.X - q.X
			if d < 0 {
				d = -d
			}
			if d <= dx {
				dup = true
				break
			}
		}
		if !dup {
			peaks[kept] = p
			kept++
		}
	}
	return peaks[:kept]
}

func movingAverageReference(xs []float64, width int) []float64 {
	dst := make([]float64, len(xs))
	if width <= 1 {
		copy(dst, xs)
		return dst
	}
	half := width / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > len(xs)-1 {
			hi = len(xs) - 1
		}
		s := 0.0
		for j := lo; j <= hi; j++ {
			s += xs[j]
		}
		dst[i] = s / float64(hi-lo+1)
	}
	return dst
}

// randomPeakTrace draws one curve of 0–700 samples from four families:
// Fig. 4-shaped voltammogram branches (ADC-quantized reduction peaks on
// a sloped background, inverted, detrended and smoothed as the scan
// does), small-integer traces dense in ties, notched plateau random
// walks, and traces of ±0, ±1, ±Inf and NaN, where infinities make NaN
// positions. The abscissa is an evenly spaced sweep, falling or rising.
func randomPeakTrace(rng *rand.Rand) (xs, ys []float64) {
	n := rng.IntN(701)
	xs = make([]float64, n)
	ys = make([]float64, n)
	start, step := rng.Float64()-0.5, 1e-3*(0.5+2*rng.Float64())
	if rng.IntN(4) != 0 {
		step = -step
	}
	for i := range xs {
		xs[i] = start + float64(i)*step
	}
	switch rng.IntN(4) {
	case 0:
		lsb := math.Pow(10, -12+rng.Float64())
		slope, offset := rng.NormFloat64()*1e-9, rng.NormFloat64()*1e-9
		noise := rng.Float64() * 20 * lsb
		type gauss struct{ at, width, height float64 }
		peaks := make([]gauss, rng.IntN(4))
		for k := range peaks {
			peaks[k] = gauss{start + float64(n)*step*rng.Float64(), 0.02 + 0.05*rng.Float64(), rng.Float64() * 5e-9}
		}
		for i, x := range xs {
			y := offset + slope*x + noise*rng.NormFloat64()
			for _, g := range peaks {
				u := (x - g.at) / g.width
				y -= g.height * math.Exp(-u*u)
			}
			ys[i] = -math.Round(y/lsb) * lsb
		}
		ys = movingAverageReference(Detrend(ys), 5)
	case 1:
		for i := range ys {
			ys[i] = float64(rng.IntN(4))
		}
	case 2:
		y := 0.0
		for i := range ys {
			if r := rng.IntN(5); r == 0 {
				y--
			} else if r == 1 {
				y++
			}
			ys[i] = y
		}
		// A one-ulp notch in a plateau entered from below makes plateau
		// twins: two maxima whose refined positions are one sample
		// spacing apart, within rounding, so the merge decides.
		for i := 1; i < n-1; i++ {
			if ys[i-1] == ys[i] && ys[i] == ys[i+1] && rng.IntN(3) == 0 {
				ys[i] = math.Nextafter(ys[i], math.Inf(-1))
			}
		}
	default:
		vals := []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
		for i := range ys {
			ys[i] = vals[rng.IntN(len(vals))]
		}
	}
	return xs, ys
}

// TestMaximaMatchesReference: MaximaInto, into one reused buffer,
// returns the reference detector's peaks at a prominence threshold of
// 0 (which every maximum passes, a prominence never being negative)
// bit for bit and in index order, and MovingAverageInto is the
// reference smoother bit for bit, over random curves of every family.
func TestMaximaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 4))
	// Bit for bit, except that any NaN matches any NaN: which operand's
	// payload and sign an x86 add propagates depends on code generation
	// (race builds differ), and Go pins neither.
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
	var maxima []Peak
	var smooth []float64
	const traces = 100000
	for i := 0; i < traces; i++ {
		xs, ys := randomPeakTrace(rng)
		maxima = MaximaInto(maxima, xs, ys)
		want := findPeaksReference(xs, ys, 0)
		if len(maxima) != len(want) {
			t.Fatalf("trace %d (n=%d): %d maxima, reference %d\ngot  %v\nwant %v", i, len(ys), len(maxima), len(want), maxima, want)
		}
		for k, g := range maxima {
			if w := want[k]; g.Index != w.Index || !same(g.X, w.X) || !same(g.Y, w.Y) {
				t.Fatalf("trace %d (n=%d) maximum %d: got %+v, reference %+v", i, len(ys), k, g, w)
			}
		}
		width := []int{1, 2, 3, 5, 5, 7}[rng.IntN(6)]
		smooth = MovingAverageInto(smooth, ys, width)
		for k, w := range movingAverageReference(ys, width) {
			if !same(smooth[k], w) {
				t.Fatalf("trace %d (n=%d width=%d) sample %d: smoothed %g, reference %g", i, len(ys), width, k, smooth[k], w)
			}
		}
	}
}

// TestFindPeaksNonMonotoneSweep pins MaximaInto on a whole cycle, whose
// potentials rise and fall back: two maxima at the same potential on
// opposite sweeps, with another peak between them, are both kept,
// because a plateau twin is merged only into the previous peak kept.
// The replaced detector merged against every kept peak and dropped the
// second one.
func TestFindPeaksNonMonotoneSweep(t *testing.T) {
	xs := make([]float64, 21)
	ys := make([]float64, 21)
	for i := range xs {
		xs[i] = float64(min(i, 20-i))
	}
	ys[3], ys[7], ys[17] = 1, 1.5, 2 // x = 3, 7 and 3
	got := MaximaInto(nil, xs, ys)
	want := []int{3, 7, 17}
	if len(got) != len(want) {
		t.Fatalf("MaximaInto = %+v, want the maxima at indices %v", got, want)
	}
	for k, i := range want {
		if got[k].Index != i || got[k].X != xs[i] {
			t.Fatalf("MaximaInto = %+v, want the maxima at indices %v", got, want)
		}
	}
	if ref := findPeaksReference(xs, ys, 0); len(ref) != 2 {
		t.Fatalf("reference = %+v, want two peaks after its merge against every kept peak", ref)
	}
}
