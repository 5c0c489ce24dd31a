package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %g too far from 0.5", mean)
	}
}

// TestNormMoments is the statistical oracle for the normal sampler: at
// several seeds, 10⁷ draws must match N(0, 1) in mean, variance,
// kurtosis, sign balance and the two-sided masses P(|x| > t) from the
// body out to past the ziggurat's tail edge (3.44). Each mass is
// checked to within 5 binomial standard deviations, so the family of
// checks fails by chance with probability below 1e-4.
func TestNormMoments(t *testing.T) {
	const n = 10_000_000
	thresholds := []float64{0.5, 1, 2, 3, 4}
	for _, seed := range []uint64{13, 14, 15} {
		r := NewRNG(seed)
		var sum, sumSq, sum4 float64
		pos := 0
		over := make([]int, len(thresholds))
		for i := 0; i < n; i++ {
			v := r.Norm()
			sum += v
			sumSq += v * v
			sum4 += v * v * v * v
			if v > 0 {
				pos++
			}
			a := math.Abs(v)
			for k, th := range thresholds {
				if a > th {
					over[k]++
				}
			}
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		// Standard errors: mean 1/√n, variance √(2/n), E[x⁴] √(96/n).
		if math.Abs(mean) > 5/math.Sqrt(n) {
			t.Errorf("seed %d: normal mean %g too far from 0", seed, mean)
		}
		if math.Abs(variance-1) > 5*math.Sqrt(2.0/n) {
			t.Errorf("seed %d: normal variance %g too far from 1", seed, variance)
		}
		if k4 := sum4 / n; math.Abs(k4-3) > 5*math.Sqrt(96.0/n) {
			t.Errorf("seed %d: normal fourth moment %g too far from 3", seed, k4)
		}
		if p := float64(pos) / n; math.Abs(p-0.5) > 5*math.Sqrt(0.25/n) {
			t.Errorf("seed %d: P(x > 0) = %g, want 0.5", seed, p)
		}
		for k, th := range thresholds {
			want := math.Erfc(th / math.Sqrt2)
			got := float64(over[k]) / n
			if tol := 5 * math.Sqrt(want*(1-want)/n); math.Abs(got-want) > tol {
				t.Errorf("seed %d: P(|x| > %g) = %.4g, want %.4g ± %.2g", seed, th, got, want, tol)
			}
		}
	}
}

func TestNormScaled(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormScaled(3.0)
		sumSq += v * v
	}
	sd := math.Sqrt(sumSq / n)
	if math.Abs(sd-3) > 0.1 {
		t.Fatalf("scaled std %g, want ≈3", sd)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(23)
	child := r.Split()
	// The child stream must not simply replay the parent.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream mirrors parent (%d collisions)", same)
	}
}

func TestNormScaledZeroSigmaProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		return r.NormScaled(0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refNorm is Norm as it stood before the slow path was split out for
// NormFill: the oracle both are checked against.
func refNorm(r *RNG) float64 {
	for {
		u := r.Uint64()
		i := u & (zigLayers - 1)
		j := u >> 11
		x := float64(int64(j)) * zigW[i]
		if j < zigK[i] {
			return zigSign(u, x)
		}
		if i == 0 {
			for {
				x = -math.Log(1-r.Float64()) / zigR
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					return zigSign(u, zigR+x)
				}
			}
		}
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return zigSign(u, x)
		}
	}
}

// sameBits reports whether a and b have the same bits, letting any NaN
// match any NaN (Go pins no NaN payload).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestNormFillMatchesNorm checks NormFill, in blocks of random length
// (0 included), and Norm against refNorm: every value bit for bit and
// the generator state after each seed's stream. It also checks that the
// streams reached both slow paths, the wedge test and the tail sampler.
func TestNormFillMatchesNorm(t *testing.T) {
	const seeds, perSeed = 32, 4000
	sizes := NewRNG(99)
	wedge, tail := 0, 0
	buf := make([]float64, 300)
	for seed := uint64(1); seed <= seeds; seed++ {
		ref, one, fill := NewRNG(seed), NewRNG(seed), NewRNG(seed)
		for drawn := 0; drawn < perSeed; {
			m := min(int(sizes.Uint64()%300), perSeed-drawn)
			fill.NormFill(buf[:m])
			for k := 0; k < m; k++ {
				u := Mix64(ref.state + SplitmixGamma)
				if i := u & (zigLayers - 1); u>>11 >= zigK[i] {
					if i == 0 {
						tail++
					} else {
						wedge++
					}
				}
				want := refNorm(ref)
				if got := one.Norm(); !sameBits(got, want) {
					t.Fatalf("seed %d draw %d: Norm = %v, reference %v", seed, drawn+k, got, want)
				}
				if !sameBits(buf[k], want) {
					t.Fatalf("seed %d draw %d: NormFill = %v, reference %v", seed, drawn+k, buf[k], want)
				}
			}
			drawn += m
		}
		if one.state != ref.state || fill.state != ref.state {
			t.Fatalf("seed %d: final state Norm %#x, NormFill %#x, reference %#x", seed, one.state, fill.state, ref.state)
		}
	}
	if wedge == 0 || tail == 0 {
		t.Fatalf("slow paths not exercised: %d wedge and %d tail draws", wedge, tail)
	}
	t.Logf("%d draws, %d wedge, %d tail", seeds*perSeed, wedge, tail)
}

// BenchmarkNormFill draws one Fig. 4 chronoamperometric run's worth of
// normal variates (601) per op.
func BenchmarkNormFill(b *testing.B) {
	r := NewRNG(1)
	dst := make([]float64, 601)
	for b.Loop() {
		r.NormFill(dst)
	}
}
