// Package mathx provides the small numerical toolkit the simulator is
// built on: a deterministic random source, descriptive statistics, linear
// regression, interpolation, and root finding. Everything is stdlib-only
// and allocation-conscious so it can sit inside inner simulation loops.
package mathx

import "math"

// RNG is a deterministic pseudo-random generator (splitmix64 core with a
// xorshift finalizer). Every stochastic element of the simulator takes an
// explicit *RNG so experiments are reproducible bit-for-bit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// SplitmixGamma is the splitmix64 stream increment (the golden-ratio
// constant).
const SplitmixGamma = 0x9E3779B97F4A7C15

// Reset rewinds the generator to the exact state NewRNG(seed) would
// produce. Batched runners use it to reuse one allocation across many
// deterministic streams.
func (r *RNG) Reset(seed uint64) {
	r.state = seed
}

// Mix64 is the splitmix64 avalanche finalizer: a bijective mix whose
// output bits all depend on all input bits. It is the shared scrambler
// behind the RNG stream, per-sample seed derivation, and hash-ring
// point spreading (raw FNV of short similar strings leaves high bits
// correlated).
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64-bit value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += SplitmixGamma
	return Mix64(r.state)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal variate, drawn with the 128-layer
// ziggurat of Marsaglia and Tsang (J. Stat. Softw. 5(8), 2000). One
// Uint64 supplies the layer (bits 0–6), the sign (bit 7) and a 53-bit
// abscissa (bits 11–63); about 97% of draws end there. The rest fall
// in a layer's wedge, accepted against the density, or past the base
// strip's edge r, sampled exactly from the tail (normSlow).
//
//advdiag:hotpath
func (r *RNG) Norm() float64 {
	u := r.Uint64()
	i := u & (zigLayers - 1)
	j := u >> 11
	x := float64(int64(j)) * zigW[i]
	if j < zigK[i] {
		return zigSign(u, x)
	}
	return r.normSlow(u, i, x)
}

// NormFill fills dst with standard normal variates: exactly the values,
// and the generator state, of len(dst) successive Norm calls. The
// ziggurat's fast path runs with the stream state in a local; wedge and
// tail draws take the shared slow path, so the draw sequence is Norm's.
//
//advdiag:hotpath
func (r *RNG) NormFill(dst []float64) {
	s := r.state
	for k := range dst {
		s += SplitmixGamma
		u := Mix64(s)
		i := u & (zigLayers - 1)
		j := u >> 11
		x := float64(int64(j)) * zigW[i]
		if j < zigK[i] {
			dst[k] = zigSign(u, x)
			continue
		}
		r.state = s
		dst[k] = r.normSlow(u, i, x)
		s = r.state
	}
	r.state = s
}

// normSlow finishes a Norm draw whose first Uint64 u (layer i, scaled
// abscissa x) missed the fast path: a base-strip draw samples the tail,
// a wedge draw is tested against the density, and a rejected draw
// starts over with a fresh Uint64.
func (r *RNG) normSlow(u, i uint64, x float64) float64 {
	for {
		if i == 0 {
			// Base strip past r: Marsaglia's exponential-rejection
			// tail sampler. 1−Float64 lies in (0, 1], so Log is finite.
			for {
				x = -math.Log(1-r.Float64()) / zigR
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					return zigSign(u, zigR+x)
				}
			}
		}
		// Wedge: accept when a uniform height under layer i falls
		// below the density.
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return zigSign(u, x)
		}
		u = r.Uint64()
		i = u & (zigLayers - 1)
		j := u >> 11
		x = float64(int64(j)) * zigW[i]
		if j < zigK[i] {
			return zigSign(u, x)
		}
	}
}

// zigSign applies the sign carried by bit 7 of the draw u, moving it to
// the float's sign bit: a coin-flip branch would mispredict half the
// time and cost more than the rest of the fast path.
func zigSign(u uint64, x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ (u&0x80)<<56)
}

// Ziggurat tables. Layer i ≥ 1 is the rectangle [0, x_i] × [f(x_i),
// f(x_{i−1})] of the unnormalized density f(x) = exp(−x²/2), with
// x_0 = 0 < x_1 < … < x_127 = r and every layer — and the base strip
// (layer 0: f(r) high, width v/f(r), plus the tail past r) — of area v.
// zigW[i] scales a 53-bit integer to [0, x_i); zigK[i] is the integer
// bound below which the point lies under layer i−1's edge and is
// accepted outright; zigF[i] = f(x_i).
const (
	zigLayers = 128
	zigR      = 3.442619855899      // x_127, the tail edge
	zigV      = 9.91256303526217e-3 // area of each layer
	zigScale  = 1 << 53             // the abscissa's integer range
)

var zigK [zigLayers]uint64
var zigW, zigF [zigLayers]float64

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	q := zigV / f(zigR) // the base strip's pseudo-width
	zigK[0] = uint64(zigR / q * zigScale)
	zigW[0] = q / zigScale
	zigF[0] = 1
	x := zigR
	zigW[zigLayers-1] = x / zigScale
	zigF[zigLayers-1] = f(x)
	for i := zigLayers - 2; i >= 1; i-- {
		next := math.Sqrt(-2 * math.Log(zigV/x+f(x)))
		zigK[i+1] = uint64(next / x * zigScale)
		x = next
		zigW[i] = x / zigScale
		zigF[i] = f(x)
	}
	// zigK[1] stays 0: the top layer always takes the wedge test.
}

// NormScaled returns a normal variate with the given standard deviation.
func (r *RNG) NormScaled(sigma float64) float64 {
	return sigma * r.Norm()
}

// Split returns a new generator whose stream is independent of r's
// continued use; it is seeded from r's stream. Useful for giving each
// noise source in the analog chain its own stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
