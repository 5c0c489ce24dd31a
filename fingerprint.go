package advdiag

import "math"

// fingerprinter is the 64-bit FNV-1a stream every result fingerprint
// is written to: uint64 words little-endian, float64 values as their
// exact bit patterns, strings and series length-prefixed. The byte
// stream is the contract — hash/fnv's New64a fed the same bytes gives
// the same sum.
type fingerprinter uint64

const (
	fnvOffset64 fingerprinter = 14695981039346656037
	fnvPrime64  fingerprinter = 1099511628211
)

func newFingerprinter() fingerprinter { return fnvOffset64 }

func (h *fingerprinter) word(u uint64) {
	x := *h
	for i := 0; i < 64; i += 8 {
		x = (x ^ fingerprinter(byte(u>>i))) * fnvPrime64
	}
	*h = x
}

func (h *fingerprinter) float(v float64) { h.word(math.Float64bits(v)) }

func (h *fingerprinter) flag(b bool) {
	if b {
		h.word(1)
	} else {
		h.word(0)
	}
}

func (h *fingerprinter) str(s string) {
	h.word(uint64(len(s)))
	x := *h
	for i := 0; i < len(s); i++ {
		x = (x ^ fingerprinter(s[i])) * fnvPrime64
	}
	*h = x
}

func (h *fingerprinter) series(vs []float64) {
	h.word(uint64(len(vs)))
	for _, v := range vs {
		h.float(v)
	}
}
