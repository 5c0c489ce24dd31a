package analysis

import "math"

// GaussianColumn evaluates exp(−((x−center)/width)²) over xs — the
// nuisance-background shape used to absorb the enzyme film's variable
// pseudo-capacitive background near a binding's formal potential.
func GaussianColumn(xs []float64, center, width float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		u := (x - center) / width
		out[i] = math.Exp(-u * u)
	}
	return out
}
