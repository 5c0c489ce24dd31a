package mathx

import (
	"errors"
	"math"
)

// LinearFit holds the result of an ordinary least-squares fit
// y ≈ Slope·x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
	// Residuals holds y_i - (Slope·x_i + Intercept) for each input point.
	Residuals []float64
	// MaxAbsResidual is the largest |residual|.
	MaxAbsResidual float64
}

// ErrBadFit is returned when a regression is requested on degenerate data
// (fewer than two points, or zero x-variance).
var ErrBadFit = errors.New("mathx: degenerate regression input")

// FitLinear performs ordinary least squares of y on x.
func FitLinear(x, y []float64) (LinearFit, error) {
	slope, mx, my, syy, err := ols(x, y)
	if err != nil {
		return LinearFit{}, err
	}
	intercept := my - slope*mx
	fit := LinearFit{Slope: slope, Intercept: intercept}
	fit.Residuals = make([]float64, len(x))
	ssRes := 0.0
	for i := range x {
		r := y[i] - (slope*x[i] + intercept)
		fit.Residuals[i] = r
		ssRes += r * r
		if a := math.Abs(r); a > fit.MaxAbsResidual {
			fit.MaxAbsResidual = a
		}
	}
	if syy > 0 {
		fit.R2 = 1 - ssRes/syy
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// LinearSlope returns FitLinear's slope without building residuals,
// so allocation-free callers that need only the trend (a tail-drift
// check) share FitLinear's exact bits.
func LinearSlope(x, y []float64) (float64, error) {
	slope, _, _, _, err := ols(x, y)
	return slope, err
}

// ols is the shared least-squares core: the means, the slope, and the
// centred y sum of squares R² needs.
func ols(x, y []float64) (slope, mx, my, syy float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0, 0, ErrBadFit
	}
	mx, my = Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, 0, ErrBadFit
	}
	return sxy / sxx, mx, my, syy, nil
}

// Eval returns Slope·x + Intercept.
func (f LinearFit) Eval(x float64) float64 { return f.Slope*x + f.Intercept }
