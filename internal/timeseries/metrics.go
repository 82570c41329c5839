package timeseries

import "math"

// Log1pClamped returns log(1+max(v,0)); the transform applied to arrival
// rates before model training.
func Log1pClamped(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log1p(v)
}

// Expm1Clamped inverts Log1pClamped, clamping the result at zero so model
// outputs always decode to valid (non-negative) arrival rates.
func Expm1Clamped(v float64) float64 {
	r := math.Expm1(v)
	if r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
}
