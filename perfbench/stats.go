package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted xs by the
// nearest-rank rule, so every reported percentile is an observed value.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// median returns the median of xs (mean of the middle pair for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durUs converts simulated durations to sorted microsecond values.
func durUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reached reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
