package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: p50 needs at least 20 samples, p90 at least
// 100.
const minBeyond = 10

// minSamples returns the smallest sample count at which quantile q has
// minBeyond samples beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9)) // 1e-9 absorbs 1-0.9 != 0.1
}

// percentile returns the nearest-rank q-quantile of sorted, or an error
// when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it, want >= %d",
			q*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median of unsorted values (the mean of the middle two for even counts).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so the steadiness report matches the acceptance
// arithmetic. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
