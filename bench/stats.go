package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest value with at least p % of the sample at
// or below it. It is always a value that was measured. xs need not be
// sorted; an empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value, or the mean of the two middle values.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of the median, with quartiles placed as Python's
// statistics.quantiles(xs, n=4) places them (the rule the repository's
// benchmark contract is judged by). Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q int) float64 { // exclusive method: position q·(n+1)/4, 1-based
		j := q * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(q*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (at(3) - at(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
