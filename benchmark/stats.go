package main

import "sort"

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle sample (the mean of the two middle samples for
// an even count), 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fasterHalf is a run's estimate of what one job costs: the mean of the
// smaller half of its samples (the middle one included when the count is
// odd), 0 for no samples. Interference on a shared host only ever adds time,
// and it comes in stretches from a fraction of a second to minutes, so a
// stretch shorter than half the run leaves this value alone, where it drags
// the median, which sits on the edge between the slowed and the unslowed
// jobs; the minimum hangs on one lucky sample. README.md has the numbers.
func fasterHalf(xs []float64) float64 {
	s := sorted(xs)
	return mean(s[:(len(s)+1)/2])
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the function the acceptance driver applies to the ten run medians.
// Fewer than two samples have no quartiles: both results are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, the
// steadiness measure of the benchmark contract. 0 when it is undefined.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// hiPercentile returns the highest percentile of xs that still has at least
// ten samples beyond it: the sample with exactly ten larger ones, and its
// percentile rank. ok is false below 21 samples, where that sample would lie
// under the median and say nothing about slow ops.
func hiPercentile(xs []float64) (v float64, pct int, ok bool) {
	n := len(xs)
	if n < 21 {
		return 0, 0, false
	}
	return sorted(xs)[n-11], 100 * (n - 10) / n, true
}
