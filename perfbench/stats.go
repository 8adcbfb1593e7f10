package main

import "slices"

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it.
const minBeyond = 10

// rank is the 1-based nearest rank of the pct-th percentile of n
// samples: ceil(n*pct/100), computed in integers.
func rank(n, pct int) int {
	r := (n*pct + 99) / 100
	return max(r, 1)
}

// beyond counts the samples of n that lie above the nearest-rank
// pct-th percentile.
func beyond(n, pct int) int { return n - rank(n, pct) }

// percentile returns the nearest-rank pct-th percentile of sorted, and
// whether at least minBeyond samples lie beyond it.
func percentile[T any](sorted []T, pct int) (T, bool) {
	var zero T
	if len(sorted) == 0 {
		return zero, false
	}
	return sorted[rank(len(sorted), pct)-1], beyond(len(sorted), pct) >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
