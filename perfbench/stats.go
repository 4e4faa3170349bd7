package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported: with fewer, the "p99" of a run is one or two
// outliers, not a percentile.
const minBeyond = 10

// quantile returns the exact q-quantile (nearest rank) of sorted,
// which must be ascending and non-empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailQuantile is quantile for a tail percentile: it refuses when
// fewer than minBeyond samples lie beyond the quantile's rank.
func tailQuantile(sorted []time.Duration, q float64) (time.Duration, error) {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if beyond := len(sorted) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(sorted), beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// sortedCopy returns ds sorted ascending, leaving ds untouched.
func sortedCopy(ds []time.Duration) []time.Duration {
	out := slices.Clone(ds)
	slices.Sort(out)
	return out
}

// median returns the median of xs (mean of the middle pair for an even
// count); xs must be non-empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
