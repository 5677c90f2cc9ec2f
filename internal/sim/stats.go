package sim

import "math"

// Percentile reports the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank method: the smallest sample with at least p % of the
// distribution at or below it, rank ⌈p/100·n⌉. The input must already be
// sorted ascending. An empty slice reports 0.
func Percentile(sorted []Duration, p float64) Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean reports the average of samples (0 when empty).
func Mean(samples []Duration) Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum Duration
	for _, s := range samples {
		sum += s
	}
	return sum / Duration(len(samples))
}
