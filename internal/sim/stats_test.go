package sim

import "testing"

// TestPercentileNearestRank pins the nearest-rank definition: the
// p-th percentile of n sorted samples is the one at rank ⌈p/100·n⌉.
// The n=3/p=50 and n=10/p=99 rows fail under a truncating
// implementation (which returns rank ⌊p/100·n⌋, i.e. the p90 when
// asked for the p99 of 10 samples).
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want Duration // samples are 1..n, so want == rank
	}{
		{n: 1, p: 50, want: 1},
		{n: 1, p: 99, want: 1},
		{n: 1, p: 100, want: 1},
		{n: 3, p: 50, want: 2}, // truncating: 1
		{n: 3, p: 90, want: 3}, // truncating: 2
		{n: 3, p: 100, want: 3},
		{n: 10, p: 50, want: 5},
		{n: 10, p: 90, want: 9},
		{n: 10, p: 99, want: 10}, // truncating: 9 (the p90!)
		{n: 10, p: 100, want: 10},
		{n: 100, p: 50, want: 50},
		{n: 100, p: 99, want: 99},
		{n: 100, p: 99.5, want: 100}, // truncating: 99
		{n: 100, p: 100, want: 100},
	}
	for _, c := range cases {
		sorted := make([]Duration, c.n)
		for i := range sorted {
			sorted[i] = Duration(i + 1)
		}
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("n=%d p=%v: got %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if Percentile(nil, 99) != 0 {
		t.Error("empty input must report 0")
	}
}
