package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i + 1
	}
	for _, c := range []struct{ pct, want int }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got, _ := percentile(xs, c.pct); got != c.want {
			t.Errorf("p%d of 1..100 = %d, want %d", c.pct, got, c.want)
		}
	}
	if _, ok := percentile([]int{}, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

// TestPercentileTenBeyond pins the reporting rule: a percentile is
// supported only with at least ten samples above it, so p99 needs
// 1000 samples.
func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		beyond int
		ok     bool
	}{{1000, 10, true}, {999, 9, false}, {1200, 12, true}, {100, 1, false}, {5000, 50, true}} {
		xs := make([]int, c.n)
		_, ok := percentile(xs, 99)
		if b := beyond(c.n, 99); b != c.beyond || ok != c.ok {
			t.Errorf("n=%d: beyond p99 = %d ok=%v, want %d ok=%v", c.n, b, ok, c.beyond, c.ok)
		}
	}
	if _, ok := percentile(make([]int, 20), 50); !ok {
		t.Error("p50 of 20 samples should be supported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

// TestRoundSizesSupportP99 keeps every workload's round at 1000 trials
// or more, so each round's p99 has ten samples beyond it.
func TestRoundSizesSupportP99(t *testing.T) {
	for _, w := range workloads {
		n := w.sites * w.reps
		if beyond(n, 99) < minBeyond {
			t.Errorf("%s: %d trials per round leave %d samples beyond p99", w.name, n, beyond(n, 99))
		}
	}
}
