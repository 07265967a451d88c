package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// TestSamplesForLeavesTenBeyond checks the tail rule: at the sample
// count a workload guarantees for its percentile, at least ten samples
// lie beyond the reported figure.
func TestSamplesForLeavesTenBeyond(t *testing.T) {
	for pct, want := range map[float64]int{75: 40, 90: 100, 95: 200, 99: 1000} {
		n := samplesFor(pct)
		if n != want {
			t.Errorf("samplesFor(%v) = %d, want %d", pct, n, want)
		}
		xs := seq(n)
		v := quantile(xs, pct/100)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("p%v over %d samples: only %d beyond", pct, n, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles(seq(10))
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v %v", q1, q2, q3, err)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3, _ = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("two-value quartiles = %v %v %v", q1, q2, q3)
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Fatal("one value: want an error")
	}
	if m := median([]float64{3, 1, 2, 10}); math.Abs(m-2.5) > 0 {
		t.Fatalf("median = %v", m)
	}
}
