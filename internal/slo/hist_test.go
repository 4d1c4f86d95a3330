package slo

import (
	"math"
	"testing"
)

// Bucket boundaries: unit buckets below 8, then 8 linear sub-buckets
// per octave.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {7, 7}, // unit buckets
		{8, 8}, {9, 9}, {15, 15}, // first split octave, 1-wide
		{16, 16}, {17, 16}, {18, 17}, {31, 23}, // 2-wide sub-buckets
		{32, 24}, {63, 31},
		{1 << 20, (20-2)*8 + 0}, // power of two lands on sub-bucket 0
		{math.MaxUint64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Every bucket's lower edge must map back into that bucket, its upper
// edge too, and upper+1 must land in the next bucket.
func TestBucketEdgesRoundTrip(t *testing.T) {
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketLower(i), BucketUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if got := BucketOf(lo); got != i {
			t.Fatalf("BucketOf(lower(%d)=%d) = %d", i, lo, got)
		}
		if got := BucketOf(hi); got != i {
			t.Fatalf("BucketOf(upper(%d)=%d) = %d", i, hi, got)
		}
		if i < NumBuckets-1 {
			if got := BucketOf(hi + 1); got != i+1 {
				t.Fatalf("BucketOf(upper(%d)+1) = %d, want %d", i, got, i+1)
			}
		}
	}
}

// Relative bucket width stays within 2^-histSubBits of the value.
func TestBucketRelativeError(t *testing.T) {
	for _, v := range []uint64{10, 100, 1000, 12345, 1 << 30, 1 << 50} {
		i := BucketOf(v)
		width := BucketUpper(i) - BucketLower(i) + 1
		if float64(width) > float64(v)/float64(histSub)+1 {
			t.Errorf("v=%d: bucket width %d exceeds 12.5%% bound", v, width)
		}
	}
}

func TestHistQuantileAndCounters(t *testing.T) {
	var h Hist
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty hist quantile must be 0")
	}
	// 100 observations: 99 at 1000ns, 1 at 1_000_000ns.
	for i := 0; i < 99; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1_000_000 {
		t.Fatalf("max = %d", h.Max())
	}
	if h.Sum() != 99*1000+1_000_000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	p50 := h.Quantile(0.50)
	if BucketOf(p50) != BucketOf(1000) {
		t.Fatalf("p50 = %d, want within bucket of 1000", p50)
	}
	// p99 rank is the 99th observation — still the 1000ns cohort; the
	// single outlier only surfaces at p100.
	if p99 := h.Quantile(0.99); BucketOf(p99) != BucketOf(1000) {
		t.Fatalf("p99 = %d, want within bucket of 1000", p99)
	}
	if p100 := h.Quantile(1.0); BucketOf(p100) != BucketOf(1_000_000) {
		t.Fatalf("p100 = %d, want within bucket of 1000000", p100)
	}
}
