package slo

import (
	"math"
	"testing"
	"testing/quick"
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

// Samples answers exact quantiles: the sorted sample at int(q*(n-1)),
// q clamped to [0, 1], monotone in q; Mean is the running sum over the
// count. before is observed and then queried (sorting the set), so the
// samples in after must be sorted in again.
func TestSamples(t *testing.T) {
	seq := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	cases := []struct {
		name          string
		before, after []float64
		count         uint64
		mean          float64
		want          map[float64]float64 // q → Quantile(q)
	}{
		{"exact quantiles", nil, seq(100, func(i int) float64 { return float64(100 - i) }), 100, 50.5,
			map[float64]float64{0: 1, 0.5: 50, 0.99: 99, 1: 100}},
		{"empty", nil, nil, 0, 0, map[float64]float64{0: 0, 0.5: 0, 1: 0}},
		{"single sample", nil, []float64{42}, 1, 42, map[float64]float64{0: 42, 0.5: 42, 0.99: 42, 1: 42}},
		{"q clamped", nil, []float64{2, 1}, 2, 1.5, map[float64]float64{-0.5: 1, 1.5: 2}},
		{"observe after quantile", []float64{10}, []float64{1}, 2, 5.5, map[float64]float64{0: 1, 1: 10}},
		{"cdf monotonic", nil, seq(1000, func(i int) float64 { return float64(i * i) }), 1000, 332833.5,
			map[float64]float64{0.5: 499 * 499, 1: 999 * 999}},
		// The percentile row the experiment tables print, p50 to p9999.
		{"summary percentiles", nil, seq(10000, func(i int) float64 { return float64(i + 1) }), 10000, 5000.5,
			map[float64]float64{0: 1, 0.5: 5000, 0.9: 9000, 0.99: 9900, 0.999: 9990, 0.9999: 9999, 1: 10000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s Samples
			for _, v := range c.before {
				s.Observe(v)
			}
			if len(c.before) > 0 {
				s.Quantile(0.5)
			}
			for _, v := range c.after {
				s.Observe(v)
			}
			if s.Count() != c.count || s.Mean() != c.mean {
				t.Fatalf("count, mean = %d, %v; want %d, %v", s.Count(), s.Mean(), c.count, c.mean)
			}
			for q, want := range c.want {
				if got := s.Quantile(q); got != want {
					t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
				}
			}
			for i, prev := 1, s.Quantile(0); i <= 49; i++ {
				v := s.Quantile(float64(i) / 49)
				if v < prev || v > s.Quantile(1) {
					t.Fatalf("Quantile(%d/49) = %v outside [%v, %v]", i, v, prev, s.Quantile(1))
				}
				prev = v
			}
		})
	}
}

// Property: for any sample set, quantiles are monotone in q and
// bounded by [Quantile(0), Quantile(1)], which are the min and max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var s Samples
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			x := float64(v % 100000)
			s.Observe(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if s.Quantile(0) != lo || s.Quantile(1) != hi {
			return false
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
