package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramExactQuantiles(t *testing.T) {
	h := NewHistogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.P50(); math.Abs(got-50) > 1 {
		t.Fatalf("P50 = %v, want ~50", got)
	}
	if got := h.P99(); math.Abs(got-99) > 1 {
		t.Fatalf("P99 = %v, want ~99", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("empty")
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	if h.Count() != 0 {
		t.Fatal("empty count nonzero")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram("one")
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if h.Quantile(q) != 42 {
			t.Fatalf("Quantile(%v) = %v, want 42", q, h.Quantile(q))
		}
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	h := NewHistogram("clamp")
	h.Observe(1)
	h.Observe(2)
	if h.Quantile(-0.5) != 1 {
		t.Fatal("negative quantile should clamp to min")
	}
	if h.Quantile(1.5) != 2 {
		t.Fatal("quantile >1 should clamp to max")
	}
}

func TestHistogramSketchMode(t *testing.T) {
	h := NewHistogramCap("sk", 100)
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Sketch mode promises ~2% relative error.
	p50 := h.P50()
	if math.Abs(p50-5000)/5000 > 0.05 {
		t.Fatalf("sketch P50 = %v, want ~5000", p50)
	}
	p99 := h.P99()
	if math.Abs(p99-9900)/9900 > 0.05 {
		t.Fatalf("sketch P99 = %v, want ~9900", p99)
	}
}

func TestHistogramSketchZeroes(t *testing.T) {
	h := NewHistogramCap("z", 10)
	for i := 0; i < 1000; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	if got := h.P50(); got != 0 {
		t.Fatalf("P50 with mostly zeros = %v, want 0", got)
	}
	if got := h.Quantile(0.9999); math.Abs(got-100)/100 > 0.05 {
		t.Fatalf("tail quantile = %v, want ~100", got)
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	h := NewHistogram("interleave")
	h.Observe(10)
	_ = h.P50()
	h.Observe(1)
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("after interleaved observe, Quantile(0)=%v want 1", got)
	}
}

func TestCDFMonotonic(t *testing.T) {
	h := NewHistogram("cdf")
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i * i))
	}
	// Fig 4-style curves plot Quantile(q) against q: the value must not
	// fall as the cumulative fraction rises.
	prev := h.Quantile(0)
	for i := 1; i < 50; i++ {
		v := h.Quantile(float64(i) / 49)
		if v < prev {
			t.Fatalf("CDF values not monotonic at %d: %v < %v", i, v, prev)
		}
		prev = v
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("cpu")
	s.Record(0, 0.1)
	s.Record(1, 0.9)
	s.Record(2, 0.4)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	tm, v := s.At(1)
	if tm != 1 || v != 0.9 {
		t.Fatalf("At(1) = %v,%v", tm, v)
	}
	if s.MaxValue() != 0.9 {
		t.Fatalf("MaxValue = %v", s.MaxValue())
	}
}

func TestSeriesEmptyMax(t *testing.T) {
	s := NewSeries("empty")
	if s.MaxValue() != 0 {
		t.Fatal("empty series MaxValue should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("cps", 123456.0)
	tb.AddRow("gain", 3.3)
	out := tb.String()
	if !strings.Contains(out, "cps") || !strings.Contains(out, "123456") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	if !strings.Contains(out, "3.30") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
}

// TestSummaryContainsPercentiles: the standard percentile row the
// experiment tables print (p50 through p9999) is ordered and lies
// within the observed range.
func TestSummaryContainsPercentiles(t *testing.T) {
	h := NewHistogram("x")
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	prev := h.Min()
	for i, v := range []float64{h.P50(), h.P90(), h.P99(), h.P999(), h.P9999()} {
		if v < prev || v > h.Max() {
			t.Fatalf("percentile %d = %v out of order (prev %v, max %v)", i, v, prev, h.Max())
		}
		prev = v
	}
}

// Property: for any sample set, quantiles are monotone in q and
// bounded by [min, max].
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram("q")
		for _, v := range raw {
			h.Observe(float64(v % 100000))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			if v < h.Min() || v > h.Max() {
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

// Property: sketch-mode quantiles stay within 5% of exact-mode
// quantiles for positive samples.
func TestQuickSketchAccuracy(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 50 {
			return true
		}
		exact := NewHistogram("e")
		sk := NewHistogramCap("s", 10)
		for _, v := range raw {
			x := float64(v) + 1 // strictly positive
			exact.Observe(x)
			sk.Observe(x)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			e, s := exact.Quantile(q), sk.Quantile(q)
			if e == 0 {
				continue
			}
			if math.Abs(e-s)/e > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

func BenchmarkHistogramSketchObserve(b *testing.B) {
	h := NewHistogramCap("bench", 1)
	h.Observe(1)
	h.Observe(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) + 1)
	}
}
