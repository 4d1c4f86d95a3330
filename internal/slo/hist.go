// Package slo is the always-on latency and hot-flow telemetry layer:
// fixed-bucket log-linear latency histograms keyed (vnic, path, dir),
// a count-min sketch + top-K heavy-hitter tracker over normalized
// flow keys, and a windowed burn-rate evaluator against a per-vNIC
// p99 objective. Beside them sits Samples, the exact sample set that
// offline summaries (experiment tables, offload completion times)
// read their percentiles from; it keeps every sample.
//
// Everything else here is designed for the simulator's hot path: no
// allocations after the first packet of a vNIC, no event scheduling,
// no randomness, and no writes that fold into campaign digests — the
// layer is provably observer-effect-free (the chaos digest-equality
// tests pin it). The owning goroutine is the sim loop; nothing is
// locked, and snapshots must be taken from the same goroutine (the
// obs publisher already is).
package slo

import (
	"math/bits"
	"sort"
)

// Histogram geometry: HDR-style log-linear buckets. Values 0..7 get
// one bucket each; every octave above that is split into
// 1<<histSubBits linear sub-buckets, so relative error is bounded by
// 2^-histSubBits (12.5%) across the whole 64-bit range with a fixed
// 496-bucket footprint (~4 KB per histogram).
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave

	// NumBuckets covers the full uint64 range: 8 unit buckets plus
	// (64-histSubBits) octaves × histSub sub-buckets each... minus the
	// first octave already covered by the unit buckets:
	// (64-3-1+1)*8 + 8 = 496 with bucket 495 holding 15<<60..2^64-1.
	NumBuckets = (64-histSubBits)*histSub + histSub
)

// BucketOf maps a value to its bucket index.
func BucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= histSubBits
	mant := int(v>>(uint(exp)-histSubBits)) - histSub
	return (exp-histSubBits+1)*histSub + mant
}

// BucketLower returns the smallest value that lands in bucket i.
func BucketLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := i/histSub + histSubBits - 1
	mant := i % histSub
	return uint64(histSub+mant) << (uint(exp) - histSubBits)
}

// BucketUpper returns the inclusive upper edge of bucket i.
func BucketUpper(i int) uint64 {
	if i >= NumBuckets-1 {
		return ^uint64(0)
	}
	return BucketLower(i+1) - 1
}

// Hist is one fixed-footprint log-linear histogram. The zero value is
// ready to use.
type Hist struct {
	counts [NumBuckets]uint64
	count  uint64
	sum    uint64
	max    uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.counts[BucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Hist) Sum() uint64 { return h.sum }

// Max returns the largest observed value (0 if empty).
func (h *Hist) Max() uint64 { return h.max }

// Quantile returns the inclusive upper edge of the bucket holding the
// q-th quantile (0 < q <= 1), i.e. "q of observations were <= the
// returned value" up to the 12.5% bucket resolution. Returns 0 for an
// empty histogram.
func (h *Hist) Quantile(q float64) uint64 {
	return QuantileOf(&h.counts, h.count, q)
}

// QuantileOf is Quantile over a raw bucket-count array with the given
// total (useful for windowed diffs of two snapshots).
func QuantileOf(counts *[NumBuckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i := 0; i < NumBuckets; i++ {
		seen += counts[i]
		if seen >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// AddTo accumulates this histogram's buckets into out and returns the
// added observation count (for cross-path aggregation at snapshot
// time).
func (h *Hist) AddTo(out *[NumBuckets]uint64) uint64 {
	for i := range h.counts {
		out[i] += h.counts[i]
	}
	return h.count
}

// Samples is an exact sample set: it keeps every observation, so its
// quantiles are the paper's exact P99/P999/P9999. It is for offline
// summaries, not the per-packet path. The zero value is ready to use.
type Samples struct {
	v      []float64
	sum    float64
	sorted bool
}

// Observe records one sample.
func (s *Samples) Observe(v float64) {
	s.v = append(s.v, v)
	s.sum += v
	s.sorted = false
}

// Count returns the number of samples.
func (s *Samples) Count() uint64 { return uint64(len(s.v)) }

// Mean returns the arithmetic mean, or 0 with no samples. The sum is
// kept in observation order, so sorting never moves it.
func (s *Samples) Mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	return s.sum / float64(len(s.v))
}

// Quantile returns the sorted sample at index int(q*(n-1)), with q
// clamped to [0, 1]: Quantile(0) is the minimum and Quantile(1) the
// maximum. It returns 0 with no samples.
func (s *Samples) Quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return s.v[int(q*float64(len(s.v)-1))]
}
