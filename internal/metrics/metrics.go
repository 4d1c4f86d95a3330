// Package metrics provides the measurement primitives shared by all
// experiments: streaming histograms with high-percentile queries
// (P50…P9999), windowed time series, CDFs, and counters.
//
// The paper reports distribution summaries at extreme percentiles
// (e.g. P9999 CPU utilization across O(10K) vSwitches, Table 4's P999
// completion times), so the histogram keeps exact samples up to a
// bound and switches to a log-bucketed sketch beyond it, trading a
// small relative error for bounded memory.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram records float64 samples and answers quantile queries.
// Up to maxExact samples it is exact; beyond that it degrades to a
// log-bucketed approximation with ~1% relative error.
type Histogram struct {
	name     string
	samples  []float64
	sorted   bool
	maxExact int

	// sketch mode
	sketch  []uint64 // log buckets
	zero    uint64   // count of zero / negative samples
	count   uint64
	sum     float64
	min     float64
	max     float64
	sketchy bool
}

const (
	defaultMaxExact = 1 << 20
	// gamma for ~1% relative error buckets: bucket(v) = ceil(log(v)/log(gamma))
	sketchGamma = 1.02
)

// NewHistogram returns an empty histogram with the default exact-mode
// capacity (1M samples).
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, maxExact: defaultMaxExact, min: math.Inf(1), max: math.Inf(-1)}
}

// NewHistogramCap returns a histogram that switches to sketch mode
// after maxExact samples.
func NewHistogramCap(name string, maxExact int) *Histogram {
	if maxExact < 1 {
		maxExact = 1
	}
	return &Histogram{name: name, maxExact: maxExact, min: math.Inf(1), max: math.Inf(-1)}
}

// Name returns the histogram's label.
func (h *Histogram) Name() string { return h.name }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if !h.sketchy {
		h.samples = append(h.samples, v)
		h.sorted = false
		if len(h.samples) > h.maxExact {
			h.toSketch()
		}
		return
	}
	h.sketchObserve(v)
}

func (h *Histogram) toSketch() {
	h.sketchy = true
	old := h.samples
	h.samples = nil
	for _, v := range old {
		h.sketchObserve(v)
	}
}

func (h *Histogram) sketchObserve(v float64) {
	if v <= 0 {
		h.zero++
		return
	}
	idx := int(math.Ceil(math.Log(v) / math.Log(sketchGamma)))
	// Shift so tiny values land at bucket 0; clamp the range.
	idx += 2048
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.sketch) {
		grown := make([]uint64, idx+1)
		copy(grown, h.sketch)
		h.sketch = grown
	}
	h.sketch[idx]++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (q in [0,1]). With no samples it
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if !h.sketchy {
		if !h.sorted {
			sort.Float64s(h.samples)
			h.sorted = true
		}
		idx := int(q * float64(len(h.samples)-1))
		return h.samples[idx]
	}
	target := uint64(q * float64(h.count-1))
	var seen uint64
	if h.zero > 0 {
		seen = h.zero
		if target < seen {
			return 0
		}
	}
	for i, c := range h.sketch {
		seen += c
		if target < seen {
			return math.Pow(sketchGamma, float64(i-2048))
		}
	}
	return h.max
}

// P50, P90, P99, P999, P9999 are the percentile shorthands the paper
// reports everywhere.
func (h *Histogram) P50() float64   { return h.Quantile(0.50) }
func (h *Histogram) P90() float64   { return h.Quantile(0.90) }
func (h *Histogram) P99() float64   { return h.Quantile(0.99) }
func (h *Histogram) P999() float64  { return h.Quantile(0.999) }
func (h *Histogram) P9999() float64 { return h.Quantile(0.9999) }

// Series is a (time, value) sequence used for utilization traces such
// as Fig 11's CPU-over-time curves.
type Series struct {
	name string
	ts   []float64
	vs   []float64
}

// NewSeries returns an empty series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Record appends a point. Time units are whatever the caller uses
// consistently (experiments use seconds of virtual time).
func (s *Series) Record(t, v float64) {
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.ts) }

// At returns the i-th point.
func (s *Series) At(i int) (t, v float64) { return s.ts[i], s.vs[i] }

// Name returns the series label.
func (s *Series) Name() string { return s.name }

// MaxValue returns the largest recorded value, or 0 for an empty series.
func (s *Series) MaxValue() float64 {
	m := 0.0
	for _, v := range s.vs {
		if v > m {
			m = v
		}
	}
	return m
}

// Table renders experiment output in the aligned rows the benchmark
// harness prints. Columns are padded to the widest cell.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, hh := range t.Header {
		widths[i] = len(hh)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
