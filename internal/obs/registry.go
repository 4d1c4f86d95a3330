// Package obs is the runtime observability layer: a labeled telemetry
// registry (counters, gauges, histograms) that every hot component
// publishes into, sampled per-packet flight tracing, span records for
// control-plane transactions, and a bounded flight recorder of recent
// structured events that the chaos engine dumps on invariant
// violations.
//
// Instrumentation is designed to be cheap enough to leave on: hot
// paths pre-bind series handles and bump atomics; components whose
// counters already exist as plain fields register CounterFunc /
// GaugeFunc / Collect closures instead, which cost nothing until a
// snapshot is taken (snapshots run on the sim goroutine, where those
// fields are owned). Flight tracing is sampled by a deterministic
// per-packet hash so the same seed and rate always trace the same
// packets.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nezha/internal/sim"
	"nezha/internal/slo"
)

// Label is one name=value dimension of a series.
type Label struct {
	K, V string
}

// Labels is a canonical (sorted by key) label set.
type Labels []Label

// L builds a Labels from alternating key, value strings and sorts it
// into canonical order. L("node", "10.0.0.1", "role", "BE").
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("obs.L: odd number of arguments")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{K: kv[i], V: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	return ls
}

// key returns the canonical series-map key suffix.
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteByte('=')
		b.WriteString(l.V)
	}
	return b.String()
}

// Map returns the labels as a plain map (for JSON export).
func (ls Labels) Map() map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.K] = l.V
	}
	return m
}

// promString renders {k="v",...} or "" for an empty set.
func (ls Labels) promString() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.K, l.V)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomically settable float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two histogram buckets: bucket
// i counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). Bucket 0 counts zeros.
const histBuckets = 65

// Histogram accumulates uint64 observations (cycles, nanoseconds,
// bytes) into power-of-two buckets. Observe is a few atomic adds;
// quantiles are approximate (bucket midpoint, clamped to the largest
// value observed).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count and Sum return the totals.
func (h *Histogram) Count() uint64 { return h.count.Load() }
func (h *Histogram) Sum() uint64   { return h.sum.Load() }

// Quantile returns an estimate of the q-th quantile (0 < q <= 1): the
// midpoint of the first bucket at which the cumulative count reaches
// q*total, clamped to the largest observed value so small counts
// can't overshoot the data. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want == 0 {
		want = 1
	}
	max := h.max.Load()
	if want >= total {
		// The quantile is the last observation — that is the max,
		// exactly.
		return max
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= want {
			if i == 0 {
				return 0
			}
			// Bucket i spans [2^(i-1), 2^i).
			lo := uint64(1) << uint(i-1)
			hi := uint64(math.MaxUint64)
			if i < 64 {
				hi = 1<<uint(i) - 1
			}
			mid := lo + (hi-lo)/2
			if mid > max {
				return max
			}
			return mid
		}
	}
	return max
}

// Kind discriminates series types in snapshots.
type Kind uint8

// Series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

type series struct {
	name   string
	labels Labels
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type funcSeries struct {
	name   string
	labels Labels
	kind   Kind
	cfn    func() uint64
	gfn    func() float64
}

// Emit is handed to Collect callbacks: it publishes one point into
// the snapshot under construction.
type Emit func(name string, labels Labels, kind Kind, value float64)

// Registry holds labeled series. Hot paths call GetCounter / GetGauge
// / GetHistogram once to pre-bind a handle and then bump atomics;
// CounterFunc / GaugeFunc / Collect register snapshot-time closures
// for values that already live in component-owned fields.
type Registry struct {
	mu         sync.Mutex
	series     map[string]*series
	funcs      []funcSeries
	funcKeys   map[string]bool
	collectors []func(Emit)
	helps      map[string]string

	// maxSeries caps distinct registered series (atomics + snapshot
	// funcs) so a region-scale run cannot silently blow the registry
	// up; past the cap new registrations are counted in dropped and
	// handed detached (unexported) instruments. 0 disables the cap.
	maxSeries int
	dropped   atomic.Uint64
	warnOnce  sync.Once
	warnFn    func(msg string)

	// Previous snapshot state for windowed rates.
	prevT   sim.Time
	prevVal map[string]float64
	hasPrev bool
}

// DefaultMaxSeries is the registry's default series-cardinality cap.
const DefaultMaxSeries = 1 << 16

// NewRegistry builds an empty registry with the default series cap.
func NewRegistry() *Registry {
	return &Registry{
		series:    make(map[string]*series),
		funcKeys:  make(map[string]bool),
		prevVal:   make(map[string]float64),
		helps:     make(map[string]string),
		maxSeries: DefaultMaxSeries,
		warnFn: func(msg string) {
			fmt.Fprintln(os.Stderr, msg)
		},
	}
}

// SetMaxSeries reconfigures the series-cardinality cap (<= 0 disables
// it). Already-registered series are never evicted.
func (r *Registry) SetMaxSeries(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxSeries = n
}

// Help attaches exposition help text to a metric name; WritePrometheus
// emits it as a # HELP line ahead of the # TYPE line.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helps[name] = text
}

// dropSeries counts one refused registration, warning once. Caller
// holds r.mu.
func (r *Registry) dropSeries(key string) {
	if r.dropped.Add(1) == 1 {
		warn := r.warnFn
		max := r.maxSeries
		r.warnOnce.Do(func() {
			if warn != nil {
				warn(fmt.Sprintf("obs: series cap %d reached dropping %q; further new series are dropped silently (obs_series_dropped_total counts them)", max, key))
			}
		})
	}
}

func seriesKey(name string, labels Labels) string {
	lk := labels.key()
	if lk == "" {
		return name
	}
	return name + "{" + lk + "}"
}

func (r *Registry) get(name string, labels Labels, kind Kind) *series {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %s re-registered as %v (was %v)", key, kind, s.kind))
		}
		return s
	}
	s := &series{name: name, labels: labels, kind: kind}
	if r.maxSeries > 0 && len(r.series)+len(r.funcs) >= r.maxSeries {
		// Past the cap: hand back a working but detached instrument so
		// pre-bound hot-path handles stay nil-safe.
		r.dropSeries(key)
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{}
		}
		return s
	}
	switch kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	case KindHistogram:
		s.h = &Histogram{}
	}
	r.series[key] = s
	return s
}

// GetCounter returns (creating if needed) the counter for name+labels.
func (r *Registry) GetCounter(name string, labels Labels) *Counter {
	return r.get(name, labels, KindCounter).c
}

// GetHistogram returns (creating if needed) the histogram for
// name+labels.
func (r *Registry) GetHistogram(name string, labels Labels) *Histogram {
	return r.get(name, labels, KindHistogram).h
}

// CounterFunc registers a snapshot-time counter sampled from fn. The
// closure runs on whatever goroutine calls Snapshot — in the sim that
// is the loop goroutine, which owns the plain fields fn reads.
// Re-registering the same name+labels replaces the closure.
func (r *Registry) CounterFunc(name string, labels Labels, fn func() uint64) {
	r.addFunc(funcSeries{name: name, labels: labels, kind: KindCounter, cfn: fn})
}

// GaugeFunc registers a snapshot-time gauge sampled from fn.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	r.addFunc(funcSeries{name: name, labels: labels, kind: KindGauge, gfn: fn})
}

func (r *Registry) addFunc(f funcSeries) {
	key := seriesKey(f.name, f.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcKeys[key] {
		for i := range r.funcs {
			if seriesKey(r.funcs[i].name, r.funcs[i].labels) == key {
				r.funcs[i] = f
				return
			}
		}
	}
	if r.maxSeries > 0 && len(r.series)+len(r.funcs) >= r.maxSeries {
		r.dropSeries(key)
		return
	}
	r.funcKeys[key] = true
	r.funcs = append(r.funcs, f)
}

// Collect registers a callback that emits points with dynamic label
// sets (e.g. one gauge per currently-known vNIC) at snapshot time.
func (r *Registry) Collect(fn func(Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Point is one series' value in a snapshot.
type Point struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  float64           `json:"value"`
	// Rate is the counter's per-second-of-sim-time rate over the
	// window since the previous snapshot (counters only; absent on the
	// first snapshot).
	Rate float64 `json:"rate,omitempty"`
	// Histogram extras.
	Count uint64 `json:"count,omitempty"`
	Sum   uint64 `json:"sum,omitempty"`
	P50   uint64 `json:"p50,omitempty"`
	P99   uint64 `json:"p99,omitempty"`
	P999  uint64 `json:"p999,omitempty"`

	labels Labels
}

// Snapshot is a consistent-enough view of all series at one sim time.
// Counters are read atomically; a snapshot taken concurrently with
// writers sees each series at some point within the write window.
type Snapshot struct {
	T      sim.Time `json:"t"`
	Points []Point  `json:"series"`
	// Flows is filled in by Obs.Snap with top-K flows (optional).
	Flows []FlowStat `json:"flows,omitempty"`
	// Spans is the tail of recently completed control-plane transaction
	// spans, filled in by a history Publisher (optional) — the TXN
	// section nezha-top renders in live mode.
	Spans []Span `json:"spans,omitempty"`

	// SLO is the latency/hot-flow SLO view, filled in by Obs.Snap when
	// a tracker is attached (optional) — /api/v1/slo and nezha-top's
	// LATENCY / TOP FLOWS sections read it.
	SLO *slo.View `json:"slo,omitempty"`

	// help carries per-metric exposition help text for WritePrometheus;
	// deliberately unexported so JSONL snapshots stay compact.
	help map[string]string
}

// Snapshot samples every series, computes windowed rates against the
// previous snapshot, and advances the rate window. Points are sorted
// by (name, labels) so exports are deterministic.
func (r *Registry) Snapshot(now sim.Time) *Snapshot {
	r.mu.Lock()
	sers := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		sers = append(sers, s)
	}
	funcs := append([]funcSeries(nil), r.funcs...)
	collectors := append([]func(Emit){}, r.collectors...)
	helps := make(map[string]string, len(r.helps))
	for k, v := range r.helps {
		helps[k] = v
	}
	r.mu.Unlock()

	snap := &Snapshot{T: now, help: helps}
	add := func(name string, labels Labels, kind Kind, value float64) {
		snap.Points = append(snap.Points, Point{
			Name: name, Labels: labels.Map(), Kind: kind.String(),
			Value: value, labels: labels,
		})
	}
	for _, s := range sers {
		switch s.kind {
		case KindCounter:
			add(s.name, s.labels, KindCounter, float64(s.c.Load()))
		case KindGauge:
			add(s.name, s.labels, KindGauge, s.g.Load())
		case KindHistogram:
			p := Point{
				Name: s.name, Labels: s.labels.Map(), Kind: KindHistogram.String(),
				Count: s.h.Count(), Sum: s.h.Sum(),
				P50: s.h.Quantile(0.50), P99: s.h.Quantile(0.99), P999: s.h.Quantile(0.999),
				labels: s.labels,
			}
			p.Value = float64(p.Count)
			snap.Points = append(snap.Points, p)
		}
	}
	for _, f := range funcs {
		switch f.kind {
		case KindCounter:
			add(f.name, f.labels, KindCounter, float64(f.cfn()))
		case KindGauge:
			add(f.name, f.labels, KindGauge, f.gfn())
		}
	}
	for _, c := range collectors {
		c(add)
	}
	if dropped := r.dropped.Load(); dropped > 0 {
		// Synthetic only once the cap has actually refused something, so
		// capped-but-healthy runs emit nothing new.
		add("obs_series_dropped_total", nil, KindCounter, float64(dropped))
	}
	sort.Slice(snap.Points, func(i, j int) bool {
		if snap.Points[i].Name != snap.Points[j].Name {
			return snap.Points[i].Name < snap.Points[j].Name
		}
		return snap.Points[i].labels.key() < snap.Points[j].labels.key()
	})

	// Windowed rates for counters.
	r.mu.Lock()
	dt := float64(now-r.prevT) / float64(sim.Second)
	newVal := make(map[string]float64, len(snap.Points))
	for i := range snap.Points {
		p := &snap.Points[i]
		if p.Kind != KindCounter.String() {
			continue
		}
		key := seriesKey(p.Name, p.labels)
		newVal[key] = p.Value
		if r.hasPrev && dt > 0 {
			if prev, ok := r.prevVal[key]; ok {
				p.Rate = (p.Value - prev) / dt
			}
		}
	}
	r.prevT = now
	r.prevVal = newVal
	r.hasPrev = true
	r.mu.Unlock()
	return snap
}

// escapeHelp escapes backslashes and newlines per the exposition
// format's HELP rules.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// withQuantile returns labels plus a quantile label, in canonical
// (sorted) order.
func withQuantile(base Labels, q string) Labels {
	ls := append(append(Labels(nil), base...), Label{K: "quantile", V: q})
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	return ls
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format: an optional # HELP line and a # TYPE line per metric name,
// then the samples. Histograms are rendered as summaries (quantile
// samples at 0.5/0.99/0.999, then _sum and _count).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	lastName := ""
	for i := range s.Points {
		p := &s.Points[i]
		if p.Name != lastName {
			if help, ok := s.help[p.Name]; ok && help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, escapeHelp(help)); err != nil {
					return err
				}
			}
			typ := p.Kind
			if typ == "histogram" {
				typ = "summary"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, typ); err != nil {
				return err
			}
			lastName = p.Name
		}
		lp := p.labels.promString()
		var err error
		switch p.Kind {
		case "histogram":
			_, err = fmt.Fprintf(w, "%s%s %d\n%s%s %d\n%s%s %d\n%s_sum%s %d\n%s_count%s %d\n",
				p.Name, withQuantile(p.labels, "0.5").promString(), p.P50,
				p.Name, withQuantile(p.labels, "0.99").promString(), p.P99,
				p.Name, withQuantile(p.labels, "0.999").promString(), p.P999,
				p.Name, lp, p.Sum,
				p.Name, lp, p.Count)
		default:
			_, err = fmt.Fprintf(w, "%s%s %v\n", p.Name, lp, p.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
