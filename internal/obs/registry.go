// Package obs is the runtime observability layer: a labeled telemetry
// registry (counters, gauges, histograms) that every hot component
// publishes into, sampled per-packet flight tracing, span records for
// control-plane transactions, and a bounded flight recorder of recent
// structured events that the chaos engine dumps on invariant
// violations.
//
// Instrumentation is designed to be cheap enough to leave on: hot
// paths pre-bind series handles and bump atomics; components whose
// counters already exist as plain fields register a table of them
// instead, which costs nothing until a snapshot reads it (snapshots run
// on the sim goroutine, where those fields are owned). Flight tracing is sampled by a deterministic
// per-packet hash so the same seed and rate always trace the same
// packets.
package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"math/bits"
	"os"
	"slices"
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
	slices.SortFunc(ls, byLabelKey)
	return ls
}

func byLabelKey(a, b Label) int { return strings.Compare(a.K, b.K) }

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

// Observe records one value. The count goes last: a reader that loads
// the count first (Snapshot, Quantile) then sees every observation it
// counts in the sum and the buckets too.
func (h *Histogram) Observe(v uint64) {
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
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

// desc describes one series to Snapshot: its identity, its kind and its
// rate window. Atomic series embed theirs; table rows and
// collector-emitted label sets get one on their first snapshot, so
// registration allocates nothing for it. Name, labels, key and kind
// never change once the descriptor enters a schema (a collector label
// set that changes kind gets a fresh one), so a History reads them from
// any goroutine.
type desc struct {
	name   string
	labels Labels
	// key is seriesKey(name, labels).
	key  string
	kind Kind
	// prev is the counter value the series had in snapshot prevGen; a
	// rate is taken only against the immediately preceding snapshot.
	prev    float64
	prevGen uint64
	// seen is the last snapshot a collector emitted the series in.
	seen uint64
}

// lkey is the k=v,... part of the key between the braces, the second
// sort key of a snapshot.
func (d *desc) lkey() string {
	if len(d.key) == len(d.name) {
		return ""
	}
	return d.key[len(d.name)+1 : len(d.key)-1]
}

type series struct {
	desc
	c *Counter
	g *Gauge
	h *Histogram
}

// Emit is handed to a table's Collect: it publishes one point into the
// snapshot under construction.
type Emit func(name string, labels Labels, kind Kind, value float64)

// Series is one row of a component's registration table: a series that
// every instance of T exports. Value reads it from the instance at
// snapshot time, on the goroutine that owns the instance (in the sim,
// the loop goroutine); a KindHistogram row sets Hist instead, which
// returns the instance's histogram. A row with neither only names a
// series the table's Collect emits, and carries its help text.
type Series[T any] struct {
	Name, Help string
	Kind       Kind
	// Labels are added to the instance's own (a drop reason, say).
	Labels Labels
	Value  func(x *T) float64
	Hist   func(x *T) *Histogram
}

// Table is everything one component type exports: the series each
// instance has, and Collect for the series whose label sets are only
// known at snapshot time (one per live vNIC, say). A table is a
// package-level value that every instance shares.
type Table[T any] struct {
	Series  []Series[T]
	Collect func(x *T, emit Emit)
}

// Register publishes t's series for instance x, each labelled with
// labels (in canonical order, as L builds them) plus its row's own. It
// allocates once: the first snapshot after it builds the series' keys,
// descriptors and label sets, and keeps them. The valued rows count
// against the series cap here, in table order. Register does not look
// for duplicates, so an instance must be registered once.
func Register[T any](r *Registry, x *T, labels Labels, t *Table[T]) {
	r.register(&instance[T]{x: x, t: t}, labels)
}

// instance is one Register call's instance and table.
type instance[T any] struct {
	x *T
	t *Table[T]
}

// group is an instance with its type erased.
type group interface {
	rows() int
	row(i int) row
	point(i int, d *desc) Point
	collect(emit Emit)
}

// row is what the registry reads of a table row.
type row struct {
	name, help string
	kind       Kind
	labels     Labels
	valued     bool
}

func (g *instance[T]) rows() int { return len(g.t.Series) }

func (g *instance[T]) row(i int) row {
	s := &g.t.Series[i]
	return row{name: s.Name, help: s.Help, kind: s.Kind, labels: s.Labels, valued: s.Value != nil || s.Hist != nil}
}

// point reads row i, which d describes.
func (g *instance[T]) point(i int, d *desc) Point {
	s := &g.t.Series[i]
	if s.Hist != nil {
		return d.histPoint(s.Hist(g.x))
	}
	return d.point(s.Value(g.x))
}

func (g *instance[T]) collect(emit Emit) {
	if g.t.Collect != nil {
		g.t.Collect(g.x, emit)
	}
}

// registration is one Register call: its group, its label set, and how
// many valued rows the series cap admitted (a prefix, in table order).
// From its first snapshot on, cols holds each admitted row's
// descriptor and rows its table row. Snapshots keep pointers into cols
// alone, so what a published snapshot retains is descriptors.
type registration struct {
	g      group
	labels Labels
	admit  int
	built  bool
	cols   []desc
	rows   []int
}

// Registry holds labeled series. Hot paths call GetCounter once to
// pre-bind a handle and then bump atomics; components whose values
// already live in their own fields, histograms included, Register a
// table of them, which costs nothing until a snapshot reads it.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	regs   []registration
	// static counts the admitted valued rows of regs.
	static int
	// helps is shared with every snapshot taken since it last changed
	// (helpShared); setHelp copies it before writing.
	helps      map[string]string
	helpShared bool

	// maxSeries caps distinct registered series (atomics + table rows)
	// so a region-scale run cannot silently blow the registry up; past
	// the cap new registrations are counted in dropped, and GetCounter
	// hands out detached (unexported) instruments. 0 disables the cap.
	maxSeries int
	dropped   atomic.Uint64
	warnOnce  sync.Once
	warnFn    func(msg string)

	// Snapshot state, owned by whoever holds snapMu: the snapshot
	// generation (the rate window is gen-1 -> gen), its sim time, the
	// descriptors of the label sets collectors emitted in the latest
	// snapshot, the key scratch for looking them up, and the previous
	// snapshot's point count (the next one's capacity guess).
	snapMu  sync.Mutex
	gen     uint64
	prevT   sim.Time
	dyn     map[string]*desc
	keyBuf  []byte
	lastLen int
	// schema is the latest snapshot's, maps its columns' label maps
	// (what Snapshot hands to points), and labels the same maps by label
	// set (see schemaFor).
	schema *schema
	maps   []map[string]string
	labels map[string]map[string]string
}

// DefaultMaxSeries is the registry's default series-cardinality cap.
const DefaultMaxSeries = 1 << 16

// droppedName counts the registrations the series cap refused.
const droppedName = "obs_series_dropped_total"

// NewRegistry builds an empty registry with the default series cap.
func NewRegistry() *Registry {
	return &Registry{
		series:    make(map[string]*series),
		dyn:       make(map[string]*desc),
		helps:     map[string]string{droppedName: "Series registrations refused by the registry cardinality cap."},
		maxSeries: DefaultMaxSeries,
		warnFn: func(msg string) {
			fmt.Fprintln(os.Stderr, msg)
		},
	}
}

// setHelp attaches exposition help text to a metric name;
// WritePrometheus emits it as a # HELP line ahead of the # TYPE line.
// Caller holds r.mu.
func (r *Registry) setHelp(name, text string) {
	if r.helpShared {
		r.helps = maps.Clone(r.helps)
		r.helpShared = false
	}
	r.helps[name] = text
}

// full reports whether the series cap refuses a new series. Caller
// holds r.mu.
func (r *Registry) full() bool {
	return r.maxSeries > 0 && len(r.series)+r.static >= r.maxSeries
}

// dropSeries counts one refused registration, warning once. Caller
// holds r.mu.
func (r *Registry) dropSeries(name string, labels Labels) {
	if r.dropped.Add(1) == 1 {
		warn := r.warnFn
		max := r.maxSeries
		r.warnOnce.Do(func() {
			if warn != nil {
				warn(fmt.Sprintf("obs: series cap %d reached dropping %q; further new series are dropped silently (%s counts them)", max, seriesKey(name, labels), droppedName))
			}
		})
	}
}

// writeKey writes the series key name{k=v,...}, or name alone for an
// empty label set.
func writeKey(b *strings.Builder, name string, labels Labels) {
	b.WriteString(name)
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteByte('=')
		b.WriteString(l.V)
	}
	b.WriteByte('}')
}

// keyLen is the length of name's series key with labels.
func keyLen(name string, labels Labels) int {
	if len(labels) == 0 {
		return len(name)
	}
	n := len(name) + len(labels) + 1 // the braces and the commas between labels
	for _, l := range labels {
		n += len(l.K) + 1 + len(l.V)
	}
	return n
}

// seriesKey returns the series-map key name{k=v,...}, or name alone
// for an empty label set, built in one allocation: the buffer is sized
// before anything is written.
func seriesKey(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(keyLen(name, labels))
	writeKey(&b, name, labels)
	return b.String()
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
	s := &series{desc: desc{name: name, labels: labels, key: key, kind: kind}}
	switch kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	case KindHistogram:
		s.h = &Histogram{}
	}
	if r.full() {
		// Past the cap: hand back a working but detached instrument so
		// pre-bound hot-path handles stay nil-safe.
		r.dropSeries(name, labels)
		return s
	}
	r.series[key] = s
	return s
}

// GetCounter returns (creating if needed) the counter for name+labels.
func (r *Registry) GetCounter(name string, labels Labels) *Counter {
	return r.get(name, labels, KindCounter).c
}

// register admits g's valued rows while the series cap allows.
func (r *Registry) register(g group, labels Labels) {
	r.mu.Lock()
	defer r.mu.Unlock()
	reg := registration{g: g, labels: labels}
	for i, n := 0, g.rows(); i < n; i++ {
		switch row := g.row(i); {
		case !row.valued:
		case r.full():
			r.dropSeries(row.name, merge(nil, labels, row.labels))
		default:
			reg.admit++
			r.static++
		}
	}
	r.regs = append(r.regs, reg)
}

// merge appends base and extra to dst and returns the appended label
// set, sorted into canonical order.
func merge(dst, base, extra Labels) Labels {
	at := len(dst)
	dst = append(append(dst, base...), extra...)
	ls := dst[at:len(dst):len(dst)]
	slices.SortFunc(ls, byLabelKey)
	return ls
}

// build publishes reg's help text and describes its admitted rows: the
// merged label sets share one array and the keys one string. Caller
// holds r.mu.
func (r *Registry) build(reg *registration) {
	reg.built = true
	g := reg.g
	extra := 0
	for i := 0; i < g.rows(); i++ {
		if row := g.row(i); row.valued && len(row.labels) > 0 {
			extra += len(reg.labels) + len(row.labels)
		}
	}
	reg.cols = make([]desc, 0, reg.admit)
	reg.rows = make([]int, 0, reg.admit)
	merged := make(Labels, 0, extra)
	size := 0
	for i := 0; i < g.rows(); i++ {
		row := g.row(i)
		if row.help != "" {
			r.setHelp(row.name, row.help)
		}
		if !row.valued || len(reg.cols) == reg.admit {
			continue
		}
		ls := reg.labels
		if len(row.labels) > 0 {
			ls = merge(merged, reg.labels, row.labels)
			merged = merged[:len(merged)+len(ls)]
		}
		size += keyLen(row.name, ls)
		reg.cols = append(reg.cols, desc{name: row.name, labels: ls, kind: row.kind})
		reg.rows = append(reg.rows, i)
	}
	var b strings.Builder
	b.Grow(size)
	for i := range reg.cols {
		writeKey(&b, reg.cols[i].name, reg.cols[i].labels)
	}
	keys, off := b.String(), 0
	for i := range reg.cols {
		c := &reg.cols[i]
		end := off + keyLen(c.name, c.labels)
		c.key, off = keys[off:end], end
	}
}

// Point is one series' value in a snapshot.
type Point struct {
	Name string `json:"name"`
	// Labels is the series' label set. The map is shared with every
	// point of the same label set that one read returns (one registry
	// Snapshot, or one History read call), not across reads: read it,
	// never write it.
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

	d *desc // nil on points built by hand or decoded from JSON
}

// labelSet returns the point's canonical labels (nil without a
// descriptor).
func (p *Point) labelSet() Labels {
	if p.d == nil {
		return nil
	}
	return p.d.labels
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
	// deliberately unexported so JSONL snapshots stay compact. Shared
	// with the registry until its help text next changes.
	help map[string]string
	// schema describes Points column by column (nil on snapshots built
	// by hand); History keeps it in place of the rows until the next
	// snapshot arrives, and older snapshots as edits against the next.
	schema *schema
}

// schema is the series of a snapshot in export order, everything its
// Points hold but their values. It is immutable: consecutive snapshots
// emitting the same series share one.
type schema struct {
	cols     []*desc
	counters int // columns carrying a rate
	hists    int // columns carrying histogram extras
}

// matches reports whether pts are the registry series sc describes, in
// its order and of its kinds.
func (sc *schema) matches(pts []Point) bool {
	if sc == nil || len(sc.cols) != len(pts) {
		return false
	}
	for i, d := range sc.cols {
		if d != pts[i].d || d.kind.String() != pts[i].Kind {
			return false
		}
	}
	return true
}

func (d *desc) point(v float64) Point {
	return Point{Name: d.name, Kind: d.kind.String(), Value: v, d: d}
}

func (d *desc) histPoint(h *Histogram) Point {
	p := d.point(0)
	p.Count, p.Sum = h.Count(), h.Sum()
	p.P50, p.P99, p.P999 = h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
	p.Value = float64(p.Count)
	return p
}

func (s *series) point() Point {
	switch s.kind {
	case KindCounter:
		return s.desc.point(float64(s.c.Load()))
	case KindGauge:
		return s.desc.point(s.g.Load())
	}
	return s.desc.histPoint(s.h)
}

// intern returns the descriptor of a label set a collector emitted,
// creating it on the set's first appearance or when its kind changed,
// and marks it seen in snapshot gen. The lookup builds the key in
// scratch, so a set already known allocates nothing. Caller holds
// snapMu.
func (r *Registry) intern(name string, labels Labels, kind Kind, gen uint64) *desc {
	b := append(r.keyBuf[:0], name...)
	if len(labels) > 0 {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, l.K...), '='), l.V...)
		}
		b = append(b, '}')
	}
	r.keyBuf = b
	d := r.dyn[string(b)]
	if d == nil || d.kind != kind {
		key := string(b)
		d = &desc{name: name, labels: labels, key: key, kind: kind}
		r.dyn[key] = d
	}
	d.seen = gen
	return d
}

// byKey orders points by (name, labels key) through their descriptors.
type byKey []Point

func (p byKey) Len() int           { return len(p) }
func (p byKey) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p byKey) Less(i, j int) bool { return descLess(p[i].d, p[j].d) }

// descLess orders descriptors by (name, labels key), a snapshot's order.
func descLess(a, b *desc) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	return a.lkey() < b.lkey()
}

// Snapshot samples every series, computes windowed rates against the
// previous snapshot, and advances the rate window. Points are sorted
// by (name, labels) so exports are deterministic.
//
// A snapshot's cost follows what changed: every point of a series
// shares the series' descriptor, every point of a label set one label
// map, a counter's rate comes from the value its descriptor kept, the
// help map is shared until the help text changes, and the schema and its
// label maps until the set of series changes. Label sets that collectors
// emit are interned in a table holding only the sets of the latest
// snapshot, so it is bounded by the current cardinality, and a set
// missing from one snapshot has no rate in the next. Snapshots are
// serialized.
func (r *Registry) Snapshot(now sim.Time) *Snapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	r.gen++
	gen := r.gen

	pts := make([]Point, 0, r.lastLen)
	r.mu.Lock()
	for _, s := range r.series {
		pts = append(pts, s.point())
	}
	for i := range r.regs {
		if !r.regs[i].built {
			r.build(&r.regs[i])
		}
	}
	// Register only appends, and only snapshots write what is built, so
	// the entries seen here stay as they are once the lock is released.
	regs := r.regs[:len(r.regs):len(r.regs)]
	snap := &Snapshot{T: now, help: r.helps}
	r.helpShared = true
	r.mu.Unlock()

	for i := range regs {
		reg := &regs[i]
		for j, row := range reg.rows {
			pts = append(pts, reg.g.point(row, &reg.cols[j]))
		}
	}
	emit := func(name string, labels Labels, kind Kind, value float64) {
		pts = append(pts, r.intern(name, labels, kind, gen).point(value))
	}
	for i := range regs {
		regs[i].g.collect(emit)
	}
	if dropped := r.dropped.Load(); dropped > 0 {
		// Synthetic only once the cap has actually refused something, so
		// capped-but-healthy runs emit nothing new.
		emit(droppedName, nil, KindCounter, float64(dropped))
	}
	sort.Sort(byKey(pts))
	sc := r.schemaFor(pts)

	// Shared label maps and windowed rates for counters. Rates read every
	// descriptor's previous value before any is overwritten.
	dt := float64(now-r.prevT) / float64(sim.Second)
	for i := range pts {
		p := &pts[i]
		d := p.d
		p.Labels = r.maps[i]
		if d.kind == KindCounter && dt > 0 && d.prevGen != 0 && d.prevGen == gen-1 {
			p.Rate = (p.Value - d.prev) / dt
		}
	}
	for i := range pts {
		if d := pts[i].d; d.kind == KindCounter {
			d.prev, d.prevGen = pts[i].Value, gen
		}
	}
	r.prevT = now
	for k, d := range r.dyn {
		if d.seen != gen {
			delete(r.dyn, k)
		}
	}

	r.lastLen = len(pts)
	switch {
	case len(pts) == 0:
		pts = nil
	case len(pts) != cap(pts):
		pts = append(make([]Point, 0, len(pts)), pts...)
	}
	snap.Points, snap.schema = pts, sc
	return snap
}

// schemaFor returns the schema of pts, a snapshot's sorted points: the
// previous snapshot's when pts hold the same series of the same kinds,
// so a steady registry builds none. A new schema's columns take the
// label maps of the previous one where their label sets persist, and
// labels then holds only the sets of the new schema: it is bounded by
// the series the registry currently emits. The maps stay on the
// registry's side: the schema, which a History retains for its newest
// snapshot only, holds descriptors only. Caller holds snapMu.
func (r *Registry) schemaFor(pts []Point) *schema {
	if r.schema.matches(pts) {
		return r.schema
	}
	sc := &schema{cols: make([]*desc, len(pts))}
	maps := make([]map[string]string, len(pts))
	sets := make(map[string]map[string]string)
	for i := range pts {
		d := pts[i].d
		sc.cols[i] = d
		switch d.kind {
		case KindCounter:
			sc.counters++
		case KindHistogram:
			sc.hists++
		}
		if len(d.labels) == 0 {
			continue
		}
		r.keyBuf = appendLabelsKey(r.keyBuf[:0], d.labels)
		m := sets[string(r.keyBuf)]
		if m == nil {
			if m = r.labels[string(r.keyBuf)]; m == nil {
				m = d.labels.Map()
			}
			sets[string(r.keyBuf)] = m
		}
		maps[i] = m
	}
	r.schema, r.maps, r.labels = sc, maps, sets
	return sc
}

// appendLabelsKey appends the key of label set ls to b. It
// length-prefixes every name and value, so no two label sets share one.
func appendLabelsKey(b []byte, ls Labels) []byte {
	for _, l := range ls {
		b = binary.AppendUvarint(b, uint64(len(l.K)))
		b = append(b, l.K...)
		b = binary.AppendUvarint(b, uint64(len(l.V)))
		b = append(b, l.V...)
	}
	return b
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
	slices.SortFunc(ls, byLabelKey)
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
		ls := p.labelSet()
		lp := ls.promString()
		var err error
		switch p.Kind {
		case "histogram":
			_, err = fmt.Fprintf(w, "%s%s %d\n%s%s %d\n%s%s %d\n%s_sum%s %d\n%s_count%s %d\n",
				p.Name, withQuantile(ls, "0.5").promString(), p.P50,
				p.Name, withQuantile(ls, "0.99").promString(), p.P99,
				p.Name, withQuantile(ls, "0.999").promString(), p.P999,
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
