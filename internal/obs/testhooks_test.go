package obs

import "nezha/internal/slo"

// Accessors only the tests use: they read or replace state the
// program itself never inspects from outside the package.

// Trace returns the retained hops of packet id (nil if not sampled or
// evicted).
func (t *FlightTracer) Trace(id uint64) []Hop {
	var hops []Hop
	for _, r := range t.retained() {
		if r.id == id {
			hops = append(hops, r.Hop)
		}
	}
	return hops
}

// SubDropped reports events dropped on full subscriber channels.
func (h *History) SubDropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.subDropped
}

// SetMaxSeries reconfigures the series-cardinality cap (<= 0 disables
// it). Already-registered series are never evicted.
func (r *Registry) SetMaxSeries(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxSeries = n
}

// SetWarnFn replaces the first-drop warning sink (default: stderr).
func (r *Registry) SetWarnFn(fn func(msg string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.warnFn = fn
}

// Dropped reports how many registrations the cardinality cap refused.
func (r *Registry) Dropped() uint64 { return r.dropped.Load() }

// Help attaches exposition help text to a metric name.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setHelp(name, text)
}

// HistVar registers a one-row table: the histogram h.
func (r *Registry) HistVar(name string, labels Labels, h *slo.Hist) {
	Register(r, h, labels, &Table[slo.Hist]{Series: []Series[slo.Hist]{{
		Name: name, Kind: KindHistogram, Hist: func(h *slo.Hist) *slo.Hist { return h },
	}}})
}

// CounterFunc registers a one-row table: a counter sampled from fn.
func (r *Registry) CounterFunc(name string, labels Labels, fn func() uint64) {
	Register(r, &fn, labels, &Table[func() uint64]{Series: []Series[func() uint64]{{
		Name: name, Kind: KindCounter, Value: func(fn *func() uint64) float64 { return float64((*fn)()) },
	}}})
}

// CounterVar registers a one-row table: a counter read from *v.
func (r *Registry) CounterVar(name string, labels Labels, v *uint64) {
	Register(r, v, labels, &Table[uint64]{Series: []Series[uint64]{{
		Name: name, Kind: KindCounter, Value: func(v *uint64) float64 { return float64(*v) },
	}}})
}

// GaugeVar registers a one-row table: a gauge read from *v.
func (r *Registry) GaugeVar(name string, labels Labels, v *float64) {
	Register(r, v, labels, &Table[float64]{Series: []Series[float64]{{
		Name: name, Kind: KindGauge, Value: func(v *float64) float64 { return *v },
	}}})
}

// GaugeFunc registers a one-row table: a gauge sampled from fn.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	Register(r, &fn, labels, &Table[func() float64]{Series: []Series[func() float64]{{
		Name: name, Kind: KindGauge, Value: func(fn *func() float64) float64 { return (*fn)() },
	}}})
}

// Collect registers a table with only a Collect: fn emits its points
// at snapshot time.
func (r *Registry) Collect(fn func(Emit)) {
	Register(r, &fn, nil, &Table[func(Emit)]{Collect: func(fn *func(Emit), emit Emit) { (*fn)(emit) }})
}

// DropDeltas clears every retained record but the newest, so a read
// that walks a delta fails.
func (h *History) DropDeltas() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < h.n-1; i++ {
		h.buf[(h.head+i)%len(h.buf)] = nil
	}
}
