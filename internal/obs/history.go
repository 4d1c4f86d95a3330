package obs

// history.go is the retention layer behind the live ops surface
// (internal/opsapi): a fixed-capacity ring of sim-time-indexed
// registry snapshots plus bounded side stores for recent policy
// decision lines, completed transaction spans, chaos invariant
// events, and the latest pprof-encoded attribution profile.
//
// Everything is written from the sim goroutine by a Publisher and
// read from HTTP handler goroutines under the History mutex, so the
// ops service never touches loop-owned state: the HTTP side sees only
// immutable retained values, snapshots built from them, and copies of
// the side stores. The
// Publisher attaches as a sim.Loop observer — it schedules no events,
// draws no randomness, and mutates no component state — which is what
// makes an attached scraper + streamer provably observer-effect-free
// (the digest-equality tests in internal/opsapi pin this).

import (
	"slices"
	"sync"

	"nezha/internal/sim"
)

// InvariantEvent is one chaos invariant violation as retained for the
// ops surface (the error flattened to a string so it serializes).
type InvariantEvent struct {
	At        sim.Time `json:"at"`
	Invariant string   `json:"invariant"`
	Err       string   `json:"err"`
}

// HistoryOptions sizes the rings. Zero values select defaults.
type HistoryOptions struct {
	// Snapshots is the ring capacity in retained snapshots (default
	// 512 — at one snapshot per virtual second, ~8.5 virtual minutes
	// of scrollback).
	Snapshots int
	// PolicyLines bounds the retained policy decision-log tail
	// (default 1024 lines).
	PolicyLines int
	// Invariants bounds retained invariant events (default 256).
	Invariants int
	// Spans bounds retained completed transaction spans (default 256).
	Spans int
}

func (o *HistoryOptions) defaults() {
	if o.Snapshots <= 0 {
		o.Snapshots = 512
	}
	if o.PolicyLines <= 0 {
		o.PolicyLines = 1024
	}
	if o.Invariants <= 0 {
		o.Invariants = 256
	}
	if o.Spans <= 0 {
		o.Spans = 256
	}
}

// History is the ring-buffer telemetry store. All methods are safe
// for concurrent use; writers run on the sim goroutine, readers on
// HTTP handler goroutines.
type History struct {
	mu  sync.Mutex
	opt HistoryOptions

	// Snapshot ring: buf[head] is the oldest of n retained snapshots.
	buf  []*retained
	head int
	n    int

	published uint64 // total snapshots ever published
	evicted   uint64 // snapshots pushed out of the ring

	policy []string
	invs   []InvariantEvent
	spans  []Span

	profT     sim.Time
	profBytes []byte

	report any // campaign/scenario report, set by the host

	subs       map[uint64]chan *Snapshot
	subID      uint64
	subDropped uint64
}

// NewHistory builds an empty store.
func NewHistory(opt HistoryOptions) *History {
	opt.defaults()
	return &History{
		opt:  opt,
		buf:  make([]*retained, opt.Snapshots),
		subs: make(map[uint64]chan *Snapshot),
	}
}

// retained is one retained snapshot: its values column by column against
// a schema that consecutive snapshots share, and everything else the
// snapshot held. A column costs its value, 8 bytes, and its 8-byte
// pointer in a schema that snapshots share; a counter adds its rate and
// a histogram its 40 bytes of extras. Label maps are not kept: reads
// build them. Points built by hand, or whose descriptors or kinds differ
// from the schema, are kept in head as they stand; any other edit made
// to a registry snapshot before Publish is not kept.
type retained struct {
	head   Snapshot // the snapshot without schema, and without Points when sc is set
	sc     *schema
	values []float64
	rates  []float64    // one per counter column, in column order
	hist   []histExtras // one per histogram column, in column order
}

type histExtras struct{ count, sum, p50, p99, p999 uint64 }

func retain(s *Snapshot) *retained {
	r := &retained{head: *s}
	r.head.schema = nil
	if s.Points == nil || !s.schema.matches(s.Points) {
		r.head.Points = slices.Clone(s.Points)
		return r
	}
	r.head.Points, r.sc = nil, s.schema
	n := len(s.Points)
	vals := make([]float64, n+r.sc.counters)
	r.values, r.rates = vals[:n:n], vals[n:n]
	if r.sc.hists > 0 {
		r.hist = make([]histExtras, 0, r.sc.hists)
	}
	for i, d := range r.sc.cols {
		p := &s.Points[i]
		r.values[i] = p.Value
		switch d.kind {
		case KindCounter:
			r.rates = append(r.rates, p.Rate)
		case KindHistogram:
			r.hist = append(r.hist, histExtras{p.Count, p.Sum, p.P50, p.P99, p.P999})
		}
	}
	return r
}

// reader builds the snapshots of one read call. With want set they hold
// only the points of those series names, and only T besides. Each label
// set's map is built once and shared by every point of the set the read
// returns.
type reader struct {
	want map[string]bool
	sets map[string]map[string]string // by appendLabelsKey
	cols map[*schema][]map[string]string
	buf  []byte
}

// labelMaps returns the label map of each of sc's columns.
func (rd *reader) labelMaps(sc *schema) []map[string]string {
	if maps, ok := rd.cols[sc]; ok {
		return maps
	}
	if rd.cols == nil {
		rd.sets, rd.cols = make(map[string]map[string]string), make(map[*schema][]map[string]string)
	}
	maps := make([]map[string]string, len(sc.cols))
	for i, d := range sc.cols {
		if len(d.labels) == 0 || rd.want != nil && !rd.want[d.name] {
			continue
		}
		rd.buf = appendLabelsKey(rd.buf[:0], d.labels)
		m := rd.sets[string(rd.buf)]
		if m == nil {
			m = d.labels.Map()
			rd.sets[string(rd.buf)] = m
		}
		maps[i] = m
	}
	rd.cols[sc] = maps
	return maps
}

// snapshot builds the retained snapshot.
func (r *retained) snapshot(rd *reader) *Snapshot {
	s := &Snapshot{T: r.head.T}
	if rd.want == nil {
		*s = r.head
		s.Points = slices.Clone(r.head.Points)
	} else {
		for _, p := range r.head.Points {
			if rd.want[p.Name] {
				s.Points = append(s.Points, p)
			}
		}
	}
	if r.sc == nil {
		return s
	}
	if rd.want == nil {
		s.Points = make([]Point, 0, len(r.sc.cols))
	}
	maps := rd.labelMaps(r.sc)
	rates, hist := r.rates, r.hist
	for i, d := range r.sc.cols {
		p := Point{Name: d.name, Labels: maps[i], Kind: d.kind.String(), Value: r.values[i], d: d}
		switch d.kind {
		case KindCounter:
			p.Rate, rates = rates[0], rates[1:]
		case KindHistogram:
			x := &hist[0]
			p.Count, p.Sum, p.P50, p.P99, p.P999 = x.count, x.sum, x.p50, x.p99, x.p999
			hist = hist[1:]
		}
		if rd.want == nil || rd.want[d.name] {
			s.Points = append(s.Points, p)
		}
	}
	return s
}

// Publish retains one snapshot in the ring (evicting the oldest past
// capacity) and fans it out to subscribers, which receive s itself.
// Slow subscribers never block the sim goroutine: a full subscriber
// channel drops the event and bumps the drop counter instead.
func (h *History) Publish(s *Snapshot) {
	if h == nil || s == nil {
		return
	}
	rec := retain(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == len(h.buf) {
		h.buf[h.head] = rec
		h.head = (h.head + 1) % len(h.buf)
		h.evicted++
	} else {
		h.buf[(h.head+h.n)%len(h.buf)] = rec
		h.n++
	}
	h.published++
	for _, ch := range h.subs {
		select {
		case ch <- s:
		default:
			h.subDropped++
		}
	}
}

// Latest returns a copy of the most recent snapshot (nil before the
// first publish).
func (h *History) Latest() *Snapshot {
	h.mu.Lock()
	if h.n == 0 {
		h.mu.Unlock()
		return nil
	}
	rec := h.buf[(h.head+h.n-1)%len(h.buf)]
	h.mu.Unlock()
	return rec.snapshot(&reader{})
}

// Len reports how many snapshots the ring currently retains.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Published and Evicted report lifetime totals (published includes
// evicted).
func (h *History) Published() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published
}

func (h *History) Evicted() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.evicted
}

// Query returns copies of the retained snapshots with from <= T <= to
// in chronological order. to <= 0 means "no upper bound". When series
// names are given, each copy holds only the points whose name is in the
// set, and nothing else but T.
func (h *History) Query(from, to sim.Time, series []string) []*Snapshot {
	out := []*Snapshot{}
	h.Scan(from, to, series, func(s *Snapshot) error {
		out = append(out, s)
		return nil
	})
	return out
}

// Scan is Query one snapshot at a time: it hands fn each copy in turn,
// building the next only after fn returns, and stops at fn's first
// error.
func (h *History) Scan(from, to sim.Time, series []string, fn func(*Snapshot) error) error {
	rd := &reader{want: wantSet(series)}
	for _, rec := range h.window(from, to) {
		if err := fn(rec.snapshot(rd)); err != nil {
			return err
		}
	}
	return nil
}

// window returns the retained snapshots with from <= T <= to, oldest
// first.
func (h *History) window(from, to sim.Time) []*retained {
	if to <= 0 {
		to = sim.MaxTime
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*retained, 0, h.n)
	for i := 0; i < h.n; i++ {
		rec := h.buf[(h.head+i)%len(h.buf)]
		if rec.head.T >= from && rec.head.T <= to {
			out = append(out, rec)
		}
	}
	return out
}

func wantSet(series []string) map[string]bool {
	if len(series) == 0 {
		return nil
	}
	want := make(map[string]bool, len(series))
	for _, name := range series {
		want[name] = true
	}
	return want
}

// Tail returns copies of the most recent k snapshots in chronological
// order.
func (h *History) Tail(k int) []*Snapshot {
	h.mu.Lock()
	if k <= 0 || k > h.n {
		k = h.n
	}
	recs := make([]*retained, 0, k)
	for i := h.n - k; i < h.n; i++ {
		recs = append(recs, h.buf[(h.head+i)%len(h.buf)])
	}
	h.mu.Unlock()
	out := make([]*Snapshot, len(recs))
	rd := &reader{}
	for i, rec := range recs {
		out[i] = rec.snapshot(rd)
	}
	return out
}

// Subscribe registers a live feed of published snapshots with the
// given channel buffer (default 64 when <= 0). The returned cancel
// func unregisters and closes the channel; it is safe to call more
// than once.
func (h *History) Subscribe(buf int) (<-chan *Snapshot, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan *Snapshot, buf)
	h.mu.Lock()
	id := h.subID
	h.subID++
	h.subs[id] = ch
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, id)
			h.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// Subscribers reports the number of live subscriptions.
func (h *History) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// SetPolicyLog replaces the retained policy decision-log tail
// (bounded to HistoryOptions.PolicyLines most recent lines).
func (h *History) SetPolicyLog(lines []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(lines) > h.opt.PolicyLines {
		lines = lines[len(lines)-h.opt.PolicyLines:]
	}
	h.policy = append(h.policy[:0], lines...)
}

// PolicyLog returns a copy of the retained decision-log tail.
func (h *History) PolicyLog() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.policy...)
}

// AddInvariant records one invariant violation (FIFO-bounded).
func (h *History) AddInvariant(ev InvariantEvent) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.invs) >= h.opt.Invariants {
		h.invs = h.invs[1:]
	}
	h.invs = append(h.invs, ev)
}

// Invariants returns a copy of retained invariant events.
func (h *History) Invariants() []InvariantEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]InvariantEvent(nil), h.invs...)
}

// SetSpans replaces the retained completed-span tail (bounded to
// HistoryOptions.Spans most recent).
func (h *History) SetSpans(spans []Span) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(spans) > h.opt.Spans {
		spans = spans[len(spans)-h.opt.Spans:]
	}
	h.spans = append(h.spans[:0], spans...)
}

// Spans returns a copy of the retained completed transaction spans.
func (h *History) Spans() []Span {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Span(nil), h.spans...)
}

// SetProf stores the latest pprof-encoded attribution profile.
func (h *History) SetProf(at sim.Time, b []byte) {
	if len(b) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.profT, h.profBytes = at, b
}

// Prof returns the latest stored profile and its capture time (nil
// when none captured).
func (h *History) Prof() ([]byte, sim.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.profBytes, h.profT
}

// SetChaosReport stores a JSON-serializable campaign/scenario report.
func (h *History) SetChaosReport(v any) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.report = v
}

// ChaosReport returns the stored report (nil when none set).
func (h *History) ChaosReport() any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.report
}

// Publisher feeds a History from the sim goroutine: one snapshot per
// Every of virtual time, plus the aux stores (spans, policy log,
// attribution profile). Attach registers it as a loop observer —
// observers run after events but schedule none, so an attached
// publisher leaves the event stream, the RNG, and every digest
// bit-identical to an unattached run.
type Publisher struct {
	Obs  *Obs
	Hist *History
	// Every is the virtual publish period (default 1 s).
	Every sim.Time
	// TopK is the flow-table depth attached to each snapshot (default 10).
	TopK int
	// SpanTail bounds the completed spans embedded in each published
	// snapshot (default 12; the full tail still lands in the History).
	SpanTail int
	// ProfFn, when set, captures the current pprof-encoded attribution
	// profile at each publish (stored via History.SetProf). The closure
	// runs on the sim goroutine, where profiler draining is owned.
	ProfFn func(now sim.Time) []byte
	// PolicyLogFn, when set, snapshots the policy decision log at each
	// publish.
	PolicyLogFn func() []string
	// OnSnap, when set, receives every published snapshot (e.g. a JSONL
	// writer sharing the publisher's snapshots).
	OnSnap func(*Snapshot)

	next sim.Time
}

// Attach registers the publisher on the loop. The first snapshot
// publishes at the first event on or after one period from now.
func (p *Publisher) Attach(loop *sim.Loop) {
	if p.Every <= 0 {
		p.Every = sim.Second
	}
	p.next = loop.Now() + p.Every
	loop.Observe(func(now sim.Time) {
		if now < p.next {
			return
		}
		p.PublishNow(now)
		for p.next <= now {
			p.next += p.Every
		}
	})
}

// PublishNow snapshots the registry and publishes immediately.
func (p *Publisher) PublishNow(now sim.Time) {
	topK := p.TopK
	if topK <= 0 {
		topK = 10
	}
	p.PublishSnap(now, p.Obs.Snap(now, topK))
}

// PublishSnap publishes an already-taken snapshot (hosts that snapshot
// on their own cadence — nezha-sim's per-second tick — share it here
// so the registry's rate windows advance exactly once per interval).
func (p *Publisher) PublishSnap(now sim.Time, snap *Snapshot) {
	tail := p.SpanTail
	if tail <= 0 {
		tail = 12
	}
	if p.Obs.Spans != nil {
		done := p.Obs.Spans.Completed()
		p.Hist.SetSpans(done)
		// Copy the tail: a subslice would keep every completed span
		// alive for as long as the snapshot is retained.
		if n := min(len(done), tail); n > 0 {
			snap.Spans = make([]Span, n)
			copy(snap.Spans, done[len(done)-n:])
		}
	}
	if p.PolicyLogFn != nil {
		p.Hist.SetPolicyLog(p.PolicyLogFn())
	}
	if p.ProfFn != nil {
		if b := p.ProfFn(now); len(b) > 0 {
			p.Hist.SetProf(now, b)
		}
	}
	p.Hist.Publish(snap)
	if p.OnSnap != nil {
		p.OnSnap(snap)
	}
}
