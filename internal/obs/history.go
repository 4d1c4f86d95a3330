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
	"math"
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

	// Snapshot ring: buf[head] is the oldest of n retained snapshots,
	// and the newest is whole.
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

// retained is one retained snapshot. The ring's newest record holds it
// whole: its schema and its columns' words. Every older record is a
// delta against its successor, the next newer record: the columns only
// one of the two has, as edits at their positions in the union of both
// column lists, then a bitmap of the union's words that differ and the
// XOR of each. A column's words are its value, then a counter's rate or
// a histogram's five extras, compared as bits, so NaN, ±Inf and -0 come
// back exactly. XOR and the edits both invert, so a read walks back from
// the newest record, then forward. Records are immutable: Publish
// replaces the newest with its delta, so a reader holding the pointers
// it copied under the lock reads a consistent ring. Label maps are not
// kept: reads build them. Points built by hand, or whose descriptors or
// kinds differ from the schema, are kept in head as they stand; any
// other edit made to a registry snapshot before Publish is not kept.
type retained struct {
	head  Snapshot // the snapshot without schema, and without Points when it has columns
	sc    *schema  // the newest record's schema
	edits []edit   // a delta's columns that it or its successor lacks
	words []uint64 // the newest record's column words; a delta's bitmap, then its XOR words
}

// edit is one column of a delta's union that only the older snapshot
// (old) or only its successor has.
type edit struct {
	at  int32 // position in the union
	old bool
	d   *desc
}

// width is the number of words a column of kind k holds.
func width(k Kind) int {
	switch k {
	case KindCounter:
		return 2
	case KindHistogram:
		return 6
	}
	return 1
}

func retain(s *Snapshot) *retained {
	r := &retained{head: *s}
	r.head.schema = nil
	if s.Points == nil || !s.schema.matches(s.Points) {
		r.head.Points = slices.Clone(s.Points)
		return r
	}
	r.head.Points, r.sc = nil, s.schema
	r.words = make([]uint64, 0, len(s.Points)+r.sc.counters+5*r.sc.hists)
	for i := range s.Points {
		p := &s.Points[i]
		r.words = append(r.words, math.Float64bits(p.Value))
		switch p.d.kind {
		case KindCounter:
			r.words = append(r.words, math.Float64bits(p.Rate))
		case KindHistogram:
			r.words = append(r.words, p.Count, p.Sum, p.P50, p.P99, p.P999)
		}
	}
	return r
}

// delta returns old, the previous newest record, as a delta against its
// successor next. It merges the two sorted column lists, so a column that
// persists is shared and one that came or went is an edit.
func delta(old, next *retained) *retained {
	var o, n []*desc
	if old.sc != nil {
		o = old.sc.cols
	}
	if next.sc != nil {
		n = next.sc.cols
	}
	bits := make([]uint64, (len(old.words)+len(next.words)+63)/64)
	xor := make([]uint64, 0, len(old.words)+len(next.words))
	var edits []edit
	ow, nw, g := old.words, next.words, 0
	for i, j, u := 0, 0, int32(0); i < len(o) || j < len(n); u++ {
		var d *desc
		inO, inN := true, true
		switch {
		case i < len(o) && j < len(n) && o[i] == n[j]:
			d = o[i]
		case i < len(o) && (j == len(n) || !descLess(n[j], o[i])):
			d, inN = o[i], false
			edits = append(edits, edit{at: u, old: true, d: d})
		default:
			d, inO = n[j], false
			edits = append(edits, edit{at: u, d: d})
		}
		for k := width(d.kind); k > 0; k, g = k-1, g+1 {
			var x uint64
			if inO {
				x, ow = ow[0], ow[1:]
			}
			if inN {
				x, nw = x^nw[0], nw[1:]
			}
			if x != 0 {
				bits[g/64] |= 1 << (g % 64)
				xor = append(xor, x)
			}
		}
		if inO {
			i++
		}
		if inN {
			j++
		}
	}
	bits = bits[:(g+63)/64]
	r := &retained{head: old.head, edits: edits, words: make([]uint64, len(bits)+len(xor))}
	copy(r.words[copy(r.words, bits):], xor)
	return r
}

// frame is one snapshot's columns, their words and their label maps: a
// read's working state as it walks the ring.
type frame struct {
	cols  []*desc
	words []uint64
	maps  []map[string]string
}

// reader builds the snapshots of one read call. With want set they hold
// only the points of those series names, and only T besides. Each label
// set's map is built once and shared by every point of the set the read
// returns.
type reader struct {
	want map[string]bool
	sets map[string]map[string]string // by appendLabelsKey
	buf  []byte
}

// labelMap returns d's label map (nil for a series the read leaves out).
func (rd *reader) labelMap(d *desc) map[string]string {
	if len(d.labels) == 0 || rd.want != nil && !rd.want[d.name] {
		return nil
	}
	if rd.sets == nil {
		rd.sets = make(map[string]map[string]string)
	}
	rd.buf = appendLabelsKey(rd.buf[:0], d.labels)
	m := rd.sets[string(rd.buf)]
	if m == nil {
		m = d.labels.Map()
		rd.sets[string(rd.buf)] = m
	}
	return m
}

// whole returns the frame of the ring's newest record, which it borrows.
func (rd *reader) whole(r *retained) *frame {
	f := &frame{words: r.words}
	if r.sc != nil {
		f.cols = r.sc.cols
		f.maps = make([]map[string]string, len(f.cols))
		for i, d := range f.cols {
			f.maps[i] = rd.labelMap(d)
		}
	}
	return f
}

// step rebuilds into dst, from f, the frame on the other side of delta
// r: the older snapshot's when back is set (f is its successor's), else
// its successor's (f is the older one's).
func (rd *reader) step(dst, f *frame, r *retained, back bool) {
	union := len(f.words)
	for _, e := range r.edits {
		if e.old == back {
			union += width(e.d.kind)
		}
	}
	nb := (union + 63) / 64
	bits, xor := r.words[:nb], r.words[nb:]
	dst.cols, dst.words, dst.maps = dst.cols[:0], dst.words[:0], dst.maps[:0]
	edits, j, w, g := r.edits, 0, f.words, 0
	for u := int32(0); j < len(f.cols) || len(edits) > 0; u++ {
		d, in, out := (*desc)(nil), true, true
		if len(edits) > 0 && edits[0].at == u {
			in, out = edits[0].old != back, edits[0].old == back
			if out {
				d = edits[0].d
			}
			edits = edits[1:]
		}
		var m map[string]string
		if in {
			d, m = f.cols[j], f.maps[j]
			j++
		}
		if out {
			if !in {
				m = rd.labelMap(d)
			}
			dst.cols, dst.maps = append(dst.cols, d), append(dst.maps, m)
		}
		for k := width(d.kind); k > 0; k, g = k-1, g+1 {
			var x uint64
			if in {
				x, w = w[0], w[1:]
			}
			if bits[g/64]&(1<<(g%64)) != 0 {
				x, xor = x^xor[0], xor[1:]
			}
			if out {
				dst.words = append(dst.words, x)
			}
		}
	}
}

// read hands fn the snapshots of the records of recs that keep accepts
// (every record when keep is nil), oldest first, stopping at fn's first
// error. recs runs from the first record to hand out to the ring's
// newest: read walks back from the newest with one working frame, then
// forward, so it holds one snapshot's columns however many it returns.
func (rd *reader) read(recs []*retained, keep func(*retained) bool, fn func(*Snapshot) error) error {
	hi := len(recs) - 1
	for hi >= 0 && keep != nil && !keep(recs[hi]) {
		hi--
	}
	if hi < 0 {
		return nil
	}
	var bufs [2]frame
	f := rd.whole(recs[len(recs)-1])
	for i := len(recs) - 2; i >= 0; i-- {
		rd.step(&bufs[i%2], f, recs[i], true)
		f = &bufs[i%2]
	}
	for i := 0; ; i++ {
		if keep == nil || keep(recs[i]) {
			if err := fn(rd.snapshot(recs[i], f)); err != nil {
				return err
			}
		}
		if i == hi {
			return nil
		}
		rd.step(&bufs[(i+1)%2], f, recs[i], false)
		f = &bufs[(i+1)%2]
	}
}

// snapshot builds r's snapshot from f, its frame.
func (rd *reader) snapshot(r *retained, f *frame) *Snapshot {
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
	if len(f.cols) == 0 {
		return s
	}
	if rd.want == nil {
		s.Points = make([]Point, 0, len(f.cols))
	}
	w := f.words
	for i, d := range f.cols {
		if rd.want == nil || rd.want[d.name] {
			p := Point{Name: d.name, Labels: f.maps[i], Kind: d.kind.String(), Value: math.Float64frombits(w[0]), d: d}
			switch d.kind {
			case KindCounter:
				p.Rate = math.Float64frombits(w[1])
			case KindHistogram:
				p.Count, p.Sum, p.P50, p.P99, p.P999 = w[1], w[2], w[3], w[4], w[5]
			}
			s.Points = append(s.Points, p)
		}
		w = w[width(d.kind):]
	}
	return s
}

// Publish retains one snapshot in the ring, whole, turns the previous
// newest into a delta against it, evicts the oldest past capacity, and
// fans s out to subscribers, which receive s itself.
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
		h.buf[h.head] = nil
		h.head = (h.head + 1) % len(h.buf)
		h.n--
		h.evicted++
	}
	if h.n > 0 {
		i := (h.head + h.n - 1) % len(h.buf)
		h.buf[i] = delta(h.buf[i], rec)
	}
	h.buf[(h.head+h.n)%len(h.buf)] = rec
	h.n++
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
	rd := &reader{}
	return rd.snapshot(rec, rd.whole(rec))
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
	if to <= 0 {
		to = sim.MaxTime
	}
	keep := func(r *retained) bool { return r.head.T >= from && r.head.T <= to }
	h.mu.Lock()
	first := 0
	for first < h.n && !keep(h.buf[(h.head+first)%len(h.buf)]) {
		first++
	}
	recs := h.records(first)
	h.mu.Unlock()
	return (&reader{want: wantSet(series)}).read(recs, keep, fn)
}

// records returns the retained records from the i-th oldest to the
// newest. Caller holds h.mu.
func (h *History) records(i int) []*retained {
	out := make([]*retained, 0, h.n-i)
	for ; i < h.n; i++ {
		out = append(out, h.buf[(h.head+i)%len(h.buf)])
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
	recs := h.records(h.n - k)
	h.mu.Unlock()
	out := make([]*Snapshot, 0, len(recs))
	(&reader{}).read(recs, nil, func(s *Snapshot) error {
		out = append(out, s)
		return nil
	})
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
