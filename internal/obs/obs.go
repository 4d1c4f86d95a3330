package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

// Obs bundles the observability layer handed to every component: the
// labeled registry, the sampled flight tracer, the transaction span
// log, the flight-recorder ring, and a top-K flow table fed from
// sampled deliveries.
type Obs struct {
	Reg    *Registry
	Tracer *FlightTracer
	Spans  *SpanLog
	Rec    *FlightRecorder
	Flows  *FlowTop

	// SLO, when set by AttachSLO, is the latency/hot-flow tracker whose
	// view Snap embeds in every snapshot.
	SLO *slo.Tracker
}

// Options tunes an Obs bundle. The flight tracer and the flight
// recorder retain hops and events only for a bundle that asks, because
// only WriteDump reads them; by default a hop costs its digest fold and
// an event nothing.
type Options struct {
	Seed       int64   // trace-sampling seed (usually the campaign seed)
	SampleRate float64 // fraction of packets flight-traced (0 disables)
	MaxHops    int     // flight-trace hops retained for WriteDump (0: none)
	RingSize   int     // flight-recorder events retained for WriteDump (0: none)
}

// New builds an Obs bundle.
func New(opts Options) *Obs {
	return &Obs{
		Reg:    NewRegistry(),
		Tracer: NewFlightTracer(opts.Seed, opts.SampleRate, opts.MaxHops),
		Spans:  NewSpanLog(maxSpans),
		Rec:    NewFlightRecorder(opts.RingSize),
		Flows:  NewFlowTop(),
	}
}

// Event records a flight-recorder event, formatting it only when the
// recorder retains events. Safe on a nil *Obs.
func (o *Obs) Event(at sim.Time, kind string, node packet.IPv4, vnic uint32, format string, args ...any) {
	if o == nil || !o.Rec.retains() {
		return
	}
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	o.Rec.Add(Event{At: at, Kind: kind, Node: node, VNIC: vnic, Msg: msg})
}

// AttachSLO wires a latency/hot-flow SLO tracker into the bundle:
// Snap embeds its view in every snapshot, and per-vNIC slo_* series
// (dynamic label sets — one row per tracked vNIC) are exported at
// snapshot time by the tracker's table, so the record path is
// untouched.
func (o *Obs) AttachSLO(t *slo.Tracker) {
	o.SLO = t
	if t != nil {
		Register(o.Reg, t, nil, &sloTable)
	}
}

var sloTable = Table[slo.Tracker]{
	Series: []Series[slo.Tracker]{
		{Name: "slo_packets_total", Help: "Packets accounted by the SLO ledger (deliveries + drops), per vNIC."},
		{Name: "slo_violations_total", Help: "SLO violations (deliveries over the latency objective, plus all drops), per vNIC."},
		{Name: "slo_drops_total", Help: "Drops accounted as SLO violations, per vNIC."},
		{Name: "slo_p99_ns", Help: "Cumulative p99 end-to-end delivery latency per vNIC, nanoseconds (log-linear bucket upper edge)."},
		{Name: "slo_burn", Help: "Error-budget burn rate over the last closed window per vNIC (1.0 = exactly on budget)."},
		{Name: "slo_burn_events_total", Help: "Burn windows closed at or above the burn threshold, all vNICs.", Kind: KindCounter,
			Value: func(t *slo.Tracker) float64 { return float64(t.BurnEvents()) }},
		{Name: "slo_objective_ns", Help: "Configured per-vNIC latency objective, nanoseconds.", Kind: KindGauge,
			Value: func(t *slo.Tracker) float64 { return float64(t.Objective()) }},
	},
	Collect: func(t *slo.Tracker, emit Emit) {
		for _, vnic := range t.VNICs() {
			total, viol, drops, p99, burn := t.VNICStats(vnic)
			lbl := L("vnic", strconv.FormatUint(uint64(vnic), 10))
			emit("slo_packets_total", lbl, KindCounter, float64(total))
			emit("slo_violations_total", lbl, KindCounter, float64(viol))
			emit("slo_drops_total", lbl, KindCounter, float64(drops))
			emit("slo_p99_ns", lbl, KindGauge, float64(p99))
			emit("slo_burn", lbl, KindGauge, burn)
		}
	},
}

// Snap takes a registry snapshot at now and attaches the current
// top-K flows plus, when a tracker is attached, the SLO view.
func (o *Obs) Snap(now sim.Time, topK int) *Snapshot {
	s := o.Reg.Snapshot(now)
	s.Flows = o.Flows.Top(topK)
	if o.SLO != nil {
		s.SLO = o.SLO.View()
	}
	return s
}

// WriteJSONLine writes the snapshot as one JSON line (the JSONL
// stream format nezha-top consumes).
func (s *Snapshot) WriteJSONLine(w io.Writer) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteDump writes a self-contained diagnostic dump: a meta line,
// completed transaction spans, the flight-recorder ring, and every
// retained sampled flight. The chaos engine calls this at the moment
// an invariant violation is recorded, so the ring holds the events
// leading up to the failure.
func (o *Obs) WriteDump(w io.Writer, meta string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nezha flight-recorder dump\n%s\n", meta)
	spans := o.Spans.Completed()
	fmt.Fprintf(bw, "== spans (%d completed, %d active) ==\n", len(spans), o.Spans.ActiveCount())
	for _, s := range spans {
		fmt.Fprintf(bw, "%s\n", s)
	}
	o.Rec.writeEvents(bw)
	o.Tracer.writeFlights(bw)
	return bw.Flush()
}

// FlowStat is one flow's delivered-packet count in a snapshot.
type FlowStat struct {
	Flow    string `json:"flow"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
}

// maxFlows bounds a FlowTop's distinct flows.
const maxFlows = 1024

// FlowTop counts delivered packets per five-tuple for sampled
// packets, bounded to maxFlows distinct flows (new flows beyond the
// cap are dropped; sampling keeps the table small anyway).
type FlowTop struct {
	mu     sync.Mutex
	counts map[packet.FiveTuple]flowCount
	// rows and text are Top's scratch, reused across calls: the flows
	// it ranks and their rendered five-tuples.
	rows []flowRow
	text []byte
}

type flowCount struct {
	packets uint64
	bytes   uint64
}

// flowRow is one flow as Top ranks it; text[off:end] is its rendering.
type flowRow struct {
	ft       packet.FiveTuple
	c        flowCount
	off, end int
}

// NewFlowTop builds a flow table of at most maxFlows flows.
func NewFlowTop() *FlowTop {
	return &FlowTop{counts: make(map[packet.FiveTuple]flowCount)}
}

// Observe charges one delivered packet to its flow.
func (f *FlowTop) Observe(ft packet.FiveTuple, bytes int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	c, ok := f.counts[ft]
	if ok || len(f.counts) < maxFlows {
		c.packets++
		c.bytes += uint64(bytes)
		f.counts[ft] = c
	}
	f.mu.Unlock()
}

// Top returns the k busiest flows by packet count (ties broken by
// flow string for determinism); k <= 0 returns every flow. The result
// is exactly sized. Only flows at or above the k-th count are rendered,
// into one reused buffer for the string tie-break, and only the k
// returned get a string of their own.
func (f *FlowTop) Top(k int) []FlowStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := f.rows[:0]
	for ft, c := range f.counts {
		rows = append(rows, flowRow{ft: ft, c: c})
	}
	f.rows = rows
	if k <= 0 || k > len(rows) {
		k = len(rows)
	}
	slices.SortFunc(rows, func(a, b flowRow) int { return cmp.Compare(b.c.packets, a.c.packets) })
	n := k
	for n < len(rows) && rows[n].c.packets == rows[k-1].c.packets {
		n++
	}
	rows = rows[:n]
	text := f.text[:0]
	for i := range rows {
		rows[i].off = len(text)
		text = rows[i].ft.AppendTo(text)
		rows[i].end = len(text)
	}
	f.text = text
	slices.SortFunc(rows, func(a, b flowRow) int {
		if c := cmp.Compare(b.c.packets, a.c.packets); c != 0 {
			return c
		}
		return bytes.Compare(text[a.off:a.end], text[b.off:b.end])
	})
	out := make([]FlowStat, k)
	for i := range out {
		r := &rows[i]
		out[i] = FlowStat{Flow: string(text[r.off:r.end]), Packets: r.c.packets, Bytes: r.c.bytes}
	}
	return out
}
