package obs

import (
	"bufio"
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// Stage names where a hop happened on a packet's flight.
type Stage uint8

// Flight stages.
const (
	StageIngressVM Stage = iota
	StageCPU
	StageLookup
	StageLocalTx
	StageLocalRx
	StageGWPick
	StageBETx
	StageBERx
	StageFETx
	StageFERx
	StageWire
	StageWireLost
	StageChaosLost
	StageDeliver
	StageDrop
	numStages
)

var stageNames = [numStages]string{
	"ingress-vm", "cpu", "lookup", "local-tx", "local-rx", "gw-pick", "be-tx",
	"be-rx", "fe-tx", "fe-rx", "wire", "wire-lost", "chaos-lost", "deliver", "drop",
}

func (s Stage) String() string { return nameOf(stageNames[:], uint8(s)) }

// HopFlags are a hop's yes/no notes.
type HopFlags uint8

// Hop flags.
const (
	TableHit HopFlags = 1 << iota // the lookup hit the session table
	HasTo                         // To is set (0.0.0.0 is a renderable address)
)

// dropNames[c] renders drop code c; see SetDropNames.
var dropNames []string

// SetDropNames installs the names Hop.String renders drop codes with:
// names[c] is the name of code c. The vSwitch installs its DropReason
// names at package init, before any hop is rendered.
func SetDropNames(names []string) { dropNames = names }

// nameOf returns names[c], or c in decimal past the table's end.
func nameOf(names []string, c uint8) string {
	if int(c) < len(names) {
		return names[c]
	}
	return strconv.Itoa(int(c))
}

// Hop is one stage of a packet's flight: where it was, what it cost,
// and what the lookup decided. It is a fixed-width record with no
// pointers, so recording one builds no string and stores no reference:
// a drop is StageDrop plus its reason's code in Drop, and the next-hop
// note of gw-pick and wire hops is To, flagged HasTo. String renders
// them as "drop:<reason>" and "to=a.b.c.d".
type Hop struct {
	At         sim.Time
	QueueWait  sim.Time
	Cycles     uint64
	Node       packet.IPv4
	To         packet.IPv4
	EncapBytes uint32
	Stage      Stage
	Drop       uint8 // drop reason code, for StageDrop
	Flags      HopFlags
}

func (h Hop) String() string {
	stage := h.Stage.String()
	if h.Stage == StageDrop {
		stage += ":" + nameOf(dropNames, h.Drop)
	}
	s := fmt.Sprintf("[%v] %-12s node=%s", h.At, stage, h.Node)
	if h.QueueWait != 0 {
		s += fmt.Sprintf(" wait=%v", h.QueueWait)
	}
	if h.Cycles != 0 {
		s += fmt.Sprintf(" cycles=%d", h.Cycles)
	}
	if h.Stage == StageLookup {
		if h.Flags&TableHit != 0 {
			s += " hit"
		} else {
			s += " miss"
		}
	}
	if h.EncapBytes != 0 {
		s += fmt.Sprintf(" encap=%dB", h.EncapBytes)
	}
	if h.Flags&HasTo != 0 {
		s += " to=" + h.To.String()
	}
	return s
}

// record is one logged hop of packet id.
type record struct {
	id uint64
	Hop
}

// FlightTracer records sampled per-packet hop sequences. Sampling is
// a deterministic hash of (seed, packet ID), so the same seed and
// rate always trace the same packets, and the running digest over all
// hops is reproducible: the sim loop is single-threaded, so hops
// arrive in a deterministic order for a given seed.
//
// A tracer belongs to the sim goroutine and takes no lock: the hop
// sites, Digest, HopCount and the violation dump all run on the loop.
// Other goroutines read telemetry through obs.History, never here.
//
// Only a tracer built to feed a dump retains hops: in one flat log of
// the last maxHops records, a power-of-two ring that doubles up to
// maxHops and then wraps. Flights are the log grouped by packet ID;
// the oldest may have lost hops to the wrap. Any other tracer keeps
// the digest and the hop count alone.
type FlightTracer struct {
	seed uint64
	rate float64

	digest  uint64
	hops    uint64   // hops recorded; the next one goes to log[hops%len(log)]
	log     []record // grows by doubling to maxHops, then wraps
	maxHops int      // 0: retain nothing
}

// NewFlightTracer samples packets at rate (0..1) keyed on seed,
// retaining the last maxHops hops (rounded up to a power of two) for
// the dump; maxHops <= 0 retains none. Digest and hop count cover
// every hop either way.
func NewFlightTracer(seed int64, rate float64, maxHops int) *FlightTracer {
	t := &FlightTracer{seed: uint64(seed), rate: rate}
	if maxHops > 0 {
		t.maxHops = 1 << bits.Len(uint(maxHops-1))
	}
	return t
}

// Sampled reports whether packet p is traced. Deterministic in
// (seed, p.ID); below rate 1 the verdict is hashed once per packet and
// then served from p's memo, so every hop site can ask.
func (t *FlightTracer) Sampled(p *packet.Packet) bool {
	if t == nil || t.rate <= 0 {
		return false
	}
	if t.rate >= 1 {
		return true
	}
	if s, ok := p.SampleMemo(); ok {
		return s
	}
	s := float64(obsMix(t.seed, p.ID)>>11)/(1<<53) < t.rate // the hash mapped to [0,1)
	p.SetSampleMemo(s)
	return s
}

// Hop records one hop of packet id, which the caller found Sampled:
// the record's words are folded into the running digest and, when the
// tracer retains hops, the record is stored in the log.
func (t *FlightTracer) Hop(id uint64, h Hop) {
	t.digest = foldHop(t.digest, id, &h)
	if t.maxHops > 0 {
		if t.hops == uint64(len(t.log)) && len(t.log) < t.maxHops {
			t.grow()
		}
		t.log[t.hops&uint64(len(t.log)-1)] = record{id, h}
	}
	t.hops++
}

// grow doubles the log, from 16 records at the first hop, so a tracer
// that never records allocates none. It runs only before the first
// wrap, when the records sit in order at the front.
func (t *FlightTracer) grow() {
	log := make([]record, min(max(2*len(t.log), 16), t.maxHops))
	copy(log, t.log)
	t.log = log
}

// retained returns the retained records, oldest first.
func (t *FlightTracer) retained() []record {
	if len(t.log) == 0 {
		return nil
	}
	if t.hops <= uint64(len(t.log)) {
		return t.log[:t.hops]
	}
	i := t.hops & uint64(len(t.log)-1)
	return append(append([]record(nil), t.log[i:]...), t.log[:i]...)
}

// Digest returns the running digest over every hop recorded so far.
// Same seed + same rate + same workload => same digest.
func (t *FlightTracer) Digest() uint64 { return t.digest }

// HopCount returns the total hops recorded (including evicted ones).
func (t *FlightTracer) HopCount() uint64 { return t.hops }

// writeFlights dumps every retained flight in first-retained-hop
// order. w's first write error sticks; the caller's Flush returns it.
func (t *FlightTracer) writeFlights(w *bufio.Writer) {
	var ids []uint64
	flights := make(map[uint64][]Hop)
	for _, r := range t.retained() {
		if _, ok := flights[r.id]; !ok {
			ids = append(ids, r.id)
		}
		flights[r.id] = append(flights[r.id], r.Hop)
	}
	fmt.Fprintf(w, "== flights (%d retained, %d hops total, rate=%g) ==\n", len(ids), t.hops, t.rate)
	for _, id := range ids {
		fmt.Fprintf(w, "flight id=%d hops=%d\n", id, len(flights[id]))
		for _, h := range flights[id] {
			fmt.Fprintf(w, "  %s\n", h)
		}
	}
}

// Span is one control-plane transaction: an offload, scale-out,
// rollback or similar, from first prepare to final outcome.
type Span struct {
	Kind    string      `json:"kind"`
	VNIC    uint32      `json:"vnic"`
	Epoch   uint64      `json:"epoch"`
	Start   sim.Time    `json:"start"`
	End     sim.Time    `json:"end"`
	Outcome string      `json:"outcome"` // commit | abort | rollback | ...
	Node    packet.IPv4 `json:"node,omitempty"`
}

func (s Span) String() string {
	return fmt.Sprintf("span kind=%-9s vnic=%d epoch=%d start=%v end=%v took=%v outcome=%s",
		s.Kind, s.VNIC, s.Epoch, s.Start, s.End, s.End-s.Start, s.Outcome)
}

// maxSpans is how many completed spans an Obs bundle's SpanLog keeps.
const maxSpans = 256

// SpanLog tracks in-flight and completed control-plane transaction
// spans, bounded to the most recent maxDone completed spans.
type SpanLog struct {
	mu      sync.Mutex
	active  map[spanKey]Span
	done    []Span
	maxDone int
}

// spanKey identifies an open span.
type spanKey struct {
	kind  string
	vnic  uint32
	epoch uint64
}

// NewSpanLog builds a span log keeping the last maxDone completed
// spans.
func NewSpanLog(maxDone int) *SpanLog {
	return &SpanLog{active: make(map[spanKey]Span), maxDone: maxDone}
}

// Begin opens a span. Re-beginning an open span restarts it.
func (l *SpanLog) Begin(kind string, vnic uint32, epoch uint64, at sim.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.active[spanKey{kind, vnic, epoch}] = Span{Kind: kind, VNIC: vnic, Epoch: epoch, Start: at}
}

// End closes a span with an outcome. Ending a span that was never
// begun records a zero-start span (still useful in dumps).
func (l *SpanLog) End(kind string, vnic uint32, epoch uint64, at sim.Time, outcome string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	key := spanKey{kind, vnic, epoch}
	s, ok := l.active[key]
	if !ok {
		s = Span{Kind: kind, VNIC: vnic, Epoch: epoch, Start: at}
	}
	delete(l.active, key)
	s.End = at
	s.Outcome = outcome
	if len(l.done) >= l.maxDone {
		l.done = l.done[1:]
	}
	l.done = append(l.done, s)
}

// Completed returns completed spans, oldest first.
func (l *SpanLog) Completed() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.done...)
}

// ActiveCount returns the number of open spans.
func (l *SpanLog) ActiveCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.active)
}

// obsMix is a splitmix64-style stateless mixer: a deterministic hash
// over the words, used to derive sampling verdicts from (seed, id)
// without consuming RNG state (the same construction the chaos
// engine uses for fault verdicts).
func obsMix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// foldHop folds hop h of packet id into digest d, six words per hop:
// each word is xored in, multiplied by the FNV prime and rotated, so
// a word's high bits reach the low bits of the words after it. Each
// step is a bijection of the running state, so changing any one bit of
// any field changes the digest after the hop. A zero digest (no hops
// yet) starts from the FNV offset basis.
func foldHop(d, id uint64, h *Hop) uint64 {
	if d == 0 {
		d = fnvOffset64
	}
	d = foldWord(d, id)
	d = foldWord(d, uint64(h.At))
	d = foldWord(d, uint64(h.QueueWait))
	d = foldWord(d, h.Cycles)
	d = foldWord(d, uint64(h.Node)|uint64(h.To)<<32)
	return foldWord(d, uint64(h.EncapBytes)|uint64(h.Stage)<<32|uint64(h.Drop)<<40|uint64(h.Flags)<<48)
}

func foldWord(d, w uint64) uint64 {
	return bits.RotateLeft64((d^w)*fnvPrime64, 29)
}
