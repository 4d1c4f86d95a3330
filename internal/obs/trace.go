package obs

import (
	"fmt"
	"io"
	"sync"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// Hop is one stage of a packet's flight: where it was, what it cost,
// and what the lookup decided. Stages seen in practice: ingress-vm,
// cpu, lookup, local-tx, local-rx, gw-pick, be-tx, be-rx, fe-tx,
// fe-rx, wire, wire-lost, chaos-lost, deliver, and drop:<reason>.
//
// The two variable parts of a hop stay typed so recording one builds no
// string: a drop is Stage "drop" plus its reason in Drop, and the
// next-hop note of gw-pick and wire hops is To (with HasTo, since
// 0.0.0.0 is a renderable address). String renders them as
// "drop:<reason>" and "to=a.b.c.d"; the digest folds exactly those
// bytes.
type Hop struct {
	At         sim.Time
	Node       packet.IPv4
	Stage      string
	Drop       string
	QueueWait  sim.Time
	Cycles     uint64
	TableHit   bool
	EncapBytes int
	HasTo      bool
	To         packet.IPv4
}

func (h Hop) String() string {
	stage := h.Stage
	if h.Drop != "" {
		stage += ":" + h.Drop
	}
	s := fmt.Sprintf("[%v] %-12s node=%s", h.At, stage, h.Node)
	if h.QueueWait != 0 {
		s += fmt.Sprintf(" wait=%v", h.QueueWait)
	}
	if h.Cycles != 0 {
		s += fmt.Sprintf(" cycles=%d", h.Cycles)
	}
	if h.Stage == "lookup" {
		if h.TableHit {
			s += " hit"
		} else {
			s += " miss"
		}
	}
	if h.EncapBytes != 0 {
		s += fmt.Sprintf(" encap=%dB", h.EncapBytes)
	}
	if h.HasTo {
		s += " to=" + h.To.String()
	}
	return s
}

// flightHopsHint is a new ring slot's hop capacity: an offloaded
// packet's full flight (BE, FE and peer stages plus three wire hops)
// fits, so slots rarely regrow.
const flightHopsHint = 16

// flight is one ring slot: a sampled packet's retained hop sequence.
// An evicted slot keeps its hop capacity for the flight that replaces
// it.
type flight struct {
	id   uint64
	hops []Hop
}

// FlightTracer records sampled per-packet hop sequences. Sampling is
// a deterministic hash of (seed, packet ID), so the same seed and
// rate always trace the same packets, and the running digest over all
// hops is reproducible: the sim loop is single-threaded, so hops
// arrive in a deterministic order for a given seed.
//
// A tracer belongs to the sim goroutine and takes no lock: every
// method — Hop from the vSwitch and fabric hop sites, Digest at
// campaign end, the dump an invariant violation writes, HopCount —
// runs on the loop that records the hops. Telemetry other goroutines
// read goes through obs.History, never through the tracer.
//
// Retained flights live in a ring of at most maxFlights slots in
// first-hop order, so once the ring is full and its slots have grown to
// the longest flight seen, recording a hop allocates nothing.
type FlightTracer struct {
	seed uint64
	rate float64

	digest     uint64
	hops       uint64
	ring       []flight         // grows to maxFlights, then wraps
	head       int              // oldest slot once the ring is full
	slot       map[uint64]int32 // retained flight ID → ring index
	maxFlights int
}

// NewFlightTracer samples packets at rate (0..1) keyed on seed,
// retaining at most maxFlights full hop sequences (digest and hop
// count keep accumulating past the cap; old flights are evicted
// FIFO). maxFlights <= 0 selects a default of 512.
func NewFlightTracer(seed int64, rate float64, maxFlights int) *FlightTracer {
	if maxFlights <= 0 {
		maxFlights = 512
	}
	return &FlightTracer{
		seed:       uint64(seed),
		rate:       rate,
		slot:       make(map[uint64]int32),
		maxFlights: maxFlights,
	}
}

// Sampled reports whether packet id is traced. Deterministic in
// (seed, id); cheap enough to call on every packet.
func (t *FlightTracer) Sampled(id uint64) bool {
	if t == nil || t.rate <= 0 {
		return false
	}
	if t.rate >= 1 {
		return true
	}
	return hashFloat(obsMix(t.seed, id)) < t.rate
}

// Hop records one hop for packet id if it is sampled. Every field is
// folded into the running digest in call order.
func (t *FlightTracer) Hop(id uint64, h Hop) {
	if !t.Sampled(id) {
		return
	}
	t.hops++
	d := foldFNV(t.digest, id, uint64(h.At), uint64(h.Node), uint64(h.QueueWait),
		h.Cycles, uint64(h.EncapBytes), boolWord(h.TableHit))
	d = foldFNVBytes(d, h.Stage)
	if h.Drop != "" {
		d = foldFNVBytes(foldFNVBytes(d, ":"), h.Drop)
	}
	if h.HasTo {
		var buf [len("to=255.255.255.255")]byte
		d = foldFNVBytes(d, h.To.AppendTo(append(buf[:0], "to="...)))
	}
	t.digest = d
	i, ok := t.slot[id]
	if !ok {
		if len(t.ring) < t.maxFlights {
			i = int32(len(t.ring))
			t.ring = append(t.ring, flight{hops: make([]Hop, 0, flightHopsHint)})
		} else {
			i = int32(t.head)
			t.head = (t.head + 1) % len(t.ring)
			delete(t.slot, t.ring[i].id)
		}
		t.slot[id] = i
		t.ring[i].id, t.ring[i].hops = id, t.ring[i].hops[:0]
	}
	t.ring[i].hops = append(t.ring[i].hops, h)
}

// Trace returns the retained hop sequence for packet id (nil if not
// sampled or evicted).
func (t *FlightTracer) Trace(id uint64) []Hop {
	i, ok := t.slot[id]
	if !ok {
		return nil
	}
	return append([]Hop(nil), t.ring[i].hops...)
}

// Digest returns the running FNV digest over every hop recorded so
// far. Same seed + same rate + same workload => same digest.
func (t *FlightTracer) Digest() uint64 { return t.digest }

// HopCount returns the total hops recorded (including for evicted
// flights).
func (t *FlightTracer) HopCount() uint64 { return t.hops }

// Rate returns the configured sampling rate.
func (t *FlightTracer) Rate() float64 { return t.rate }

// writeFlights dumps every retained flight, oldest first.
func (t *FlightTracer) writeFlights(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== flights (%d retained, %d hops total, rate=%g) ==\n",
		len(t.ring), t.hops, t.rate); err != nil {
		return err
	}
	for k := range t.ring {
		fl := &t.ring[(t.head+k)%len(t.ring)]
		if _, err := fmt.Fprintf(w, "flight id=%d hops=%d\n", fl.id, len(fl.hops)); err != nil {
			return err
		}
		for _, h := range fl.hops {
			if _, err := fmt.Fprintf(w, "  %s\n", h); err != nil {
				return err
			}
		}
	}
	return nil
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
// spans (default 256 when <= 0).
func NewSpanLog(maxDone int) *SpanLog {
	if maxDone <= 0 {
		maxDone = 256
	}
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

// hashFloat maps a hash to [0,1).
func hashFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k mod 2^64: what folding k zero bytes
// multiplies a digest by.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// foldFNV folds words into an FNV-1a style running digest, each word
// as its eight little-endian bytes. Folding a zero byte is just
// h *= prime, and multiplication mod 2^64 associates, so a word's k
// high zero bytes fold as one multiply by prime^k: the result is bit
// for bit the byte-serial fold's, at a fraction of its multiplies for
// the small times, addresses and counts a hop carries.
func foldFNV(h uint64, words ...uint64) uint64 {
	if h == 0 {
		h = fnvOffset64
	}
	for _, w := range words {
		k := 8
		for ; w != 0; w >>= 8 {
			h ^= w & 0xff
			h *= fnvPrime64
			k--
		}
		h *= fnvPrimePow[k]
	}
	return h
}

// foldFNVBytes folds the bytes of s into the digest.
func foldFNVBytes[T string | []byte](h uint64, s T) uint64 {
	if h == 0 {
		h = fnvOffset64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
