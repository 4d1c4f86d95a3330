package obs

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

func TestSamplingDeterministicInSeed(t *testing.T) {
	a := NewFlightTracer(42, 0.1, 0)
	b := NewFlightTracer(42, 0.1, 0)
	c := NewFlightTracer(43, 0.1, 0)
	sampled, differs := 0, false
	for id := uint64(0); id < 10000; id++ {
		if a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("same seed disagrees on id %d", id)
		}
		if a.Sampled(id) {
			sampled++
		}
		if a.Sampled(id) != c.Sampled(id) {
			differs = true
		}
	}
	// ~10% of 10000, generous bounds.
	if sampled < 500 || sampled > 2000 {
		t.Fatalf("sampled %d of 10000 at rate 0.1", sampled)
	}
	if !differs {
		t.Fatal("different seeds sampled identically")
	}
	if NewFlightTracer(1, 0, 0).Sampled(7) {
		t.Fatal("rate 0 sampled a packet")
	}
	if !NewFlightTracer(1, 1, 0).Sampled(7) {
		t.Fatal("rate 1 skipped a packet")
	}
}

func TestHopDigestDeterministic(t *testing.T) {
	run := func() uint64 {
		tr := NewFlightTracer(7, 1, 4)
		for id := uint64(1); id <= 10; id++ {
			tr.Hop(id, Hop{At: sim.Time(id), Node: packet.MakeIP(10, 0, 0, byte(id)), Stage: "lookup", TableHit: id%2 == 0})
			tr.Hop(id, Hop{At: sim.Time(id + 1), Stage: "deliver", Cycles: 100 * id})
		}
		return tr.Digest()
	}
	if run() != run() {
		t.Fatal("identical hop sequences produced different digests")
	}
	// The digest is a defined function of the hops, not just a stable
	// one: this is the byte-serial tracer's value for the stream above.
	if got, want := run(), uint64(0x6e620258ed6798fb); got != want {
		t.Fatalf("digest %#x, want %#x", got, want)
	}
	// A single field difference must change the digest.
	tr := NewFlightTracer(7, 1, 4)
	tr.Hop(1, Hop{Stage: "lookup", TableHit: true})
	tr2 := NewFlightTracer(7, 1, 4)
	tr2.Hop(1, Hop{Stage: "lookup", TableHit: false})
	if tr.Digest() == tr2.Digest() {
		t.Fatal("digest insensitive to TableHit")
	}
}

func TestFlightEvictionKeepsDigest(t *testing.T) {
	tr := NewFlightTracer(7, 1, 2)
	for id := uint64(1); id <= 5; id++ {
		tr.Hop(id, Hop{Stage: "deliver"})
	}
	if got := tr.HopCount(); got != 5 {
		t.Fatalf("hop count %d, want 5", got)
	}
	if tr.Trace(1) != nil {
		t.Fatal("oldest flight should have been evicted")
	}
	if len(tr.Trace(5)) != 1 {
		t.Fatal("newest flight missing")
	}
}

func TestTraceRendering(t *testing.T) {
	tr := NewFlightTracer(1, 1, 8)
	tr.Hop(9, Hop{At: sim.Millisecond, Node: packet.MakeIP(10, 0, 0, 1), Stage: "lookup", TableHit: false})
	tr.Hop(9, Hop{At: 2 * sim.Millisecond, Node: packet.MakeIP(10, 0, 0, 2), Stage: "be-tx", EncapBytes: 54})
	var b strings.Builder
	if err := tr.writeFlights(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"flight id=9 hops=2", "lookup", "miss", "be-tx", "encap=54B", "node=10.0.0.2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flight dump missing %q:\n%s", want, out)
		}
	}
}

// referenceTracer is FlightTracer as it was before the zero-run fold,
// logic verbatim (its mutex aside): every word folded byte by byte,
// every hop's slot looked up in the map, and the to= note rendered into
// a buffer before folding. It is the oracle the tracer is checked
// against.
type referenceTracer struct {
	digest     uint64
	hops       uint64
	ring       []flight
	head       int
	slot       map[uint64]int32
	maxFlights int
}

func newReferenceTracer(maxFlights int) *referenceTracer {
	return &referenceTracer{slot: make(map[uint64]int32), maxFlights: maxFlights}
}

func (t *referenceTracer) Hop(id uint64, h Hop) {
	t.hops++
	d := refFoldFNV(t.digest, id, uint64(h.At), uint64(h.Node), uint64(h.QueueWait),
		h.Cycles, uint64(h.EncapBytes), boolWord(h.TableHit))
	d = refFoldFNVBytes(d, h.Stage)
	if h.Drop != "" {
		d = refFoldFNVBytes(refFoldFNVBytes(d, ":"), h.Drop)
	}
	if h.HasTo {
		var buf [len("to=255.255.255.255")]byte
		d = refFoldFNVBytes(d, h.To.AppendTo(append(buf[:0], "to="...)))
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

func (t *referenceTracer) Trace(id uint64) []Hop {
	i, ok := t.slot[id]
	if !ok {
		return nil
	}
	return append([]Hop(nil), t.ring[i].hops...)
}

func (t *referenceTracer) writeFlights(w io.Writer, rate float64) error {
	if _, err := fmt.Fprintf(w, "== flights (%d retained, %d hops total, rate=%g) ==\n",
		len(t.ring), t.hops, rate); err != nil {
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

func refFoldFNV(h uint64, words ...uint64) uint64 {
	const prime64 = 1099511628211
	if h == 0 {
		h = 14695981039346656037
	}
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return h
}

func refFoldFNVBytes[T string | []byte](h uint64, s T) uint64 {
	const prime64 = 1099511628211
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// TestFoldFNVMatchesByteSerial checks the zero-run fold on its own:
// word lists shorter and longer than a hop's seven, words of every
// significant-byte length, a zero starting digest.
func TestFoldFNVMatchesByteSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		words := make([]uint64, rng.Intn(20))
		for k := range words {
			if n := rng.Intn(12); n <= 8 { // n > 8: a zero word
				words[k] = rng.Uint64() >> (64 - 8*n)
			}
		}
		h := rng.Uint64()
		if i%4 == 0 {
			h = 0
		}
		if got, want := foldFNV(h, words...), refFoldFNV(h, words...); got != want {
			t.Fatalf("foldFNV(%#x, %#x) = %#x, byte-serial %#x", h, words, got, want)
		}
	}
}

// hopProgram decodes a byte string into a hop stream: which packet
// (the previous one, a new one, a recent one, or an edge ID), which
// stage, a drop reason, a to= address (0.0.0.0 and 255.255.255.255
// among them) and numeric fields of every significant-byte length
// 0..8, interior zero bytes included. Exhausted input reads as zeros.
type hopProgram struct {
	b      []byte
	nextID uint64
	recent []uint64
	ids    map[uint64]bool
}

var (
	progStages = []string{"lookup", "cpu", "gw-pick", "wire", "deliver", "be-tx", "fe-rx", ""}
	progDrops  = []string{"no-route", "acl", "cpu-overload", "x"}
	progIDs    = []uint64{0, 1, 4095, 4096, 1 << 63, math.MaxUint64}
)

func (p *hopProgram) u8() byte {
	if len(p.b) == 0 {
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

// word reads a length byte and then a value with exactly that many
// significant bytes (clipped to max).
func (p *hopProgram) word(max int) uint64 {
	n := int(p.u8()) % (max + 1)
	var w uint64
	for i := 0; i < n; i++ {
		c := p.u8()
		if i == n-1 && c == 0 {
			c = 1
		}
		w |= uint64(c) << (8 * i)
	}
	return w
}

func (p *hopProgram) next() (uint64, Hop) {
	c := p.u8()
	var id uint64
	switch {
	case c&3 == 0 && len(p.recent) > 0:
		id = p.recent[len(p.recent)-1]
	case c&3 == 2 && len(p.recent) > 0:
		id = p.recent[int(c>>2)%len(p.recent)]
	case c&3 == 3:
		id = progIDs[int(c>>2)%len(progIDs)]
	default:
		p.nextID++
		id = p.nextID
	}
	p.recent = append(p.recent, id)
	if len(p.recent) > 8 {
		p.recent = p.recent[1:]
	}
	p.ids[id] = true
	f := p.u8()
	h := Hop{
		Stage:      progStages[int(f)%len(progStages)],
		TableHit:   f&0x80 != 0,
		At:         sim.Time(p.word(8)),
		Node:       packet.IPv4(p.word(4)),
		QueueWait:  sim.Time(p.word(8)),
		Cycles:     p.word(8),
		EncapBytes: int(p.word(8)),
	}
	if f&0x20 != 0 {
		h.Drop = progDrops[int(p.u8())%len(progDrops)]
	}
	if f&0x40 != 0 {
		h.HasTo = true
		switch c := p.u8(); c % 4 {
		case 0:
			h.To = 0
		case 1:
			h.To = packet.MakeIP(255, 255, 255, 255)
		default:
			h.To = packet.MakeIP(p.u8(), p.u8(), p.u8(), p.u8())
		}
	}
	return id, h
}

// idHop is one recorded hop of packet id.
type idHop struct {
	id uint64
	h  Hop
}

// checkAgainstReference runs the lead hops and then prog through a
// tracer and the reference, both starting from digest start, and
// requires equal digests after every hop, equal hop counts, equal
// traces for every ID and byte-equal flight dumps.
func checkAgainstReference(t *testing.T, prog []byte, maxFlights int, start uint64, lead ...idHop) {
	t.Helper()
	got, want := NewFlightTracer(1, 1, maxFlights), newReferenceTracer(maxFlights)
	got.digest, want.digest = start, start
	p := &hopProgram{b: prog, ids: make(map[uint64]bool)}
	for len(lead) > 0 || len(p.b) > 0 {
		var r idHop
		if len(lead) > 0 {
			r, lead = lead[0], lead[1:]
			p.ids[r.id] = true
		} else {
			r.id, r.h = p.next()
		}
		got.Hop(r.id, r.h)
		want.Hop(r.id, r.h)
		if got.Digest() != want.digest {
			t.Fatalf("maxFlights=%d: digest %#x, reference %#x after hop %d (id=%d %+v)",
				maxFlights, got.Digest(), want.digest, want.hops, r.id, r.h)
		}
	}
	if got.HopCount() != want.hops {
		t.Fatalf("maxFlights=%d: %d hops, reference %d", maxFlights, got.HopCount(), want.hops)
	}
	for _, id := range progIDs {
		p.ids[id] = true
	}
	p.ids[p.nextID+1] = true
	for id := range p.ids {
		if g, w := got.Trace(id), want.Trace(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("maxFlights=%d: Trace(%d) = %v, reference %v", maxFlights, id, g, w)
		}
	}
	var gb, wb strings.Builder
	if err := got.writeFlights(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.writeFlights(&wb, got.Rate()); err != nil {
		t.Fatal(err)
	}
	if gb.String() != wb.String() {
		t.Fatalf("maxFlights=%d: flight dump differs:\n%s\nreference:\n%s", maxFlights, gb.String(), wb.String())
	}
}

// TestTracerMatchesReference drives the tracer and the byte-serial
// reference with random hop streams; ring sizes 1 and 2 evict on almost
// every new packet, 512 fills and wraps.
func TestTracerMatchesReference(t *testing.T) {
	for _, maxFlights := range []int{1, 2, 512} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prog := make([]byte, 1<<17)
			rng.Read(prog)
			checkAgainstReference(t, prog, maxFlights, 0)
		}
	}
}

// TestTracerZeroMidHopMatchesReference steers the running digest to
// exactly 0 after a hop's words, so the stage fold takes its reset
// branch; both tracers must reset alike.
func TestTracerZeroMidHopMatchesReference(t *testing.T) {
	const prime64 = 1099511628211
	inv := uint64(prime64) // Newton's iteration for prime64⁻¹ mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - prime64*inv
	}
	id := uint64(300)
	h := Hop{At: 12345678, Node: packet.MakeIP(10, 0, 3, 1), Cycles: 4000, Stage: "gw-pick", HasTo: true, To: packet.MakeIP(10, 0, 4, 1)}
	words := []uint64{id, uint64(h.At), uint64(h.Node), uint64(h.QueueWait), h.Cycles, uint64(h.EncapBytes), boolWord(h.TableHit)}
	// Run the byte-serial fold backwards from 0 to the start state.
	start := uint64(0)
	for k := len(words) - 1; k >= 0; k-- {
		for i := 7; i >= 0; i-- {
			start = (start * inv) ^ (words[k]>>(8*i))&0xff
		}
	}
	if start == 0 || foldFNV(start, words...) != 0 || refFoldFNV(start, words...) != 0 {
		t.Fatalf("start %#x does not fold to 0", start)
	}
	var prog []byte // ordinary hops after the crafted one
	for i := 0; i < 256; i++ {
		prog = append(prog, byte(i*37))
	}
	for _, stage := range []string{"gw-pick", ""} {
		h.Stage = stage
		checkAgainstReference(t, prog, 4, start, idHop{id, h})
	}
}

// FuzzTracerMatchesReference fuzzes hop streams against the reference.
// The first byte picks the ring size (1, 2 or 512).
func FuzzTracerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0x40, 4, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 0x60, 8, 1, 0, 0, 0, 0, 0, 0, 255, 0, 0, 0, 0, 0, 1, 1, 7, 2, 9, 9, 9, 9})
	rng := rand.New(rand.NewSource(42))
	seedProg := make([]byte, 256)
	rng.Read(seedProg)
	f.Add(seedProg)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 1<<16 {
			t.Skip()
		}
		maxFlights := []int{1, 2, 512}[int(prog[0])%3]
		checkAgainstReference(t, prog[1:], maxFlights, 0)
	})
}

// BenchmarkFlightTracerHop records a campaign-shaped hop mix — offloaded
// flights of ten hops across client, FE and BE switches, neighbouring
// packets' wire hops interleaved — with the 512-flight ring full, so
// every new packet evicts the oldest flight. One op is one hop.
func BenchmarkFlightTracerHop(b *testing.B) {
	client, fe, be := packet.MakeIP(10, 0, 1, 1), packet.MakeIP(10, 0, 5, 1), packet.MakeIP(10, 0, 100, 1)
	var stream []idHop
	at := 2 * sim.Second
	flightOf := func(id uint64) []idHop {
		at += 37 * sim.Microsecond
		return []idHop{
			{id, Hop{At: at, Node: client, Stage: "lookup", TableHit: true}},
			{id, Hop{At: at, Node: client, Stage: "cpu", Cycles: 1800, QueueWait: 3 * sim.Microsecond}},
			{id, Hop{At: at + 4*sim.Microsecond, Node: client, Stage: "gw-pick", HasTo: true, To: fe}},
			{id, Hop{At: at + 4*sim.Microsecond, Node: client, Stage: "wire", HasTo: true, To: fe}},
			{id, Hop{At: at + 9*sim.Microsecond, Node: fe, Stage: "lookup", TableHit: true}},
			{id, Hop{At: at + 9*sim.Microsecond, Node: fe, Stage: "cpu", Cycles: 2600, QueueWait: 5 * sim.Microsecond}},
			{id, Hop{At: at + 14*sim.Microsecond, Node: fe, Stage: "fe-tx", EncapBytes: 54}},
			{id, Hop{At: at + 14*sim.Microsecond, Node: fe, Stage: "wire", HasTo: true, To: be}},
			{id, Hop{At: at + 19*sim.Microsecond, Node: be, Stage: "cpu", Cycles: 1200, QueueWait: sim.Microsecond}},
			{id, Hop{At: at + 21*sim.Microsecond, Node: be, Stage: "deliver"}},
		}
	}
	for id := uint64(1000); id < 1000+4096; id += 2 {
		a, c := flightOf(id), flightOf(id+1)
		stream = append(stream, a[:4]...)
		stream = append(stream, c[:4]...)
		stream = append(stream, a[4:]...)
		stream = append(stream, c[4:]...)
	}
	tr := NewFlightTracer(1, 1, 512)
	for _, r := range stream { // fill the ring and grow every slot
		tr.Hop(r.id, r.h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &stream[i%len(stream)]
		tr.Hop(r.id, r.h)
	}
}

func TestSpanLog(t *testing.T) {
	l := NewSpanLog(2)
	l.Begin("offload", 1, 3, sim.Second)
	l.End("offload", 1, 3, 2*sim.Second, "commit")
	l.Begin("offload", 2, 1, sim.Second)
	l.End("offload", 2, 1, 3*sim.Second, "abort")
	l.Begin("scaleout", 1, 4, sim.Second)
	l.End("scaleout", 1, 4, 4*sim.Second, "commit")
	done := l.Completed()
	if len(done) != 2 {
		t.Fatalf("retained %d spans, want 2 (bounded)", len(done))
	}
	if done[1].Kind != "scaleout" || done[1].Outcome != "commit" || done[1].End-done[1].Start != 3*sim.Second {
		t.Fatalf("last span: %+v", done[1])
	}
	if l.ActiveCount() != 0 {
		t.Fatalf("active %d, want 0", l.ActiveCount())
	}
}
