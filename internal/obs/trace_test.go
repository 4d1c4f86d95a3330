package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// pkt is a fresh packet of id, its sampling memo unset.
func pkt(id uint64) *packet.Packet { return &packet.Packet{ID: id} }

func TestSamplingDeterministicInSeed(t *testing.T) {
	a := NewFlightTracer(42, 0.1, 0)
	b := NewFlightTracer(42, 0.1, 0)
	c := NewFlightTracer(43, 0.1, 0)
	sampled, differs := 0, false
	for id := uint64(0); id < 10000; id++ {
		if a.Sampled(pkt(id)) != b.Sampled(pkt(id)) {
			t.Fatalf("same seed disagrees on id %d", id)
		}
		if a.Sampled(pkt(id)) {
			sampled++
		}
		if a.Sampled(pkt(id)) != c.Sampled(pkt(id)) {
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
	if NewFlightTracer(1, 0, 0).Sampled(pkt(7)) {
		t.Fatal("rate 0 sampled a packet")
	}
	if !NewFlightTracer(1, 1, 0).Sampled(pkt(7)) {
		t.Fatal("rate 1 skipped a packet")
	}
}

// TestSamplingMemo checks that below rate 1 a packet's verdict is
// hashed once and then read from its memo, which a tuple rewrite keeps
// and the pool's Get clears.
func TestSamplingMemo(t *testing.T) {
	tr := NewFlightTracer(42, 0.5, 0)
	var in, out uint64
	for id := uint64(0); in == 0 || out == 0; id++ {
		if tr.Sampled(pkt(id)) {
			in = id
		} else {
			out = id
		}
	}
	p := pkt(in)
	if !tr.Sampled(p) {
		t.Fatal("sampled id not sampled")
	}
	if s, ok := p.SampleMemo(); !s || !ok {
		t.Fatalf("memo after the verdict: sampled=%v set=%v", s, ok)
	}
	p.ID = out // the memo, not the hash, answers now
	p.InvalidateHashes()
	if !tr.Sampled(p) {
		t.Fatal("verdict re-hashed after a tuple rewrite")
	}
	q := packet.Get(out, 1, 1, packet.FiveTuple{}, packet.DirTX, 0, 0)
	defer q.Release()
	if _, ok := q.SampleMemo(); ok || tr.Sampled(q) {
		t.Fatal("a packet from Get carries a verdict")
	}
}

func TestHopDigestDeterministic(t *testing.T) {
	run := func() uint64 {
		tr := NewFlightTracer(7, 1, 4)
		for id := uint64(1); id <= 10; id++ {
			var f HopFlags
			if id%2 == 0 {
				f = TableHit
			}
			tr.Hop(id, Hop{At: sim.Time(id), Node: packet.MakeIP(10, 0, 0, byte(id)), Stage: StageLookup, Flags: f})
			tr.Hop(id, Hop{At: sim.Time(id + 1), Stage: StageDeliver, Cycles: 100 * id})
		}
		return tr.Digest()
	}
	if run() != run() {
		t.Fatal("identical hop sequences produced different digests")
	}
	// The digest is a defined function of the hops, not just a stable
	// one: this is the word fold's value for the stream above.
	if got, want := run(), uint64(0x2413eadd82069abb); got != want {
		t.Fatalf("digest %#x, want %#x", got, want)
	}
}

// TestHopDigestSensitivity flips every bit of every field of every hop
// in a short stream, one at a time, and swaps each pair of adjacent
// hops: each change must change the digest.
func TestHopDigestSensitivity(t *testing.T) {
	base := []idHop{
		{7, Hop{At: 5 * sim.Millisecond, Node: packet.MakeIP(10, 0, 1, 1), Stage: StageLookup, Flags: TableHit}},
		{7, Hop{At: 5 * sim.Millisecond, QueueWait: 3 * sim.Microsecond, Cycles: 1800, Node: packet.MakeIP(10, 0, 1, 1), Stage: StageCPU}},
		{8, Hop{At: 6 * sim.Millisecond, Node: packet.MakeIP(10, 0, 5, 1), To: packet.MakeIP(10, 0, 100, 1), Stage: StageWire, Flags: HasTo}},
		{7, Hop{At: 7 * sim.Millisecond, Node: packet.MakeIP(10, 0, 5, 1), EncapBytes: 54, Stage: StageFETx}},
		{8, Hop{At: 8 * sim.Millisecond, Node: packet.MakeIP(10, 0, 100, 1), Stage: StageDrop, Drop: 3}},
	}
	digest := func(stream []idHop) uint64 {
		tr := NewFlightTracer(1, 1, 4)
		for _, r := range stream {
			tr.Hop(r.id, r.h)
		}
		return tr.Digest()
	}
	want := digest(base)
	fields := []struct {
		name string
		bits int
		flip func(r *idHop, b int)
	}{
		{"id", 64, func(r *idHop, b int) { r.id ^= 1 << b }},
		{"At", 64, func(r *idHop, b int) { r.h.At ^= 1 << b }},
		{"Node", 32, func(r *idHop, b int) { r.h.Node ^= 1 << b }},
		{"To", 32, func(r *idHop, b int) { r.h.To ^= 1 << b }},
		{"QueueWait", 64, func(r *idHop, b int) { r.h.QueueWait ^= 1 << b }},
		{"Cycles", 64, func(r *idHop, b int) { r.h.Cycles ^= 1 << b }},
		{"EncapBytes", 32, func(r *idHop, b int) { r.h.EncapBytes ^= 1 << b }},
		{"Stage", 8, func(r *idHop, b int) { r.h.Stage ^= 1 << b }},
		{"Drop", 8, func(r *idHop, b int) { r.h.Drop ^= 1 << b }},
		{"TableHit", 1, func(r *idHop, _ int) { r.h.Flags ^= TableHit }},
		{"HasTo", 1, func(r *idHop, _ int) { r.h.Flags ^= HasTo }},
	}
	for i := range base {
		for _, f := range fields {
			for b := 0; b < f.bits; b++ {
				stream := append([]idHop(nil), base...)
				f.flip(&stream[i], b)
				if digest(stream) == want {
					t.Fatalf("flipping %s bit %d of hop %d left the digest at %#x", f.name, b, i, want)
				}
			}
		}
	}
	for i := 0; i+1 < len(base); i++ {
		stream := append([]idHop(nil), base...)
		stream[i], stream[i+1] = stream[i+1], stream[i]
		if digest(stream) == want {
			t.Fatalf("swapping hops %d and %d left the digest at %#x", i, i+1, want)
		}
	}
}

func TestFlightEvictionKeepsDigest(t *testing.T) {
	tr := NewFlightTracer(7, 1, 2)
	for id := uint64(1); id <= 5; id++ {
		tr.Hop(id, Hop{Stage: StageDeliver})
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
	tr.Hop(9, Hop{At: sim.Millisecond, Node: packet.MakeIP(10, 0, 0, 1), Stage: StageLookup})
	tr.Hop(9, Hop{At: 2 * sim.Millisecond, Node: packet.MakeIP(10, 0, 0, 2), Stage: StageBETx, EncapBytes: 54})
	out := flightDump(tr)
	for _, want := range []string{"flight id=9 hops=2", "lookup", "miss", "be-tx", "encap=54B", "node=10.0.0.2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flight dump missing %q:\n%s", want, out)
		}
	}
}

// refWords is a hop's digest input: six words holding every field of
// the record and its packet id.
func refWords(id uint64, h Hop) []uint64 {
	return []uint64{
		id,
		uint64(h.At),
		uint64(h.QueueWait),
		h.Cycles,
		uint64(h.Node) | uint64(h.To)<<32,
		uint64(h.EncapBytes) | uint64(h.Stage)<<32 | uint64(h.Drop)<<40 | uint64(h.Flags)<<48,
	}
}

const (
	refPrime  = 1099511628211
	refRotate = 29
)

// referenceTracer is the flight tracer's definition written straight:
// every hop appended to one unbounded history, the digest folded in a
// loop over refWords, and Trace and the dump computed by scanning the
// last maxHops entries of the history. It is the oracle the tracer is
// checked against.
type referenceTracer struct {
	digest  uint64
	history []idHop
	maxHops int
}

func newReferenceTracer(maxHops int) *referenceTracer {
	n := 0
	for n < maxHops {
		n = max(2*n, 1)
	}
	return &referenceTracer{maxHops: n}
}

func (t *referenceTracer) Hop(id uint64, h Hop) {
	if t.digest == 0 {
		t.digest = 14695981039346656037
	}
	for _, w := range refWords(id, h) {
		t.digest = bits.RotateLeft64((t.digest^w)*refPrime, refRotate)
	}
	t.history = append(t.history, idHop{id, h})
}

func (t *referenceTracer) retained() []idHop {
	return t.history[max(0, len(t.history)-t.maxHops):]
}

func (t *referenceTracer) Trace(id uint64) []Hop {
	var hops []Hop
	for _, r := range t.retained() {
		if r.id == id {
			hops = append(hops, r.h)
		}
	}
	return hops
}

func (t *referenceTracer) writeFlights(w io.Writer, rate float64) {
	kept := t.retained()
	var ids []uint64
	for i, r := range kept {
		seen := false
		for _, q := range kept[:i] {
			seen = seen || q.id == r.id
		}
		if !seen {
			ids = append(ids, r.id)
		}
	}
	fmt.Fprintf(w, "== flights (%d retained, %d hops total, rate=%g) ==\n", len(ids), len(t.history), rate)
	for _, id := range ids {
		hops := t.Trace(id)
		fmt.Fprintf(w, "flight id=%d hops=%d\n", id, len(hops))
		for _, h := range hops {
			fmt.Fprintf(w, "  %s\n", h)
		}
	}
}

// flightDump returns the tracer's flight dump.
func flightDump(tr *FlightTracer) string {
	var b strings.Builder
	w := bufio.NewWriter(&b)
	tr.writeFlights(w)
	w.Flush()
	return b.String()
}

// hopProgram decodes a byte string into a hop stream: which packet
// (the previous one, a new one, a recent one, or an edge ID), which
// stage (one past the last among them), a drop code, flags, a to=
// address (0.0.0.0 and 255.255.255.255 among them) and numeric fields
// of every significant-byte length, interior zero bytes included.
// Exhausted input reads as zeros.
type hopProgram struct {
	b      []byte
	nextID uint64
	recent []uint64
	ids    map[uint64]bool
}

var progIDs = []uint64{0, 1, 4095, 4096, 1 << 63, math.MaxUint64}

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
		Stage:      Stage(f % (uint8(numStages) + 1)),
		At:         sim.Time(p.word(8)),
		Node:       packet.IPv4(p.word(4)),
		QueueWait:  sim.Time(p.word(8)),
		Cycles:     p.word(8),
		EncapBytes: uint32(p.word(4)),
	}
	if f&0x80 != 0 {
		h.Flags |= TableHit
	}
	if f&0x20 != 0 {
		h.Drop = p.u8()
	}
	if f&0x40 != 0 {
		h.Flags |= HasTo
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
func checkAgainstReference(t *testing.T, prog []byte, maxHops int, start uint64, lead ...idHop) {
	t.Helper()
	got, want := NewFlightTracer(1, 1, maxHops), newReferenceTracer(maxHops)
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
			t.Fatalf("maxHops=%d: digest %#x, reference %#x after hop %d (id=%d %+v)",
				maxHops, got.Digest(), want.digest, len(want.history), r.id, r.h)
		}
	}
	if got.HopCount() != uint64(len(want.history)) {
		t.Fatalf("maxHops=%d: %d hops, reference %d", maxHops, got.HopCount(), len(want.history))
	}
	for _, id := range progIDs {
		p.ids[id] = true
	}
	p.ids[p.nextID+1] = true
	for id := range p.ids {
		if g, w := got.Trace(id), want.Trace(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("maxHops=%d: Trace(%d) = %v, reference %v", maxHops, id, g, w)
		}
	}
	var wb strings.Builder
	want.writeFlights(&wb, got.rate)
	if gd := flightDump(got); gd != wb.String() {
		t.Fatalf("maxHops=%d: flight dump differs:\n%s\nreference:\n%s", maxHops, gd, wb.String())
	}
}

// TestTracerMatchesReference drives the tracer and the reference with
// random hop streams; log size 0 retains nothing, 1 and 2 wrap on
// almost every hop, 3 rounds up to 4, 512 grows by doubling, fills and
// wraps, and the dump-sized 8192 is still doubling when the stream
// ends.
func TestTracerMatchesReference(t *testing.T) {
	for _, maxHops := range []int{0, 1, 2, 3, 512, 8192} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prog := make([]byte, 1<<16)
			rng.Read(prog)
			checkAgainstReference(t, prog, maxHops, 0)
		}
	}
}

// TestTracerZeroMidHopMatchesReference steers the running digest to
// exactly 0 after each prefix of a hop's words, the whole hop included,
// so the next hop takes the zero digest's reset branch; both tracers
// must agree on every one.
func TestTracerZeroMidHopMatchesReference(t *testing.T) {
	inv := uint64(refPrime) // Newton's iteration for refPrime⁻¹ mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - refPrime*inv
	}
	id := uint64(300)
	h := Hop{At: 12345678, Node: packet.MakeIP(10, 0, 3, 1), Cycles: 4000, Stage: StageGWPick, Flags: HasTo, To: packet.MakeIP(10, 0, 4, 1)}
	words := refWords(id, h)
	var prog []byte // ordinary hops after the crafted one
	for i := 0; i < 256; i++ {
		prog = append(prog, byte(i*37))
	}
	for k := 1; k <= len(words); k++ {
		// Run the fold backwards from 0 over the first k words.
		start := uint64(0)
		for j := k - 1; j >= 0; j-- {
			start = bits.RotateLeft64(start, -refRotate)*inv ^ words[j]
		}
		d := start
		for _, w := range words[:k] {
			d = bits.RotateLeft64((d^w)*refPrime, refRotate)
		}
		if start == 0 || d != 0 {
			t.Fatalf("start %#x does not fold to 0 after %d words", start, k)
		}
		checkAgainstReference(t, prog, 4, start, idHop{id, h})
	}
}

// FuzzTracerMatchesReference fuzzes hop streams against the reference.
// The first byte picks the log size (1, 2, 512 or none).
func FuzzTracerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0x40, 4, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 0x6e, 8, 1, 0, 0, 0, 0, 0, 0, 255, 0, 0, 0, 0, 0, 1, 1, 7, 2, 9, 9, 9, 9})
	rng := rand.New(rand.NewSource(42))
	seedProg := make([]byte, 256)
	rng.Read(seedProg)
	f.Add(seedProg)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 1<<16 {
			t.Skip()
		}
		maxHops := []int{1, 2, 512, 0}[int(prog[0])%4]
		checkAgainstReference(t, prog[1:], maxHops, 0)
	})
}

// campaignHops is a campaign-shaped hop mix: offloaded flights of ten
// hops across client, FE and BE switches, neighbouring packets' wire
// hops interleaved.
func campaignHops() []idHop {
	client, fe, be := packet.MakeIP(10, 0, 1, 1), packet.MakeIP(10, 0, 5, 1), packet.MakeIP(10, 0, 100, 1)
	var stream []idHop
	at := 2 * sim.Second
	flightOf := func(id uint64) []idHop {
		at += 37 * sim.Microsecond
		return []idHop{
			{id, Hop{At: at, Node: client, Stage: StageLookup, Flags: TableHit}},
			{id, Hop{At: at, Node: client, Stage: StageCPU, Cycles: 1800, QueueWait: 3 * sim.Microsecond}},
			{id, Hop{At: at + 4*sim.Microsecond, Node: client, Stage: StageGWPick, Flags: HasTo, To: fe}},
			{id, Hop{At: at + 4*sim.Microsecond, Node: client, Stage: StageWire, Flags: HasTo, To: fe}},
			{id, Hop{At: at + 9*sim.Microsecond, Node: fe, Stage: StageLookup, Flags: TableHit}},
			{id, Hop{At: at + 9*sim.Microsecond, Node: fe, Stage: StageCPU, Cycles: 2600, QueueWait: 5 * sim.Microsecond}},
			{id, Hop{At: at + 14*sim.Microsecond, Node: fe, Stage: StageFETx, EncapBytes: 54}},
			{id, Hop{At: at + 14*sim.Microsecond, Node: fe, Stage: StageWire, Flags: HasTo, To: be}},
			{id, Hop{At: at + 19*sim.Microsecond, Node: be, Stage: StageCPU, Cycles: 1200, QueueWait: sim.Microsecond}},
			{id, Hop{At: at + 21*sim.Microsecond, Node: be, Stage: StageDeliver}},
		}
	}
	for id := uint64(1000); id < 1000+4096; id += 2 {
		a, c := flightOf(id), flightOf(id+1)
		stream = append(stream, a[:4]...)
		stream = append(stream, c[:4]...)
		stream = append(stream, a[4:]...)
		stream = append(stream, c[4:]...)
	}
	return stream
}

// BenchmarkFlightTracerHop records campaignHops with a dump-sized log
// full, so every hop overwrites the oldest. One op is one hop.
func BenchmarkFlightTracerHop(b *testing.B) {
	stream := campaignHops()
	tr := NewFlightTracer(1, 1, 8192)
	for _, r := range stream { // grow the log to full size
		tr.Hop(r.id, r.h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &stream[i%len(stream)]
		tr.Hop(r.id, r.h)
	}
}

// TestFlightTracerHopAllocFreeWhenFull holds a warmed tracer's Hop at
// zero allocations: once the log has doubled to full size, a hop is an
// indexed store over the oldest record.
func TestFlightTracerHopAllocFreeWhenFull(t *testing.T) {
	stream := campaignHops()
	tr := NewFlightTracer(1, 1, 64)
	i := 0
	flight := func() {
		for k := 0; k < 10; k++ {
			r := &stream[i%len(stream)]
			tr.Hop(r.id, r.h)
			i++
		}
	}
	for k := 0; k < 16; k++ {
		flight()
	}
	if n := testing.AllocsPerRun(200, flight); n != 0 {
		t.Fatalf("Hop allocates %v per 10 hops with the log full, want 0", n)
	}
}

// TestNewFlightTracerAllocatesNoLog keeps tracer setup cheap: the log
// is allocated at the first hop, so building a tracer allocates only
// the tracer itself.
func TestNewFlightTracerAllocatesNoLog(t *testing.T) {
	var tr *FlightTracer
	if n := testing.AllocsPerRun(100, func() { tr = NewFlightTracer(1, 1, 0) }); n > 1 {
		t.Fatalf("NewFlightTracer allocates %v, want ≤ 1", n)
	}
	if tr.log != nil {
		t.Fatal("a fresh tracer holds a log")
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
