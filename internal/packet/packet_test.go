package packet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTuple() FiveTuple {
	return FiveTuple{
		SrcIP: MakeIP(10, 0, 0, 1), DstIP: MakeIP(10, 0, 0, 2),
		SrcPort: 12345, DstPort: 80, Proto: ProtoTCP,
	}
}

func TestMakeIPString(t *testing.T) {
	ip := MakeIP(192, 168, 1, 200)
	if ip.String() != "192.168.1.200" {
		t.Fatalf("got %s", ip.String())
	}
}

// TestFiveTupleString checks String and AppendTo against the format
// they implement, on random tuples with the extreme addresses, ports
// and an unnamed protocol mixed in.
func TestFiveTupleString(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ips := []IPv4{0, 0xffffffff, MakeIP(10, 0, 0, 1)}
	ports := []uint16{0, 65535, 80}
	protos := []Proto{ProtoTCP, ProtoUDP, ProtoICMP, 0, 255}
	for i := 0; i < 1000; i++ {
		ft := FiveTuple{
			SrcIP: IPv4(rng.Uint32()), DstIP: ips[rng.Intn(len(ips))],
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: ports[rng.Intn(len(ports))],
			Proto: protos[rng.Intn(len(protos))],
		}
		if i%2 == 0 {
			ft.SrcIP, ft.DstIP, ft.SrcPort, ft.DstPort = ft.DstIP, ft.SrcIP, ft.DstPort, ft.SrcPort
		}
		want := fmt.Sprintf("%s:%d->%s:%d/%s", ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort, ft.Proto)
		if got := ft.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
		if got := string(ft.AppendTo([]byte("x "))); got != "x "+want {
			t.Fatalf("AppendTo = %q, want %q", got, "x "+want)
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	ft := sampleTuple()
	if ft.Reverse().Reverse() != ft {
		t.Fatal("Reverse is not an involution")
	}
	r := ft.Reverse()
	if r.SrcIP != ft.DstIP || r.SrcPort != ft.DstPort {
		t.Fatal("Reverse did not swap endpoints")
	}
}

func TestNormalizeBothDirectionsAgree(t *testing.T) {
	ft := sampleTuple()
	n1, sw1 := ft.Normalize()
	n2, sw2 := ft.Reverse().Normalize()
	if n1 != n2 {
		t.Fatalf("normalized forms differ: %v vs %v", n1, n2)
	}
	if sw1 == sw2 {
		t.Fatal("exactly one direction should be swapped")
	}
}

func TestSymmetricHash(t *testing.T) {
	ft := sampleTuple()
	k1, _ := SessionKeyOf(1, 7, ft)
	k2, _ := SessionKeyOf(1, 7, ft.Reverse())
	if k1.Hash() != k2.Hash() {
		t.Fatal("session key hash differs across directions")
	}
	if ft.Hash() == ft.Reverse().Hash() {
		t.Fatal("directional hash should differ across directions (overwhelmingly)")
	}
}

func TestHashSpreads(t *testing.T) {
	// FE selection uses Hash mod #FEs; verify reasonable spread.
	buckets := make([]int, 4)
	for i := 0; i < 4000; i++ {
		ft := FiveTuple{
			SrcIP: MakeIP(10, 0, byte(i>>8), byte(i)), DstIP: MakeIP(10, 1, 0, 1),
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: ProtoTCP,
		}
		buckets[ft.Hash()%4]++
	}
	for i, b := range buckets {
		if b < 700 || b > 1300 {
			t.Fatalf("bucket %d badly skewed: %d/4000", i, b)
		}
	}
}

func TestSessionKeyOf(t *testing.T) {
	ft := sampleTuple()
	k1, _ := SessionKeyOf(3, 7, ft)
	k2, _ := SessionKeyOf(3, 7, ft.Reverse())
	if k1 != k2 {
		t.Fatal("session keys differ across directions")
	}
	k3, _ := SessionKeyOf(3, 8, ft)
	if k1 == k3 {
		t.Fatal("session keys must differ across VPCs")
	}
	if k1.Hash() == k3.Hash() {
		t.Fatal("session key hashes should differ across VPCs")
	}
	k4, _ := SessionKeyOf(4, 7, ft)
	if k1 == k4 {
		t.Fatal("session keys must differ across vNICs")
	}
	if k1.Hash() == k4.Hash() {
		t.Fatal("session key hashes should differ across vNICs")
	}
}

func TestDirectionOpposite(t *testing.T) {
	if DirTX.String() != "TX" || DirRX.String() != "RX" {
		t.Fatal("direction strings wrong")
	}
}

func TestTCPFlags(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || f.Has(FlagFIN) {
		t.Fatal("flag Has wrong")
	}
	if f.String() != "SA" {
		t.Fatalf("flag string = %q", f.String())
	}
	if TCPFlags(0).String() != "-" {
		t.Fatal("empty flags string wrong")
	}
}

func TestPacketSizeAccounting(t *testing.T) {
	p := New(1, 7, 3, sampleTuple(), DirTX, FlagSYN, 100)
	base := p.SizeBytes
	if base != 14+20+20+100 {
		t.Fatalf("base size = %d", base)
	}
	p.Encap(MakeIP(1, 1, 1, 1), MakeIP(2, 2, 2, 2))
	withUnderlay := p.SizeBytes
	if withUnderlay <= base {
		t.Fatal("Encap did not grow packet")
	}
	// Re-encap (forwarding) must not double-charge.
	p.Encap(MakeIP(1, 1, 1, 1), MakeIP(3, 3, 3, 3))
	if p.SizeBytes != withUnderlay {
		t.Fatal("re-encap double charged underlay overhead")
	}
	h := &NezhaHeader{Type: NezhaCarryState, VNIC: 3, StateBlob: []byte{1, 2, 3, 4}}
	p.AttachNezha(h)
	if p.SizeBytes != withUnderlay+h.WireSize() {
		t.Fatal("AttachNezha size wrong")
	}
	p.StripNezha()
	if p.SizeBytes != withUnderlay {
		t.Fatal("StripNezha did not restore size")
	}
}

func TestAttachNezhaReplaces(t *testing.T) {
	p := New(1, 7, 3, sampleTuple(), DirTX, 0, 0)
	p.AttachNezha(&NezhaHeader{Type: NezhaCarryState, StateBlob: make([]byte, 10)})
	s1 := p.SizeBytes
	p.AttachNezha(&NezhaHeader{Type: NezhaCarryState, StateBlob: make([]byte, 2)})
	if p.SizeBytes >= s1 {
		t.Fatal("replacing with smaller header should shrink packet")
	}
}

func TestNezhaWireSizeNil(t *testing.T) {
	var h *NezhaHeader
	if h.WireSize() != 0 {
		t.Fatal("nil header size should be 0")
	}
	if (&NezhaHeader{Type: NezhaNone}).WireSize() != 0 {
		t.Fatal("NezhaNone size should be 0")
	}
}

func TestCloneDeep(t *testing.T) {
	p := New(1, 7, 3, sampleTuple(), DirRX, FlagACK, 10)
	p.AttachNezha(&NezhaHeader{
		Type: NezhaCarryPreActions, VNIC: 3, Dir: DirRX,
		PreActionBlob: []byte{9, 9}, StateBlob: []byte{5},
	})
	q := p.Clone()
	q.Nezha.PreActionBlob[0] = 1
	q.Nezha.StateBlob[0] = 1
	if p.Nezha.PreActionBlob[0] != 9 || p.Nezha.StateBlob[0] != 5 {
		t.Fatal("Clone aliases blobs")
	}
	q.Tuple.SrcPort = 1
	if p.Tuple.SrcPort == 1 {
		t.Fatal("Clone aliases tuple")
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	p := New(42, 7, 3, sampleTuple(), DirRX, FlagSYN|FlagACK, 256)
	p.Encap(MakeIP(1, 0, 0, 1), MakeIP(1, 0, 0, 2))
	p.SentAt = 123456789
	p.Hops = 3
	p.AttachNezha(&NezhaHeader{
		Type: NezhaCarryPreActions, VNIC: 3, Dir: DirRX,
		OrigOuterSrc:  MakeIP(9, 9, 9, 9),
		StateBlob:     []byte{1, 2, 3},
		PreActionBlob: []byte{4, 5, 6, 7},
	})
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", p, got)
	}
}

func TestMarshalRoundtripNoNezha(t *testing.T) {
	p := New(1, 0, 0, sampleTuple(), DirTX, 0, 0)
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", p, got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err != ErrTruncated {
		t.Fatalf("nil: %v", err)
	}
	if _, err := Unmarshal(make([]byte, 4)); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	p := New(1, 0, 0, sampleTuple(), DirTX, 0, 0)
	b := p.Marshal()
	b[0] = 0xFF
	if _, err := Unmarshal(b); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	b = p.Marshal()
	b[2] = 99
	if _, err := Unmarshal(b); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	// Truncated nezha blob.
	p.AttachNezha(&NezhaHeader{Type: NezhaCarryState, StateBlob: make([]byte, 100)})
	b = p.Marshal()
	if _, err := Unmarshal(b[:len(b)-50]); err != ErrTruncated {
		t.Fatalf("truncated blob: %v", err)
	}
}

// Property: Marshal/Unmarshal roundtrips for arbitrary packets.
func TestQuickMarshalRoundtrip(t *testing.T) {
	gen := func(r *rand.Rand) *Packet {
		p := New(r.Uint64(), r.Uint32(), r.Uint32(), FiveTuple{
			SrcIP: IPv4(r.Uint32()), DstIP: IPv4(r.Uint32()),
			SrcPort: uint16(r.Uint32()), DstPort: uint16(r.Uint32()),
			Proto: Proto(r.Intn(256)),
		}, Direction(r.Intn(2)), TCPFlags(r.Intn(16)), r.Intn(1500))
		if r.Intn(2) == 1 {
			p.Encap(IPv4(r.Uint32()|1), IPv4(r.Uint32()|1))
		}
		p.SentAt = r.Int63()
		p.Hops = r.Intn(10)
		if r.Intn(2) == 1 {
			sb := make([]byte, r.Intn(64))
			pb := make([]byte, r.Intn(64))
			r.Read(sb)
			r.Read(pb)
			var s, pr []byte
			if len(sb) > 0 {
				s = sb
			}
			if len(pb) > 0 {
				pr = pb
			}
			p.AttachNezha(&NezhaHeader{
				Type: NezhaType(1 + r.Intn(3)), VNIC: r.Uint32(),
				Dir: Direction(r.Intn(2)), OrigOuterSrc: IPv4(r.Uint32()),
				StateBlob: s, PreActionBlob: pr,
			})
		}
		return p
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := gen(r)
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Logf("unmarshal error: %v", err)
			return false
		}
		return reflect.DeepEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize is idempotent and produces the same value for
// both directions.
func TestQuickNormalize(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16, proto uint8) bool {
		ft := FiveTuple{SrcIP: IPv4(a), DstIP: IPv4(b), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		n1, _ := ft.Normalize()
		n2, _ := n1.Normalize()
		if n1 != n2 {
			return false
		}
		n3, _ := ft.Reverse().Normalize()
		return n1 == n3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFiveTupleHash(b *testing.B) {
	ft := sampleTuple()
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += ft.Hash()
	}
	_ = sink
}

func BenchmarkMarshal(b *testing.B) {
	p := New(1, 7, 3, sampleTuple(), DirTX, FlagSYN, 100)
	p.AttachNezha(&NezhaHeader{Type: NezhaCarryState, StateBlob: make([]byte, 16)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	p := New(1, 7, 3, sampleTuple(), DirTX, FlagSYN, 100)
	p.AttachNezha(&NezhaHeader{Type: NezhaCarryState, StateBlob: make([]byte, 16)})
	buf := p.Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHashMemos pins the per-packet hash memos against the uncached
// computations: same values on first and repeated use, identical
// across the forwarding vNIC rewrite (normalized part is shared), and
// correctly invalidated when the tuple is rewritten (NAT).
func TestHashMemos(t *testing.T) {
	ft := FiveTuple{SrcIP: MakeIP(10, 0, 0, 1), DstIP: MakeIP(10, 0, 0, 2), SrcPort: 4321, DstPort: 80, Proto: ProtoTCP}
	p := New(1, 7, 42, ft, DirTX, 0, 100)

	if got, want := p.TupleHash(), ft.Hash(); got != want {
		t.Fatalf("TupleHash = %#x, want %#x", got, want)
	}
	if got, want := p.TupleHash(), ft.Hash(); got != want {
		t.Fatalf("memoized TupleHash = %#x, want %#x", got, want)
	}
	key, hash, swapped := p.SessionKeyHashed()
	wantKey, wantSwapped := p.SessionKey()
	if key != wantKey || swapped != wantSwapped || hash != wantKey.Hash() {
		t.Fatalf("SessionKeyHashed = (%+v, %#x, %v), want (%+v, %#x, %v)",
			key, hash, swapped, wantKey, wantKey.Hash(), wantSwapped)
	}

	// Forward rewrite: new vNIC, same tuple — the memoized norm hash
	// must still produce the new key's exact hash.
	p.VNIC = 99
	p.Dir = DirRX
	key2, hash2, _ := p.SessionKeyHashed()
	if want, _ := p.SessionKey(); key2 != want || hash2 != want.Hash() {
		t.Fatalf("post-rewrite SessionKeyHashed = (%+v, %#x), want (%+v, %#x)",
			key2, hash2, want, want.Hash())
	}

	// NAT rewrite invalidates both memos.
	p.Tuple.DstIP = MakeIP(192, 168, 0, 9)
	p.Tuple.DstPort = 8080
	p.InvalidateHashes()
	if got, want := p.TupleHash(), p.Tuple.Hash(); got != want {
		t.Fatalf("post-NAT TupleHash = %#x, want %#x", got, want)
	}
	if _, h, _ := p.SessionKeyHashed(); h != func() uint64 { k, _ := p.SessionKey(); return k.Hash() }() {
		t.Fatalf("post-NAT SessionKeyHashed hash mismatch")
	}
}
