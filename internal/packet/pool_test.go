package packet

import (
	"bytes"
	"testing"
)

func poolTuple() FiveTuple {
	return FiveTuple{
		SrcIP: MakeIP(10, 0, 0, 1), DstIP: MakeIP(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: ProtoTCP,
	}
}

// TestPoolGetMatchesNew checks that Get initializes a packet exactly
// like New — the datapath swaps between them freely.
func TestPoolGetMatchesNew(t *testing.T) {
	ft := poolTuple()
	a := New(7, 1, 2, ft, DirTX, FlagSYN, 100)
	b := Get(7, 1, 2, ft, DirTX, FlagSYN, 100)
	defer b.Release()
	if a.ID != b.ID || a.VPC != b.VPC || a.VNIC != b.VNIC || a.Tuple != b.Tuple ||
		a.Dir != b.Dir || a.Flags != b.Flags || a.PayloadLen != b.PayloadLen ||
		a.SizeBytes != b.SizeBytes {
		t.Fatalf("Get result %+v differs from New result %+v", b, a)
	}
}

// TestPoolReuseResets releases a fully dressed packet and checks that
// the next Get hands back a pristine struct, with no state leaking
// from the previous owner.
func TestPoolReuseResets(t *testing.T) {
	ft := poolTuple()
	p := Get(1, 1, 1, ft, DirTX, FlagACK, 64)
	p.Nezha = &NezhaHeader{Type: NezhaCarryState, StateBlob: []byte{1, 2, 3}}
	p.Hops = 9
	p.SentAt = 12345
	p.Release()

	q := getBlank()
	defer q.Release()
	if q.Nezha != nil || q.Hops != 0 || q.SentAt != 0 || q.ID != 0 {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
}

// TestPoolCloneIndependent checks a clone of a pooled packet survives
// the original's release (its blobs must not alias).
func TestPoolCloneIndependent(t *testing.T) {
	p := Get(2, 1, 1, poolTuple(), DirTX, 0, 32)
	p.Nezha = &NezhaHeader{Type: NezhaNotify, StateBlob: []byte{9, 8, 7}}
	q := p.Clone()
	p.Release()
	// Recycle the original into a different packet; the clone must be
	// unaffected.
	r := Get(3, 5, 6, poolTuple(), DirRX, FlagSYN, 1400)
	if q.ID != 2 || q.Nezha == nil || !bytes.Equal(q.Nezha.StateBlob, []byte{9, 8, 7}) {
		t.Fatalf("clone corrupted by original's recycling: %+v", q)
	}
	r.Release()
	q.Release()
}

// TestPoolMarshalRoundTripPooled round-trips a packet through
// Marshal/Unmarshal with the buffer recycled in between, many times,
// to exercise buffer and packet reuse together.
func TestPoolMarshalRoundTripPooled(t *testing.T) {
	ft := poolTuple()
	for i := 0; i < 100; i++ {
		p := Get(uint64(i), 1, 2, ft, DirTX, FlagACK, 100+i)
		p.Nezha = &NezhaHeader{Type: NezhaCarryState, VNIC: uint32(i), StateBlob: []byte{byte(i)}}
		b := p.Marshal()
		q, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		PutBuf(b)
		if q.ID != p.ID || q.PayloadLen != p.PayloadLen || q.Nezha.VNIC != uint32(i) {
			t.Fatalf("round %d: round-trip mismatch: %+v vs %+v", i, q, p)
		}
		p.Release()
		q.Release()
	}
}

// TestPoolUnmarshalErrorReleases checks the error paths after packet
// creation hand the packet back (observable as: no panic under
// simdebug, and the pool keeps working).
func TestPoolUnmarshalErrorReleases(t *testing.T) {
	p := Get(4, 1, 1, poolTuple(), DirTX, 0, 8)
	p.Nezha = &NezhaHeader{Type: NezhaCarryState, StateBlob: []byte{1, 2, 3, 4}}
	b := p.Marshal()
	p.Release()
	for cut := len(b) - 1; cut > len(b)-8; cut-- {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncated to %d bytes: expected error", cut)
		}
	}
	PutBuf(b)
	q := Get(5, 1, 1, poolTuple(), DirRX, 0, 8)
	q.Release()
}

// TestGetBufCapacity checks the wire-buffer pool honors the capacity
// contract across recycling.
func TestGetBufCapacity(t *testing.T) {
	b := getBuf(64)
	if len(b) != 0 || cap(b) < 64 {
		t.Fatalf("getBuf(64): len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, make([]byte, 64)...)
	PutBuf(b)
	c := getBuf(1024)
	if len(c) != 0 || cap(c) < 1024 {
		t.Fatalf("getBuf(1024) after recycling smaller buf: len=%d cap=%d", len(c), cap(c))
	}
}

// TestReleaseDropsHeader pins that a parked packet does not keep its
// Nezha header reachable: the pool is process-wide, and a pooled header
// view leads back to the vSwitch — the whole world — that issued it.
func TestReleaseDropsHeader(t *testing.T) {
	p := Get(1, 1, 1, poolTuple(), DirTX, FlagACK, 64)
	p.AttachNezha(&NezhaHeader{Type: NezhaCarryState, StateBlob: []byte{1}})
	p.Release()
	if p.Nezha != nil {
		t.Fatal("released packet still references its header")
	}
}
