package journal

import (
	"bytes"
	"reflect"
	"testing"

	"nezha/internal/packet"
)

func placement(vnic uint32, epoch uint64, off bool) Record {
	return Record{Kind: KindPlacement, VNIC: vnic, Epoch: epoch, Offloaded: off}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	j := NewMem()
	recs := []Record{
		{Kind: KindIntent, VNIC: 100, Epoch: 3, Txn: TxnOffload, FEs: []packet.IPv4{1, 2, 3}},
		{Kind: KindResolve, VNIC: 100, Epoch: 3, Committed: true, FEs: []packet.IPv4{1, 2}},
		placement(100, 3, true),
		{Kind: KindNode, Node: 7, Down: true},
		{Kind: KindRemoval, Node: 2, VNIC: 100, Epoch: 4},
		{Kind: KindPolicy, VNIC: 100, Offloaded: true, Pool: 4, LastFlip: 1500, Flipped: true},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay mismatch:\nwant %+v\ngot  %+v", recs, got)
	}
	if j.SizeBytes() == 0 {
		t.Fatal("SizeBytes reported empty journal")
	}
}

// TestDeterministicEncoding pins the byte-stability contract: the same
// record must encode identically every time (the chaos digest and the
// replay-equality tests both lean on it).
func TestDeterministicEncoding(t *testing.T) {
	j1, j2 := NewMem(), NewMem()
	r := Record{Kind: KindIntent, VNIC: 42, Epoch: 9, Txn: TxnScaleOut, FEs: []packet.IPv4{5, 6}}
	if err := j1.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(r); err != nil {
		t.Fatal(err)
	}
	m1 := j1.store.(*MemStore)
	m2 := j2.store.(*MemStore)
	if !bytes.Equal(m1.tail[0], m2.tail[0]) {
		t.Fatalf("encoding not deterministic: %s vs %s", m1.tail[0], m2.tail[0])
	}
}

// TestSnapshotTruncates drives enough appends to cross the snapshot
// interval and checks the tail is replaced by the compactor's view.
func TestSnapshotTruncates(t *testing.T) {
	j := New(NewMemStore(), 8)
	state := placement(1, 0, false)
	j.AddCompactor(func() []Record { return []Record{state} })
	for i := 1; i <= 20; i++ {
		state = placement(1, uint64(i), i%2 == 0)
		if err := j.Append(state); err != nil {
			t.Fatal(err)
		}
	}
	if j.Stats.Snapshots == 0 {
		t.Fatal("no snapshot after crossing the interval")
	}
	got, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// The last record applied must still describe the final state.
	last := got[len(got)-1]
	if last.Epoch != 20 {
		t.Fatalf("replay tail lost the latest state: %+v", last)
	}
	ms := j.store.(*MemStore)
	if len(ms.tail) >= 20 {
		t.Fatalf("snapshot never truncated the tail: %d lines", len(ms.tail))
	}
}

// TestFileStoreReload: a fresh journal over the store a crashed
// controller left behind replays it, snapshot and tail.
func TestFileStoreReload(t *testing.T) {
	store := NewMemStore()
	j := New(store, 4)
	j.AddCompactor(func() []Record { return []Record{placement(9, 99, true)} })
	var want []Record
	for i := 0; i < 10; i++ {
		r := placement(9, uint64(90+i), true)
		want = append(want, r)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh process reopens the same store and replays.
	j2 := New(store, 4)
	got, err := j2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("reload replayed nothing")
	}
	last := got[len(got)-1]
	if !reflect.DeepEqual(last, want[len(want)-1]) {
		t.Fatalf("reload lost the latest record: %+v", last)
	}
	if j2.SizeBytes() == 0 {
		t.Fatal("reloaded store reports zero size")
	}
}

// TestTornTailTolerated cuts the last record short: replay must stop
// at the torn line instead of erroring (the record never became
// durable).
func TestTornTailTolerated(t *testing.T) {
	store := NewMemStore()
	j := New(store, 1000)
	for i := 0; i < 3; i++ {
		if err := j.Append(placement(1, uint64(i+1), false)); err != nil {
			t.Fatal(err)
		}
	}
	last := store.tail[len(store.tail)-1]
	store.tail[len(store.tail)-1] = last[:len(last)-4]

	got, err := New(store, 1000).Replay()
	if err != nil {
		t.Fatalf("torn tail must not fail replay: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 intact records, got %d", len(got))
	}
}
