package flowcache

import (
	"math/rand"
	"testing"

	"nezha/internal/packet"
	"nezha/internal/state"
)

func keyFor(i int) packet.SessionKey {
	return packet.SessionKey{
		VNIC: uint32(1 + i%3),
		VPC:  7,
		Tuple: packet.FiveTuple{
			SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: 0x0a000100 + packet.IPv4(i%5),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoTCP,
		},
	}
}

// keyVNICs and keyVPCs are the scopes scopedKey spreads each 5-tuple
// over. For any one tuple, the bucket hashes of (1, 7) and
// (249789, 10115) are equal, and so are those of (1, 10115) and
// (249789, 7): their vNIC and VPC mixes agree in the low 32 bits. Only
// the scope id tells those entries apart, so a table that confused
// scopes would hand one key's entry to another.
var (
	keyVNICs = [3]uint32{1, 2, 249789}
	keyVPCs  = [2]uint32{7, 10115}
)

// scopedKey is the i-th key of a space in which each 5-tuple recurs
// under the three keyVNICs, each in the two keyVPCs: six keys, six
// scopes, one tuple.
func scopedKey(i int) packet.SessionKey {
	j := i / 6
	return packet.SessionKey{
		VNIC: keyVNICs[i%3],
		VPC:  keyVPCs[i/3%2],
		Tuple: packet.FiveTuple{
			SrcIP: packet.IPv4(0x0a000000 + uint32(j)), DstIP: 0x0a000100 + packet.IPv4(j%5),
			SrcPort: uint16(1000 + j), DstPort: 80, Proto: packet.ProtoTCP,
		},
	}
}

// TestOpenAddrModel drives the open-addressed table against a plain
// map model through a long random op sequence: insert, delete,
// lookup, bulk deletes by vNIC, aging sweeps at a random clock, and
// clear, over keys whose 5-tuples recur under six scopes, two pairs of
// which share bucket hashes (scopedKey). Backward-shift deletion must
// never strand an entry, the slab walks must select exactly the set the
// model does, a lookup must find its own key's entry and no other, and
// a key's *Entry must not change while the key is in the table.
func TestOpenAddrModel(t *testing.T) {
	for i := 0; i < 6*16; i += 6 {
		if a, b := scopedKey(i), scopedKey(i+5); uint32(a.Hash()) != uint32(b.Hash()) {
			t.Fatalf("keys %v and %v no longer share a bucket hash: the model tests no scope", a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	tab := New(Config{})
	type rec struct {
		vnic     uint32
		lastSeen int64
		e        *Entry // must stay this key's entry until the key is deleted
	}
	model := map[packet.SessionKey]rec{}

	// Enough keys to spill past the first full-size slab, and a clock
	// that covers the idle aging a few times over the run.
	const keySpace = 8 * maxSlab
	now := int64(0)
	for op := 0; op < 40000; op++ {
		now += rng.Int63n(idleAging / 2000) // the idle aging is ~4000 ops
		k := scopedKey(rng.Intn(keySpace))
		switch rng.Intn(20) {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9: // insert
			e, err := tab.GetOrCreate(k, k.VNIC, now)
			if err != nil {
				t.Fatalf("op %d: GetOrCreate: %v", op, err)
			}
			if tab.Key(e) != k {
				t.Fatalf("op %d: wrong entry returned", op)
			}
			if old, ok := model[k]; ok && old.e != e {
				t.Fatalf("op %d: entry for %v moved from %p to %p", op, k, old.e, e)
			}
			model[k] = rec{k.VNIC, now, e}
		case 10, 11: // delete
			tab.Delete(k)
			delete(model, k)
		case 12: // bulk delete one vNIC, now and then
			if rng.Intn(100) != 0 {
				break
			}
			vnic := keyVNICs[rng.Intn(3)]
			n := tab.InvalidateVNIC(vnic)
			want := 0
			for mk, mv := range model {
				if mv.vnic == vnic {
					delete(model, mk)
					want++
				}
			}
			if n != want {
				t.Fatalf("op %d: InvalidateVNIC(%d) = %d, want %d", op, vnic, n, want)
			}
		case 13: // aging sweep, now and then; entries here are stateless
			if rng.Intn(10) != 0 {
				break
			}
			at := now - rng.Int63n(idleAging)
			n := tab.Sweep(at)
			want := 0
			for mk, mv := range model {
				if at-mv.lastSeen > idleAging {
					delete(model, mk)
					want++
				}
			}
			if n != want {
				t.Fatalf("op %d: Sweep(%d) = %d, want %d", op, at, n, want)
			}
		case 14: // occasional clear
			if rng.Intn(200) == 0 {
				tab.Clear()
				model = map[packet.SessionKey]rec{}
			}
		default: // lookup
			got := tab.Peek(k)
			if want := model[k].e; got != want {
				t.Fatalf("op %d: Peek(%v) = %p, model has %p", op, k, got, want)
			}
			if got != nil && tab.Key(got) != k {
				t.Fatalf("op %d: Peek returned wrong key", op)
			}
		}
		if tab.Len() != len(model) {
			t.Fatalf("op %d: Len=%d, model=%d", op, tab.Len(), len(model))
		}
	}
	t.Logf("%d evictions, %d slabs, %d live at the end", tab.Evictions, len(tab.slabs), tab.Len())
	if tab.Evictions == 0 || len(tab.slabs) <= maxSlabBits-minSlabBits {
		t.Fatalf("run too tame: %d evictions, %d slabs", tab.Evictions, len(tab.slabs))
	}
	// Every surviving model key must still probe, to the entry it was
	// given.
	for k, r := range model {
		if tab.Peek(k) != r.e {
			t.Fatalf("stranded or moved key %v after op sequence", k)
		}
	}
	// Range must visit exactly the model set.
	seen := 0
	tab.Range(func(e *Entry) bool {
		if _, ok := model[tab.Key(e)]; !ok {
			t.Fatalf("Range visited deleted key %v", tab.Key(e))
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(model))
	}
}

// TestHashVariantsAgree pins the *H fast paths to their hashing
// wrappers.
func TestHashVariantsAgree(t *testing.T) {
	tab := New(Config{})
	k := keyFor(3)
	h := k.Hash()
	e, err := tab.GetOrCreateH(k, h, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tab.PeekH(k, h) != e || tab.Peek(k) != e {
		t.Fatal("PeekH/Peek disagree")
	}
	if tab.LookupH(k, h, 20) != e {
		t.Fatal("LookupH miss")
	}
	if e.LastSeen != 20 || tab.Hits != 1 {
		t.Fatalf("LookupH bookkeeping: LastSeen=%d Hits=%d", e.LastSeen, tab.Hits)
	}
}

// TestEntryRecycling checks deleted entries are reused and come back
// zeroed.
func TestEntryRecycling(t *testing.T) {
	tab := New(Config{})
	k1 := keyFor(1)
	e1, _ := tab.GetOrCreate(k1, k1.VNIC, 5)
	var st state.State
	st.InitFirst(packet.DirTX, 5)
	if err := tab.SetState(e1, st); err != nil {
		t.Fatal(err)
	}
	tab.Delete(k1)
	k2 := keyFor(2)
	e2, _ := tab.GetOrCreate(k2, k2.VNIC, 6)
	if e2 != e1 {
		t.Fatal("expected freelist reuse")
	}
	if e2.HasState() || e2.HasPre() || tab.Key(e2) != k2 || *tab.State(e2) != (state.State{}) {
		t.Fatalf("recycled entry not reset: %+v", e2)
	}
	if tab.MemBytes() != EntryOverheadBytes {
		t.Fatalf("mem = %d, want %d", tab.MemBytes(), EntryOverheadBytes)
	}
}
