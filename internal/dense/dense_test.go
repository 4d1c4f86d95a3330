package dense

import "testing"

// TestIndexAssignsInOrder pins the index's contract: identities get
// 0, 1, 2, … in the order first interned, keep them through every
// growth of the slot array, and an unknown identity resolves to
// nothing — 0 included, which marks an empty slot internally.
func TestIndexAssignsInOrder(t *testing.T) {
	var x Index
	if _, ok := x.Lookup(7); ok {
		t.Fatal("an empty index resolved an identity")
	}
	// Clustered keys (one /16 of addresses) and a stride that shares the
	// hash's low bits both collide in the probe sequence.
	var keys []uint32
	for i := uint32(0); i < 300; i++ {
		keys = append(keys, 0x0a010000+i, i<<20, 0)
	}
	want := map[uint32]int{}
	for _, k := range keys {
		i := x.Intern(k)
		if w, seen := want[k]; seen && w != i {
			t.Fatalf("key %#x moved from index %d to %d", k, w, i)
		} else if !seen {
			if i != len(want) {
				t.Fatalf("key %#x got index %d, want the next one, %d", k, i, len(want))
			}
			want[k] = i
		}
	}
	if len(x.keys) != len(want) || 2*len(x.keys) > len(x.slots) {
		t.Fatalf("%d keys in %d slots for %d identities", len(x.keys), len(x.slots), len(want))
	}
	for k, w := range want {
		if i, ok := x.Lookup(k); !ok || i != w || x.Key(i) != k {
			t.Fatalf("key %#x resolves to %d,%v, want %d", k, i, ok, w)
		}
	}
	if _, ok := x.Lookup(0x0c0000ff); ok {
		t.Fatal("an unknown identity resolved")
	}
}

// TestTableGrowsLazily pins the table: it grows only to the highest
// index stored, removing is setting nil, and Len and Each see only the
// present entries, in index order.
func TestTableGrowsLazily(t *testing.T) {
	var tab Table[int]
	a, b := 1, 2
	tab.Set(40, nil)
	if len(tab.s) != 0 || tab.At(40) != nil || tab.At(-1) != nil {
		t.Fatal("removing an absent entry grew the table or resolved one")
	}
	tab.Set(5, &b)
	tab.Set(2, &a)
	tab.Set(2, &a)
	if len(tab.s) != 6 || tab.Len() != 2 || tab.At(5) != &b {
		t.Fatalf("table %d long with %d entries", len(tab.s), tab.Len())
	}
	var got []int
	tab.Each(func(v *int) { got = append(got, *v) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Each visited %v, want [1 2]", got)
	}
	tab.Set(2, nil)
	tab.Set(2, nil)
	if tab.Len() != 1 || tab.At(2) != nil {
		t.Fatalf("%d entries after a removal, want 1", tab.Len())
	}
}
