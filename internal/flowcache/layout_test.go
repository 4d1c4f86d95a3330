package flowcache

import (
	"reflect"
	"testing"
	"unsafe"

	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// probes reports how many buckets find reads for k: the distance from
// the home slot to where the probe ended (the entry on a hit, the empty
// slot on a miss), inclusive.
func probes(t *Table, k packet.SessionKey) int {
	h := uint32(k.Hash())
	_, slot := t.find(k, h)
	return int((slot-h)&t.index.mask) + 1
}

// TestProbeLength holds the table to linear probing's own cost. With
// the home slot drawn from bits the shard choice already fixed, only
// one slot in numShards was ever a home slot and these means were
// 3.06/5.37, 2.53/4.09 and 3.38/6.26 at the three sizes (shard load
// 0.52, 0.38, 0.57); theory at load 0.57 is 1.7 per hit and 3.2 per
// miss.
func TestProbeLength(t *testing.T) {
	for _, n := range []int{4096, 50000, 300000} {
		tab := New(Config{})
		for i := 0; i < n; i++ {
			k := keyFor(i)
			if _, err := tab.GetOrCreate(k, k.VNIC, 0); err != nil {
				t.Fatal(err)
			}
		}
		mean := func(base int) float64 {
			total := 0
			for i := 0; i < n; i++ {
				total += probes(tab, keyFor(base+i))
			}
			return float64(total) / float64(n)
		}
		hit, miss := mean(0), mean(n)
		t.Logf("%d keys: %.2f probes per hit, %.2f per miss", n, hit, miss)
		if hit > 2.0 || miss > 4.0 {
			t.Errorf("%d keys: %.2f probes per hit (want ≤ 2.0), %.2f per miss (want ≤ 4.0)", n, hit, miss)
		}
	}
}

// TestEntryLayout pins what the role-shaped store rests on: a 48-byte
// entry, full entry and state slabs that are whole pages, and no
// pointer in an entry, a state slot, a pre-actions pool slot or a
// bucket, so the collector never scans the table.
func TestEntryLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Entry{}); sz != 48 {
		t.Errorf("Entry is %d bytes, want 48", sz)
	}
	if sz := maxSlab * unsafe.Sizeof(Entry{}); sz%8192 != 0 {
		t.Errorf("a full entry slab is %d bytes, not a whole number of 8 KiB pages", sz)
	}
	if sz := maxSlab * unsafe.Sizeof(state.State{}); sz%8192 != 0 {
		t.Errorf("a full state slab is %d bytes, not a whole number of 8 KiB pages", sz)
	}
	if sz := unsafe.Sizeof(bucket{}); sz != 8 {
		t.Errorf("bucket is %d bytes, want 8", sz)
	}
	var pointerFree func(path string, typ reflect.Type)
	pointerFree = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				pointerFree(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			pointerFree(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the table must hold no Go pointers", path, typ.Kind())
		}
	}
	pointerFree("Entry", reflect.TypeOf(Entry{}))
	pointerFree("state slot", reflect.TypeOf(state.State{}))
	pointerFree("preSlot", reflect.TypeOf(preSlot{}))
	pointerFree("bucket", reflect.TypeOf(bucket{}))
}

// TestSlabOf checks the index → (slab, offset) map is a bijection onto
// slabs of the sizes alloc makes, and that capacity lands on powers of
// two: a table of 2^n flows strands no entry.
func TestSlabOf(t *testing.T) {
	const n = 3*maxSlab + 100
	tab := New(Config{})
	for i := 0; i < n; i++ {
		k := keyFor(i)
		if _, err := tab.GetOrCreate(k, k.VNIC, 0); err != nil {
			t.Fatal(err)
		}
	}
	idx := uint32(0)
	for k, slab := range tab.slabs {
		want := min(minSlab<<max(k-1, 0), maxSlab) // 8, 8, 16, … 512, 512, …
		if len(slab) != want {
			t.Fatalf("slab %d holds %d entries, want %d", k, len(slab), want)
		}
		for off := range slab {
			if gk, goff := slabOf(idx); int(gk) != k || int(goff) != off {
				t.Fatalf("slabOf(%d) = (%d, %d), want (%d, %d)", idx, gk, goff, k, off)
			}
			idx++
		}
	}
	for _, n := range []uint32{minSlab, 64, maxSlab, 4096} {
		if k, off := slabOf(n); off != 0 {
			t.Errorf("entry %d opens no new slab: it is (%d, %d)", n, k, off)
		}
	}
	// No slab beyond the one the last entry needs.
	if last, _ := slabOf(n - 1); tab.used != n || int(last) != len(tab.slabs)-1 {
		t.Fatalf("%d entries used %d indices in %d slabs; the last sits in slab %d", n, tab.used, len(tab.slabs), last)
	}
}

// TestPointerStability: an *Entry stays the same live entry while
// unrelated keys come and go, through index growth and many new slabs.
func TestPointerStability(t *testing.T) {
	tab := New(Config{})
	k0 := keyFor(0)
	e0, err := tab.GetOrCreate(k0, k0.VNIC, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.SetPre(e0, tables.PreActions{}, 77); err != nil {
		t.Fatal(err)
	}
	slabs, buckets := len(tab.slabs), len(tab.index.buckets)
	for i := 1; i <= 10000; i++ {
		k := keyFor(i)
		if _, err := tab.GetOrCreate(k, k.VNIC, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			tab.Delete(keyFor(i - 1))
		}
	}
	if len(tab.slabs) <= slabs || len(tab.index.buckets) <= buckets {
		t.Fatalf("no growth: %d slabs, %d buckets", len(tab.slabs), len(tab.index.buckets))
	}
	if got := tab.Peek(k0); got != e0 {
		t.Fatalf("Peek returned %p, the entry was created at %p", got, e0)
	}
	if e0.Key != k0 || e0.LastSeen != 5 || !e0.HasPre || tab.PreVersion(e0) != 77 || !e0.live {
		t.Fatalf("entry changed under unrelated inserts: %+v", e0)
	}
}

// TestMissSlotReuse covers the slot memo between a LookupH miss and
// the GetOrCreateH that follows it: used when nothing changed, dropped
// when anything did, and never trusted for another key.
func TestMissSlotReuse(t *testing.T) {
	tab := New(Config{})
	for i := 0; i < 200; i++ {
		k := keyFor(i)
		tab.GetOrCreate(k, k.VNIC, 0)
	}
	check := func(what string) {
		t.Helper()
		n := 0
		tab.Range(func(e *Entry) bool {
			n++
			if tab.Peek(e.Key) != e {
				t.Fatalf("%s: key %v not reachable", what, e.Key)
			}
			return true
		})
		if n != tab.Len() {
			t.Fatalf("%s: Range saw %d entries, Len %d", what, n, tab.Len())
		}
	}
	a, b := keyFor(1000), keyFor(1001)

	// Miss then create: the memo's slot is used.
	if tab.Lookup(a, 1) != nil || !tab.missOK {
		t.Fatal("expected a recorded miss")
	}
	ea, _ := tab.GetOrCreate(a, a.VNIC, 1)
	if tab.missOK || tab.Peek(a) != ea {
		t.Fatal("create after miss did not land where Peek finds it")
	}
	check("miss→create")

	// Miss on a, create b: the memo is not b's.
	tab.Delete(a)
	tab.Lookup(a, 2)
	eb, _ := tab.GetOrCreate(b, b.VNIC, 2)
	if tab.Peek(b) != eb || tab.Peek(a) != nil {
		t.Fatal("memo for one key leaked into another's insert")
	}
	check("miss(a)→create(b)")

	// A delete between miss and create moves buckets: memo dropped.
	tab.Lookup(a, 3)
	tab.Delete(b)
	if tab.missOK {
		t.Fatal("memo survived a delete")
	}
	tab.GetOrCreate(a, a.VNIC, 3)
	check("miss→delete→create")

	// Creating an existing key after a miss elsewhere returns it.
	tab.Lookup(b, 4)
	if got, _ := tab.GetOrCreate(a, a.VNIC, 4); got != tab.Peek(a) || tab.Len() != 201 {
		t.Fatal("existing key duplicated")
	}

	// A miss whose insert tips the index over its load limit: the slot is
	// from the old array and must be recomputed.
	tab = New(Config{})
	for i := 0; tab.Len() < 2000; i++ {
		k := keyFor(i)
		tab.Lookup(k, 0)
		tab.GetOrCreate(k, k.VNIC, 0)
	}
	check("miss→create across growth")
}

// TestChurnAllocs: once slabs and bucket arrays have reached the
// working-set size, insert/delete churn allocates nothing.
func TestChurnAllocs(t *testing.T) {
	tab := New(Config{})
	const live, fresh = 3000, 512
	for i := 0; i < live+fresh; i++ {
		k := keyFor(i)
		tab.GetOrCreate(k, k.VNIC, 0)
	}
	keys := make([]packet.SessionKey, fresh)
	hashes := make([]uint64, fresh)
	for i := range keys {
		keys[i] = keyFor(live + i)
		hashes[i] = keys[i].Hash()
		tab.Delete(keys[i])
	}
	var pre tables.PreActions
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		j := i % fresh
		i++
		if tab.LookupH(keys[j], hashes[j], 1) != nil {
			t.Fatal("deleted key found")
		}
		e, _ := tab.GetOrCreateH(keys[j], hashes[j], keys[j].VNIC, 1)
		tab.SetPre(e, pre, 1)
		tab.TouchState(e, packet.DirTX, packet.FlagSYN, 0, 1)
		if j%8 == 0 && (tab.InvalidateVNIC(keys[j].VNIC+100) != 0 || tab.Sweep(1) != 0) {
			t.Fatal("bulk delete removed live entries")
		}
		tab.Delete(keys[j])
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocs per insert/delete cycle, want 0", allocs)
	}
}
