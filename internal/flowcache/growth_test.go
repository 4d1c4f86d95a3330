//go:build !race

package flowcache

import (
	"math"
	"math/bits"
	"testing"
)

// TestTableGrowthAllocs: a table grows through one index doubling
// chain. Filling a fresh table with 100 000 keys, each with
// pre-actions, allocates its entry slabs and, beyond them, one bucket
// array per doubling, the slab slice's append growth, the Table and the
// pool's index and slot slice, and the scope set's index and record
// slice growth — nothing per key, and no second chain.
// The count is process-wide, and the runtime now and then allocates on
// its own during a fill, so the fewest of three fills is the table's.
func TestTableGrowthAllocs(t *testing.T) {
	const n = 100000
	pre := prePalette()[1]
	var tab *Table
	allocs := math.Inf(1)
	for range 3 {
		allocs = min(allocs, testing.AllocsPerRun(1, func() {
			tab = New(Config{})
			for i := 0; i < n; i++ {
				k := keyFor(i)
				e, err := tab.GetOrCreate(k, k.VNIC, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := tab.SetPre(e, pre, 1); err != nil {
					t.Fatal(err)
				}
			}
		}))
	}
	doublings := bits.TrailingZeros(uint(len(tab.index.buckets) / minBuckets))
	slabSlice := bits.Len(uint(cap(tab.slabs)))        // caps 1, 2, 4, … cap(slabs)
	scopes := 1 + bits.Len(uint(cap(tab.scopes.recs))) // the scope index, records of caps 1, 2, 4, …
	want := (doublings + 1) + slabSlice + scopes + 3   // + the Table, the pool's index and its slots
	got := int(allocs) - len(tab.slabs)
	t.Logf("%.0f allocations for %d slabs: %d index arrays, %d slab-slice growths", allocs, len(tab.slabs), doublings+1, slabSlice)
	if got > want {
		t.Fatalf("%d allocations beyond the %d slabs, want ≤ %d", got, len(tab.slabs), want)
	}
}
