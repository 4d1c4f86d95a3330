package slab

import "testing"

type obj struct {
	v    int
	name string
}

// TestPoolReusesLIFO pins the pool's order: the last object put is the
// first reused, a returned object keeps its contents, and fresh
// objects come zeroed and distinct.
func TestPoolReusesLIFO(t *testing.T) {
	var p Pool[obj]
	if p.Top() != nil || p.Idle() != 0 {
		t.Fatal("a zero pool has idle objects")
	}
	a, b := p.Get(), p.Get()
	if a == b || *a != (obj{}) || *b != (obj{}) {
		t.Fatal("fresh objects are not distinct and zero")
	}
	a.v, b.v = 1, 2
	p.Put(a)
	p.Put(b)
	if p.Idle() != 2 || p.Top() != b {
		t.Fatalf("idle %d, top %p, want 2 and %p", p.Idle(), p.Top(), b)
	}
	if p.Get() != b || p.Get() != a || a.v != 1 {
		t.Fatal("the pool did not hand back its objects last in, first out, as they were put")
	}
	if c := p.Get(); c == a || c == b || p.Idle() != 0 {
		t.Fatal("an empty pool reused a live object")
	}
}

// TestSlabAllocs pins what a pool costs the allocator: growing to n
// live objects allocates one slab per slabLen objects plus the free
// stack's doublings, returning them allocates nothing, and neither does
// a warm pool's get/put cycle.
func TestSlabAllocs(t *testing.T) {
	const n = 10 * slabLen
	live := make([]*obj, n)
	var p Pool[obj]
	if a := testing.AllocsPerRun(1, func() {
		p = Pool[obj]{}
		for i := range live {
			live[i] = p.Get()
		}
	}); a != n/slabLen+5 {
		t.Fatalf("carving %d objects allocated %v times, want %d slabs and 5 stack sizes", n, a, n/slabLen)
	}
	cycle := func() {
		for i := range live {
			live[i] = p.Get()
		}
		for _, x := range live {
			p.Put(x)
		}
	}
	if a := testing.AllocsPerRun(1, func() {
		for _, x := range live {
			p.Put(x)
		}
		cycle()
		for i := range live {
			live[i] = p.Get()
		}
	}); a != 0 {
		t.Fatalf("returning and reusing %d objects allocated %v times, want 0", n, a)
	}
}
