// Package slab is the simulator's one free list. A Pool hands out
// objects carved from fixed-size slabs and takes them back on a
// stack, so a pool that grows to n live objects costs n/slabLen slab
// allocations plus the stack's doublings, not one allocation per
// object, and a Put never allocates. Pools are per owner (a vSwitch, a fabric, a CPU, a VM, a
// loop) and, like the simulation loop, single-threaded.
//
// A Pool knows nothing of its objects' contents: Get returns an object
// exactly as it was Put (or zero, when freshly carved), and the owner
// clears what it must. Lifecycle tripwires (use after Put, a second
// Put) stay with the owning type, armed under -tags simdebug.
package slab

// slabLen is how many objects one slab holds.
const slabLen = 32

// Pool is a free list of *T. The zero value is ready to use.
type Pool[T any] struct {
	free   []*T
	rest   []T // the current slab's not yet carved objects
	carved int
}

// Get pops a recycled object, or carves a zero one from the current
// slab, starting a new slab when it is used up.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	if len(p.rest) == 0 {
		p.rest = make([]T, slabLen)
		p.carved += slabLen
		// The stack is empty here; size it to hold every carved object.
		if cap(p.free) < p.carved {
			p.free = make([]*T, 0, max(p.carved, 2*cap(p.free)))
		}
	}
	x := &p.rest[0]
	p.rest = p.rest[1:]
	return x
}

// Put returns x to the pool. x must have come from this pool's Get and
// must not be touched afterward.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }

// Idle reports how many returned objects wait to be reused.
func (p *Pool[T]) Idle() int { return len(p.free) }

// Top returns the object the next Get reuses, or nil when none is
// idle; it stays in the pool.
func (p *Pool[T]) Top() *T {
	if n := len(p.free); n > 0 {
		return p.free[n-1]
	}
	return nil
}
