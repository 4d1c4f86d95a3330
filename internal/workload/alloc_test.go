//go:build !race

package workload

import "testing"

// TestCRRConnectionAllocFree pins that a CRR connection costs no heap
// allocation once the free lists are warm: the arrival is the
// generator's pooled task, the client's connection record is a slot of
// its port table, and every packet of the open → SYNACK → request → response →
// FIN → complete lifecycle is pooled. (Not under -race: the race
// runtime makes sync.Pool drop a share of the packets it is handed.)
func TestCRRConnectionAllocFree(t *testing.T) {
	b := newBed(t, 8)
	// 1000/s against a lifecycle of tens of µs: connections do not
	// overlap, so each run below is one arrival and its full lifecycle.
	g := NewCRR(b.loop, b.loop.Rand(), b.client, ipS, 1000)
	g.Start()
	oneConn := func() {
		want := b.client.Completed + 1
		for b.client.Completed < want {
			if !b.loop.Step() {
				t.Fatal("loop drained with the generator running")
			}
		}
	}
	// Warm-up: long enough for the calendar buckets the arrivals land
	// in, the packet pool and the session tables to reach their size.
	for i := 0; i < 5000; i++ {
		oneConn()
	}
	started := b.client.Started
	if n := testing.AllocsPerRun(500, oneConn); n != 0 {
		t.Fatalf("a CRR connection allocates %v, want 0", n)
	}
	if got := b.client.Started - started; got != 501 {
		t.Fatalf("%d connections opened over 501 lifecycles", got)
	}
	if b.client.InFlight() != 0 || b.server.KernelDrops != 0 {
		t.Fatalf("in flight %d, kernel drops %d: lifecycles overlapped or failed", b.client.InFlight(), b.server.KernelDrops)
	}
}

// TestPortTableAllocs pins the port table's growth: opening every
// generator port in turn, from 1024, allocates one table per doubling,
// seven in all up to maxPorts, and nothing per connection. The runtime
// counts a table above 32 KiB as two mallocs, so the bound is 14.
func TestPortTableAllocs(t *testing.T) {
	vm := &VM{}
	n := testing.AllocsPerRun(1, func() {
		vm.starts = nil
		for i := 1024; i < maxPorts; i++ {
			if i >= len(vm.starts) {
				vm.growPorts(i)
			}
		}
	})
	if n > 14 || len(vm.starts) != maxPorts {
		t.Fatalf("filling the port table allocated %v times to %d slots, want 7 doublings (at most 14 mallocs) to %d", n, len(vm.starts), maxPorts)
	}
}
