//go:build !race

package workload

import "testing"

// TestCRRConnectionAllocFree pins that a CRR connection costs no heap
// allocation once the free lists are warm: the arrival is the
// generator's pooled task, the client's connection record is a map
// value, and every packet of the open → SYNACK → request → response →
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
