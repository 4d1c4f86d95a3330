package workload

import (
	"testing"

	"nezha/internal/sim"
)

// runUntil steps the loop until done holds.
func runUntil(t *testing.T, b *bed, done func() bool) {
	t.Helper()
	for !done() {
		if !b.loop.Step() {
			t.Fatal("loop drained before the connections settled")
		}
	}
}

// TestSourcePortsWrap pins the port table's top edge: a generator's
// source port wraps from 65535 to 1024, and connections on both ends
// of the range complete through the table's last slot and a low one.
func TestSourcePortsWrap(t *testing.T) {
	b := newBed(t, 8)
	g := NewCRR(b.loop, b.loop.Rand(), b.client, ipS, 1000)
	g.sport = 65534
	g.Start()
	runUntil(t, b, func() bool { return b.client.Completed == 3 })
	g.Stop()
	if g.sport != 1025 {
		t.Fatalf("after 65535 the generator opened up to port %d, want 1025", g.sport)
	}
	if len(b.client.starts) != maxPorts || b.client.InFlight() != 0 {
		t.Fatalf("port table %d slots with %d open, want %d and 0", len(b.client.starts), b.client.InFlight(), maxPorts)
	}
}

// TestAbortUntrackedPort pins that aborting a port with no connection —
// never opened, beyond the table, a well-known port, or already aborted —
// leaves the open count alone.
func TestAbortUntrackedPort(t *testing.T) {
	b := newBed(t, 8)
	b.client.Open(2000, ipS, ServerPort)
	for _, sport := range []uint16{2001, 60000, ServerPort, 0} {
		b.client.Abort(sport)
	}
	b.client.Abort(2000)
	b.client.Abort(2000)
	if b.client.InFlight() != 0 || b.client.start(2000) != noConn {
		t.Fatalf("open count %d after aborting untracked ports, want 0", b.client.InFlight())
	}
}

// TestLateReplyToReusedPort pins what a reused port sees: a connection
// aborted before its SYN was answered and reopened on the same port
// shares the 5-tuple, so the first FIN completes the new connection,
// timed from the reopen, and every later reply finds the port closed.
func TestLateReplyToReusedPort(t *testing.T) {
	b := newBed(t, 8)
	b.client.Open(3000, ipS, ServerPort)
	b.client.Abort(3000)
	b.loop.Run(b.loop.Now() + 5*sim.Microsecond)
	reopen := b.loop.Now()
	b.client.Open(3000, ipS, ServerPort)
	var lat sim.Time
	b.client.OnComplete = func(l sim.Time) { lat = l }
	b.loop.RunAll()
	if b.client.Completed != 1 || b.client.InFlight() != 0 {
		t.Fatalf("completed %d with %d open, want 1 and 0", b.client.Completed, b.client.InFlight())
	}
	if got := b.loop.Now() - reopen; lat <= 0 || lat > got {
		t.Fatalf("latency %v not timed from the reopen (%v ago)", lat, got)
	}
}

// TestClosedCRRCompletionCallbacks pins the worker table: every
// completion reopens from the worker that owned the port, so the
// workers keep exactly their number of transactions in flight, and a
// stopped generator's workers go idle.
func TestClosedCRRCompletionCallbacks(t *testing.T) {
	b := newBed(t, 8)
	g := NewClosedCRR(b.loop, b.client, ipS, 3, 100*sim.Millisecond)
	g.Start()
	runUntil(t, b, func() bool { return b.client.Completed >= 50 })
	if g.Abandoned != 0 || b.client.InFlight() != 3 || b.client.Started != b.client.Completed+3 {
		t.Fatalf("%d started, %d completed, %d open, %d abandoned: a completion missed its worker",
			b.client.Started, b.client.Completed, b.client.InFlight(), g.Abandoned)
	}
	owned := map[uint16]bool{}
	for _, w := range g.ws {
		if b.client.start(w.sport) == noConn || owned[w.sport] {
			t.Fatalf("worker port %d holds no connection or is shared", w.sport)
		}
		owned[w.sport] = true
	}
	g.Stop()
	b.loop.Run(b.loop.Now() + sim.Second)
	for _, w := range g.ws {
		if w.sport != 0 {
			t.Fatalf("stopped worker still owns port %d", w.sport)
		}
	}
}
