package monitor

import (
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

func ip(a, b, c, d byte) packet.IPv4 { return packet.MakeIP(a, b, c, d) }

type testbed struct {
	loop *sim.Loop
	fab  *fabric.Fabric
	gw   *fabric.Gateway
	sw   []*vswitch.VSwitch
	mon  *Monitor
	down []packet.IPv4
	up   []packet.IPv4
}

func newBed(t *testing.T, n int) *testbed {
	t.Helper()
	b := &testbed{loop: sim.NewLoop(5)}
	b.fab = fabric.New(b.loop)
	b.gw = fabric.NewGateway(b.loop)
	for i := 0; i < n; i++ {
		vs := vswitch.New(b.loop, b.fab, b.gw, vswitch.Config{
			Addr: ip(10, 0, 0, byte(i+1)), ToR: 0,
		})
		b.sw = append(b.sw, vs)
	}
	monAddr := ip(10, 0, 9, 9)
	b.mon = New(b.loop, b.fab, DefaultConfig(monAddr), func(a packet.IPv4) {
		b.down = append(b.down, a)
	})
	b.mon.SetOnUp(func(a packet.IPv4) { b.up = append(b.up, a) })
	for _, vs := range b.sw {
		b.mon.Watch(vs.Addr())
	}
	return b
}

func TestHealthyFleetNoDeclarations(t *testing.T) {
	b := newBed(t, 4)
	b.mon.Start()
	b.loop.Run(10 * sim.Second)
	if len(b.down) != 0 {
		t.Fatalf("declared %v down on a healthy fleet", b.down)
	}
	if b.mon.PongsSeen.Load() == 0 {
		t.Fatal("no pongs seen")
	}
	if b.mon.ProbesSent.Load() == 0 {
		t.Fatal("no probes sent")
	}
}

func TestCrashDetectedWithinTwoSeconds(t *testing.T) {
	b := newBed(t, 4)
	b.mon.Start()
	var detectedAt sim.Time
	crashAt := 3 * sim.Second
	b.loop.Schedule(crashAt, func() { b.sw[1].Crash() })
	b.mon.onDown = func(a packet.IPv4) {
		b.down = append(b.down, a)
		if detectedAt == 0 {
			detectedAt = b.loop.Now()
		}
	}
	b.loop.Run(20 * sim.Second)
	if len(b.down) != 1 || b.down[0] != b.sw[1].Addr() {
		t.Fatalf("declared %v, want just %v", b.down, b.sw[1].Addr())
	}
	detectionDelay := detectedAt - crashAt
	if detectionDelay > 2*sim.Second {
		t.Fatalf("detection took %v, want <= 2s (§4.4)", detectionDelay)
	}
	if detectionDelay < sim.Second {
		t.Fatalf("detection suspiciously fast: %v (misses=%d)", detectionDelay, Misses)
	}
}

func TestDeclaredOnce(t *testing.T) {
	b := newBed(t, 2)
	b.mon.Start()
	b.sw[0].Crash()
	b.loop.Run(30 * sim.Second)
	n := 0
	for _, a := range b.down {
		if a == b.sw[0].Addr() {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("crash declared %d times, want once", n)
	}
	if !b.mon.Down(b.sw[0].Addr()) {
		t.Fatal("Down() should report the crash")
	}
}

func TestRecoveryCallback(t *testing.T) {
	b := newBed(t, 2)
	b.mon.Start()
	b.sw[0].Crash()
	b.loop.Schedule(10*sim.Second, func() { b.sw[0].Revive() })
	b.loop.Run(20 * sim.Second)
	if len(b.up) != 1 || b.up[0] != b.sw[0].Addr() {
		t.Fatalf("recovery not reported: %v", b.up)
	}
	if b.mon.Down(b.sw[0].Addr()) {
		t.Fatal("still marked down after recovery")
	}
}

func TestWidespreadFailureGuard(t *testing.T) {
	b := newBed(t, 6)
	b.mon.Start()
	// Kill 5 of 6 simultaneously — smells like a monitoring bug.
	b.loop.Schedule(sim.Second, func() {
		for i := 0; i < 5; i++ {
			b.sw[i].Crash()
		}
	})
	b.loop.Run(15 * sim.Second)
	if b.mon.GuardTrips.Load() == 0 {
		t.Fatal("guard did not trip on widespread failure")
	}
	if !b.mon.GuardActive() {
		t.Fatal("guard should be active")
	}
	if len(b.down) != 0 {
		t.Fatalf("automatic removal not suspended: %v", b.down)
	}
	// Manual verification re-enables removal.
	b.mon.ClearGuard()
	b.loop.Run(30 * sim.Second)
	if len(b.down) != 5 {
		t.Fatalf("after ClearGuard, declared %d, want 5", len(b.down))
	}
}

func TestSingleCrashDoesNotTripGuard(t *testing.T) {
	b := newBed(t, 6)
	b.mon.Start()
	b.sw[0].Crash()
	b.loop.Run(15 * sim.Second)
	if b.mon.GuardTrips.Load() != 0 {
		t.Fatal("guard tripped on a single crash")
	}
	if len(b.down) != 1 {
		t.Fatalf("single crash not declared: %v", b.down)
	}
}

// TestUnwatch: only the probe set is probed; a crashed node outside it
// is never declared.
func TestUnwatch(t *testing.T) {
	b := newBed(t, 2)
	delete(b.mon.targets, b.sw[0].Addr())
	b.mon.Start()
	b.sw[0].Crash()
	b.loop.Run(15 * sim.Second)
	if len(b.down) != 0 {
		t.Fatal("unwatched node declared down")
	}
}

func TestStopHaltsProbing(t *testing.T) {
	b := newBed(t, 2)
	b.mon.Start()
	b.loop.Run(2 * sim.Second)
	sent := b.mon.ProbesSent.Load()
	b.mon.Stop()
	b.loop.Run(10 * sim.Second)
	if b.mon.ProbesSent.Load() != sent {
		t.Fatal("probes kept flowing after Stop")
	}
}

func TestHardCrashUnregisteredNode(t *testing.T) {
	// A full SmartNIC death (unregistered from the fabric) must also
	// be detected.
	b := newBed(t, 3)
	b.mon.Start()
	b.loop.Schedule(sim.Second, func() { b.fab.Unregister(b.sw[2].Addr()) })
	b.loop.Run(15 * sim.Second)
	found := false
	for _, a := range b.down {
		if a == b.sw[2].Addr() {
			found = true
		}
	}
	if !found {
		t.Fatal("hard crash not detected")
	}
}

// TestStalePongIgnored is the regression test for probe-ID matching:
// a pong must vouch only for the probe round it answers. Before the
// fix, handlePong cleared the pending flag on any pong from the
// target's address, so a delayed pong from round N-1 arriving after
// round N's wave reset the miss counter and stretched crash detection
// arbitrarily past its bound.
func TestStalePongIgnored(t *testing.T) {
	b := newBed(t, 2)
	monAddr := ip(10, 0, 9, 9)
	b.mon.round() // wave 1: probes outstanding
	tgt := b.mon.targets[b.sw[0].Addr()]
	if !tgt.pending {
		t.Fatal("no probe outstanding after round")
	}

	mkPong := func(id uint64) *packet.Packet {
		p := packet.New(id, 0, 0, packet.FiveTuple{
			SrcIP: b.sw[0].Addr(), DstIP: monAddr,
			SrcPort: vswitch.ProbePort, DstPort: 40000,
			Proto: packet.ProtoUDP,
		}, packet.DirTX, 0, 0)
		p.Encap(b.sw[0].Addr(), monAddr)
		return p
	}

	// A pong carrying a previous round's ID must not settle this one.
	b.mon.handlePong(mkPong(tgt.pendingID + 100))
	if !tgt.pending {
		t.Fatal("stale pong cleared the pending probe")
	}
	if b.mon.StalePongs.Load() != 1 {
		t.Fatalf("StalePongs = %d, want 1", b.mon.StalePongs.Load())
	}

	// The matching pong settles it.
	b.mon.handlePong(mkPong(tgt.pendingID))
	if tgt.pending || tgt.missed != 0 {
		t.Fatal("matching pong not accepted")
	}

	// A duplicate of the already-consumed pong is stale too.
	b.mon.handlePong(mkPong(tgt.pendingID))
	if b.mon.StalePongs.Load() != 2 {
		t.Fatalf("StalePongs = %d, want 2", b.mon.StalePongs.Load())
	}
}

// TestLatePongDoesNotMaskCrash drives the full bug scenario: a target
// whose pong from the final pre-crash round arrives after the next
// wave must still be declared within the detection bound, because the
// late pong cannot vouch for the newer outstanding probe.
func TestLatePongDoesNotMaskCrash(t *testing.T) {
	b := newBed(t, 2)
	monAddr := ip(10, 0, 9, 9)
	victim := b.sw[0].Addr()
	b.mon.Start()
	b.loop.Schedule(sim.Second, func() { b.sw[0].Crash() })
	// Replay a captured pre-crash pong after every post-crash wave —
	// exactly what a congested fabric queue would deliver.
	b.loop.Every(DefaultConfig(0).ProbeInterval, func() {
		if !b.sw[0].Crashed() {
			return
		}
		tgt := b.mon.targets[victim]
		p := packet.New(tgt.pendingID-1, 0, 0, packet.FiveTuple{
			SrcIP: victim, DstIP: monAddr,
			SrcPort: vswitch.ProbePort, DstPort: 40000,
			Proto: packet.ProtoUDP,
		}, packet.DirTX, 0, 0)
		p.Encap(victim, monAddr)
		b.mon.handlePong(p)
	})
	b.loop.Run(10 * sim.Second)
	if len(b.down) != 1 || b.down[0] != victim {
		t.Fatalf("crash masked by stale pongs: declared %v", b.down)
	}
	if b.mon.StalePongs.Load() == 0 {
		t.Fatal("no stale pongs counted")
	}
}

// TestClearGuardNoRetrigger is the regression guard for guard-state
// handling after a mass FE failure: ClearGuard declares the targets
// that accumulated misses while the guard was up, but a second
// ClearGuard — or one issued after the first already declared
// everything — must not fire onDown again for targets that are
// already down.
func TestClearGuardNoRetrigger(t *testing.T) {
	b := newBed(t, 6)
	b.mon.Start()
	b.loop.Schedule(sim.Second, func() {
		for i := 0; i < 5; i++ {
			b.sw[i].Crash()
		}
	})
	b.loop.Run(15 * sim.Second)
	if !b.mon.GuardActive() {
		t.Fatal("guard should be active after a mass failure")
	}

	b.mon.ClearGuard()
	if len(b.down) != 5 {
		t.Fatalf("first ClearGuard declared %d targets, want 5", len(b.down))
	}
	firstDeclared := b.mon.Declared.Load()

	// Immediate second ClearGuard: all five are already down.
	b.mon.ClearGuard()
	if len(b.down) != 5 {
		t.Fatalf("second ClearGuard re-fired onDown: %d callbacks, want 5", len(b.down))
	}
	if b.mon.Declared.Load() != firstDeclared {
		t.Fatalf("second ClearGuard re-declared: %d, want %d", b.mon.Declared.Load(), firstDeclared)
	}

	// Let more probe rounds accumulate misses on the still-crashed
	// targets, then clear again — still no re-trigger.
	b.loop.Run(b.loop.Now() + 5*sim.Second)
	b.mon.ClearGuard()
	if len(b.down) != 5 || b.mon.Declared.Load() != firstDeclared {
		t.Fatalf("ClearGuard after more missed rounds re-triggered: callbacks=%d declared=%d",
			len(b.down), b.mon.Declared.Load())
	}
}

// TestClearGuardDeclaresOnlyNewFailures: after a partial recovery, a
// later ClearGuard must declare only targets that crossed the miss
// threshold since, never the ones already declared.
func TestClearGuardDeclaresOnlyNewFailures(t *testing.T) {
	b := newBed(t, 6)
	b.mon.Start()
	b.loop.Schedule(sim.Second, func() {
		for i := 0; i < 5; i++ {
			b.sw[i].Crash()
		}
	})
	b.loop.Run(15 * sim.Second)
	b.mon.ClearGuard()
	if len(b.down) != 5 {
		t.Fatalf("setup: declared %d, want 5", len(b.down))
	}

	// One more switch dies while the guard is off; it is declared by
	// the normal rounds, and a redundant ClearGuard adds nothing.
	b.sw[5].Crash()
	b.loop.Run(b.loop.Now() + 15*sim.Second)
	if len(b.down) != 6 {
		t.Fatalf("new crash not declared: %d", len(b.down))
	}
	b.mon.ClearGuard()
	if len(b.down) != 6 {
		t.Fatalf("ClearGuard re-fired for already-declared targets: %d", len(b.down))
	}
}

// Down reports whether addr is currently declared down.
func (m *Monitor) Down(addr packet.IPv4) bool {
	t, ok := m.targets[addr]
	return ok && t.down
}
