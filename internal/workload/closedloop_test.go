package workload

import (
	"testing"

	"nezha/internal/sim"
)

func TestClosedCRRSaturatesBottleneck(t *testing.T) {
	// With ample workers, closed-loop throughput approaches the
	// bottleneck capacity instead of collapsing like open-loop
	// overload would.
	b := newBed(t, 1) // server kernel cap ≈ MaxCPS(1) = 15K
	g := NewClosedCRR(b.loop, b.client, ipS, 64, 100*sim.Millisecond)
	g.Start()
	b.loop.Run(3 * sim.Second)
	g.Stop()
	b.loop.Run(b.loop.Now() + sim.Second)
	cps := float64(b.client.Completed) / 3.0
	cap := MaxCPS(1)
	if cps < cap*0.5 {
		t.Fatalf("closed-loop CPS = %.0f, want >= 50%% of the %.0f kernel cap", cps, cap)
	}
	if cps > cap*1.3 {
		t.Fatalf("closed-loop CPS = %.0f exceeds the %.0f kernel cap", cps, cap)
	}
}

func TestClosedCRRStops(t *testing.T) {
	b := newBed(t, 8)
	g := NewClosedCRR(b.loop, b.client, ipS, 8, 50*sim.Millisecond)
	g.Start()
	b.loop.Run(500 * sim.Millisecond)
	g.Stop()
	b.loop.Run(b.loop.Now() + sim.Second)
	done := b.client.Started
	b.loop.Run(b.loop.Now() + sim.Second)
	if b.client.Started != done {
		t.Fatal("workers kept opening after Stop")
	}
}

func TestClosedCRRTimeoutRecovers(t *testing.T) {
	// Crash the server switch: every transaction times out, but the
	// workers keep cycling (Abandoned grows) instead of deadlocking.
	b := newBed(t, 8)
	b.swB.Crash()
	g := NewClosedCRR(b.loop, b.client, ipS, 4, 50*sim.Millisecond)
	g.Start()
	b.loop.Run(sim.Second)
	g.Stop()
	b.loop.Run(b.loop.Now() + sim.Second)
	if g.Abandoned == 0 {
		t.Fatal("no abandonments despite a dead server")
	}
	if b.client.Started < 20 {
		t.Fatalf("workers stalled: only %d starts", b.client.Started)
	}
	if b.client.Completed != 0 {
		t.Fatal("completions through a crashed switch")
	}
	// Revive: the next run completes again.
	b.swB.Revive()
	g2 := NewClosedCRR(b.loop, b.client, ipS, 4, 50*sim.Millisecond)
	g2.Start()
	b.loop.Run(b.loop.Now() + sim.Second)
	g2.Stop()
	b.loop.Run(b.loop.Now() + sim.Second)
	if b.client.Completed == 0 {
		t.Fatal("no recovery after revive")
	}
}

// TestClosedCRRCancelsSettledTimeouts pins that a completed
// transaction's timeout is cancelled, not left to fire as a no-op:
// once the stopped generator's last transactions settle, the loop
// fires nothing more.
func TestClosedCRRCancelsSettledTimeouts(t *testing.T) {
	b := newBed(t, 8)
	g := NewClosedCRR(b.loop, b.client, ipS, 4, 100*sim.Millisecond)
	g.Start()
	b.loop.Run(50 * sim.Millisecond)
	g.Stop()
	b.loop.Run(b.loop.Now() + 10*sim.Millisecond)
	if g.Completed() == 0 || g.Abandoned != 0 {
		t.Fatalf("completed %d, abandoned %d; want completions only", g.Completed(), g.Abandoned)
	}
	fired := b.loop.Fired()
	b.loop.Run(b.loop.Now() + sim.Second)
	if n := b.loop.Fired() - fired; n != 0 {
		t.Fatalf("%d events fired after every transaction settled", n)
	}
}

func TestClosedCRRWorkerFloor(t *testing.T) {
	b := newBed(t, 8)
	g := NewClosedCRR(b.loop, b.client, ipS, 0, 0) // clamps to 1 worker, default timeout
	g.Start()
	b.loop.Run(200 * sim.Millisecond)
	g.Stop()
	b.loop.Run(b.loop.Now() + sim.Second)
	if g.Completed() == 0 {
		t.Fatal("single-worker generator made no progress")
	}
}

func TestScaleKernel(t *testing.T) {
	b := newBed(t, 8)
	before := b.server.connCost
	b.server.ScaleKernel(0.5)
	if b.server.connCost != before*2 {
		t.Fatalf("ScaleKernel(0.5) should double connCost: %d -> %d", before, b.server.connCost)
	}
	b.server.ScaleKernel(0) // no-op
	if b.server.connCost != before*2 {
		t.Fatal("ScaleKernel(0) must be a no-op")
	}
}

func TestAbortRemovesConn(t *testing.T) {
	b := newBed(t, 8)
	b.client.Open(5000, ipS, ServerPort)
	if b.client.InFlight() != 1 {
		t.Fatal("open not tracked")
	}
	b.client.Abort(5000)
	if b.client.InFlight() != 0 {
		t.Fatal("abort did not remove")
	}
	// Late replies for the aborted conn are ignored gracefully.
	b.loop.RunAll()
	if b.client.Completed != 0 {
		t.Fatal("aborted conn completed")
	}
}
