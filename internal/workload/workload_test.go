package workload

import (
	"math"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/state"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

type bed struct {
	loop     *sim.Loop
	fab      *fabric.Fabric
	gw       *fabric.Gateway
	swA, swB *vswitch.VSwitch
	client   *VM
	server   *VM
	idGen    uint64
}

var (
	addrA = packet.MakeIP(192, 168, 0, 1)
	addrB = packet.MakeIP(192, 168, 0, 2)
	ipC   = packet.MakeIP(10, 0, 1, 1)
	ipS   = packet.MakeIP(10, 0, 2, 1)
)

func newBed(t *testing.T, serverVCPUs int) *bed {
	t.Helper()
	b := &bed{loop: sim.NewLoop(11)}
	b.fab = fabric.New(b.loop)
	b.gw = fabric.NewGateway(b.loop)
	b.swA = vswitch.New(b.loop, b.fab, b.gw, vswitch.Config{Addr: addrA})
	b.swB = vswitch.New(b.loop, b.fab, b.gw, vswitch.Config{Addr: addrB})

	crs := tables.NewRuleSet(1, 7)
	crs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 2, 0), 24), packet.IPv4(2))
	if err := b.swA.AddVNIC(crs, false); err != nil {
		t.Fatal(err)
	}
	srs := tables.NewRuleSet(2, 7)
	srs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 1, 0), 24), packet.IPv4(1))
	if err := b.swB.AddVNIC(srs, false); err != nil {
		t.Fatal(err)
	}
	b.gw.Set(1, addrA)
	b.gw.Set(2, addrB)

	b.client = NewVM(b.loop, b.swA, 1, 7, ipC, 8, &b.idGen)
	b.server = NewVM(b.loop, b.swB, 2, 7, ipS, serverVCPUs, &b.idGen)
	b.swA.SetDelivery(b.client.OnDeliver)
	b.swB.SetDelivery(b.server.OnDeliver)
	return b
}

func TestMaxCPSShape(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 8, 16, 32, 64} {
		v := MaxCPS(n)
		if v <= prev {
			t.Fatalf("MaxCPS not increasing at %d vCPUs: %v <= %v", n, v, prev)
		}
		prev = v
	}
	// Sub-linear: doubling cores must not double throughput at scale.
	if MaxCPS(64) >= 2*MaxCPS(32)*0.95 {
		t.Fatalf("no kernel contention visible: 32=%v 64=%v", MaxCPS(32), MaxCPS(64))
	}
	if MaxCPS(0) != MaxCPS(1) {
		t.Fatal("vcpus clamp broken")
	}
}

func TestCRRTransactionCompletes(t *testing.T) {
	b := newBed(t, 8)
	var lat sim.Time
	b.client.OnComplete = func(l sim.Time) { lat = l }
	b.client.Open(2000, ipS, ServerPort)
	b.loop.RunAll()
	if b.client.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (server accepted=%d, drops A=%v B=%v)",
			b.client.Completed, b.server.Accepted, b.swA.Stats.Drops, b.swB.Stats.Drops)
	}
	if b.client.InFlight() != 0 {
		t.Fatal("connection state leaked")
	}
	// 6 packets, 1 hop each, ~5 µs/hop + processing: latency must be
	// tens of microseconds.
	if us := lat.Micros(); us < 10 || us > 1000 {
		t.Fatalf("transaction latency = %v µs, want tens of µs", us)
	}
}

func TestCRRLowRateAllComplete(t *testing.T) {
	b := newBed(t, 8)
	g := NewCRR(b.loop, b.loop.Rand(), b.client, ipS, 1000)
	g.Start()
	b.loop.Schedule(sim.Second, func() { g.Stop() })
	b.loop.RunAll()
	frac := float64(b.client.Completed) / float64(b.client.Started)
	if frac < 0.99 {
		t.Fatalf("only %.2f%% completed at low rate (started=%d)", frac*100, b.client.Started)
	}
}

func TestVMKernelBottleneck(t *testing.T) {
	// A 1-vCPU server caps around MaxCPS(1) ≈ 15K CPS even though the
	// vSwitch could do more.
	b := newBed(t, 1)
	g := NewCRR(b.loop, b.loop.Rand(), b.client, ipS, 60000)
	g.Start()
	b.loop.Schedule(sim.Second, func() { g.Stop() })
	b.loop.RunAll()
	cps := float64(b.server.Accepted)
	want := MaxCPS(1)
	if cps > want*1.3 {
		t.Fatalf("server accepted %.0f CPS, kernel cap is %.0f", cps, want)
	}
	if b.server.KernelDrops == 0 {
		t.Fatal("no kernel drops under 4x overload")
	}
}

func TestFlowHolderDistinctFlows(t *testing.T) {
	b := newBed(t, 8)
	h := NewFlowHolder(b.loop, b.client, ipS, sim.Second)
	h.RampN(500, 100*sim.Millisecond)
	b.loop.RunAll()
	if len(h.open) != 500 {
		t.Fatalf("opened = %d", len(h.open))
	}
	// Each flow creates a session entry at both vSwitches.
	if got := b.swB.Sessions().Len(); got < 500 {
		t.Fatalf("server sessions = %d, want >= 500", got)
	}
}

func TestFlowHolderPortWrapVariesIP(t *testing.T) {
	b := newBed(t, 8)
	h := NewFlowHolder(b.loop, b.client, ipS, sim.Second)
	h.RampN(70000, 2*sim.Second) // wraps the 16-bit port space
	b.loop.RunAll()
	if got := b.swB.Sessions().Len(); got < 69000 {
		t.Fatalf("server sessions = %d, want ~70000 (5-tuples must stay distinct)", got)
	}
}

func TestFlowHolderKeepAliveDefeatsAging(t *testing.T) {
	b := newBed(t, 8)
	h := NewFlowHolder(b.loop, b.client, ipS, sim.Second)
	h.RampN(100, 50*sim.Millisecond)
	b.loop.RunAll()
	// Keepalive every 500ms for 3 s, sweeping as we go.
	for i := 1; i <= 6; i++ {
		b.loop.Schedule(sim.Time(i)*500*sim.Millisecond, func() {
			h.KeepAlivePaced(100 * sim.Millisecond)
			b.swB.SweepSessions()
		})
	}
	b.loop.RunAll()
	if got := b.swB.Sessions().Len(); got < 100 {
		t.Fatalf("kept-alive sessions swept: %d", got)
	}
}

func TestSYNFloodSessionsAgeOut(t *testing.T) {
	b := newBed(t, 8)
	f := NewSYNFlood(b.loop, b.loop.Rand(), b.swA, 1, 7, ipC, ipS, 20000, &b.idGen)
	f.Start()
	b.loop.Schedule(500*sim.Millisecond, func() { f.Stop() })
	b.loop.RunAll()
	if f.Sent < 5000 {
		t.Fatalf("flood sent only %d", f.Sent)
	}
	peak := b.swB.Sessions().Len()
	if peak < 1000 {
		t.Fatalf("flood left only %d sessions", peak)
	}
	// Short SYN aging (§7.3) reclaims them.
	b.loop.Schedule(sim.Time(2*state.AgingSyn), func() { b.swB.SweepSessions() })
	b.loop.RunAll()
	if got := b.swB.Sessions().Len(); got != 0 {
		t.Fatalf("%d SYN sessions survived the short aging", got)
	}
}

func TestPingerLatencyThroughFastPath(t *testing.T) {
	b := newBed(t, 8)
	seen := 0
	b.swB.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		if p.PayloadLen > 0 {
			seen++
			if lat <= 0 || lat > sim.Millisecond {
				t.Errorf("latency %v out of expected band", lat)
			}
		}
	})
	pg := NewPinger(b.loop, b.client, ipS, 5000)
	pg.Run(10000, 100)
	b.loop.RunAll()
	if seen != 100 {
		t.Fatalf("delivered %d of 100 pinger packets", seen)
	}
	// One slow path (the SYN), the rest fast path.
	if b.swA.Stats.SlowPath != 1 {
		t.Fatalf("pinger took %d slow paths, want 1", b.swA.Stats.SlowPath)
	}
}

func TestCRRSetRate(t *testing.T) {
	b := newBed(t, 8)
	g := NewCRR(b.loop, b.loop.Rand(), b.client, ipS, 100)
	g.SetRate(200)
	if g.Rate() != 200 {
		t.Fatal("SetRate lost")
	}
}

func TestCRRStopHaltsOpens(t *testing.T) {
	b := newBed(t, 8)
	g := NewCRR(b.loop, b.loop.Rand(), b.client, ipS, 10000)
	g.Start()
	b.loop.Schedule(100*sim.Millisecond, func() { g.Stop() })
	b.loop.RunAll()
	started := b.client.Started
	if started == 0 {
		t.Fatal("nothing started")
	}
	// ~10000 * 0.1s = ~1000 expected; far fewer than a full second's
	// worth proves Stop worked.
	if math.Abs(float64(started)-1000) > 300 {
		t.Fatalf("started = %d, want ~1000 (Stop leaked?)", started)
	}
}

// TestGeneratorStartIsIdempotent pins that a second Start of a running
// generator neither adds an arrival chain (the open count matches a
// single Start) nor leaves one behind that opens after Stop, and that
// Start after Stop resumes (measurement rigs restart between windows).
func TestGeneratorStartIsIdempotent(t *testing.T) {
	type run struct{ opened, afterStop, restarted uint64 }
	crr := func(starts int) run {
		b := newBed(t, 8)
		g := NewCRR(b.loop, b.loop.Rand(), b.client, ipS, 5000)
		for i := 0; i < starts; i++ {
			g.Start()
		}
		b.loop.Run(200 * sim.Millisecond)
		g.Stop()
		opened := b.client.Started
		b.loop.Run(b.loop.Now() + sim.Second)
		r := run{opened, b.client.Started - opened, 0}
		g.Start()
		b.loop.Run(b.loop.Now() + 100*sim.Millisecond)
		r.restarted = b.client.Started - opened - r.afterStop
		return r
	}
	flood := func(starts int) run {
		b := newBed(t, 8)
		f := NewSYNFlood(b.loop, b.loop.Rand(), b.swA, 1, 7, ipC, ipS, 5000, &b.idGen)
		for i := 0; i < starts; i++ {
			f.Start()
		}
		b.loop.Run(200 * sim.Millisecond)
		f.Stop()
		sent := f.Sent
		b.loop.Run(b.loop.Now() + sim.Second)
		r := run{sent, f.Sent - sent, 0}
		f.Start()
		b.loop.Run(b.loop.Now() + 100*sim.Millisecond)
		r.restarted = f.Sent - sent - r.afterStop
		return r
	}
	for name, gen := range map[string]func(int) run{"CRR": crr, "SYNFlood": flood} {
		once, twice := gen(1), gen(2)
		if once.opened == 0 {
			t.Fatalf("%s: nothing opened", name)
		}
		if twice.opened != once.opened {
			t.Errorf("%s: double Start opened %d, single Start %d", name, twice.opened, once.opened)
		}
		if once.afterStop != 0 || twice.afterStop != 0 {
			t.Errorf("%s: opens after Stop: single Start %d, double Start %d", name, once.afterStop, twice.afterStop)
		}
		if once.restarted == 0 || twice.restarted == 0 {
			t.Errorf("%s: no opens after a restart", name)
		}
	}
}

// InFlight reports the client connections not yet completed.
func (vm *VM) InFlight() int { return vm.open }
