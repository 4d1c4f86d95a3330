//go:build !race

package vswitch

// Tier-1 allocation guards for a packet handed over alone, a run of
// one (DESIGN.md §10): once a flow is established and the free lists
// have grown to the packets in flight, a packet costs no heap
// allocation from FromVM to deliverToVM. The benchmark's 10 % allocs_per_pkt bound cannot see a
// stray closure; these can. (Not under -race: the race runtime makes
// sync.Pool drop a share of the packets it is handed.)

import (
	"runtime"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/nic"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
)

// allocWorld is newWorld with VMs that release what they are handed and
// pooled packet injection, so the only allocations left are the path's.
func allocWorld(t *testing.T, nFEs int) *world {
	w := newWorld(t, nFEs, nil)
	release := func(_ uint32, p *packet.Packet, _ sim.Time) { p.Release() }
	w.A.SetDelivery(release)
	w.B.SetDelivery(release)
	return w
}

func (w *world) pooledSend(vs *VSwitch, vnic uint32, ft packet.FiveTuple) {
	pktID++
	vs.FromVM(packet.GetStamped(int64(w.loop.Now()), pktID, vpcID, vnic, ft, packet.DirTX, packet.FlagACK, 100))
	w.loop.RunAll()
}

// roundTrip is one established-flow packet each way, run to delivery.
func (w *world) roundTrip() {
	w.pooledSend(w.A, clientVNIC, tuple(1000))
	w.pooledSend(w.B, serverVNIC, tuple(1000).Reverse())
}

func (w *world) establish(t *testing.T) {
	t.Helper()
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	w.serverSend(1000, packet.FlagSYN|packet.FlagACK)
	w.loop.RunAll()
	before := w.A.Stats.Delivered + w.B.Stats.Delivered
	// Grow the free lists and pools, and walk the calendar queue's 4096
	// slots a few times so every bucket owns its event storage.
	const warm = 2048
	for i := 0; i < warm; i++ {
		w.roundTrip()
	}
	if got := w.A.Stats.Delivered + w.B.Stats.Delivered - before; got != 2*warm {
		t.Fatalf("warm-up delivered %d of %d packets (drops A=%v B=%v)", got, 2*warm, w.A.Stats.Drops, w.B.Stats.Drops)
	}
}

func TestScalarPathAllocFreeMonolithic(t *testing.T) {
	w := allocWorld(t, 0)
	w.installLocal(t, false)
	w.establish(t)
	if n := testing.AllocsPerRun(200, w.roundTrip); n != 0 {
		t.Fatalf("monolithic A→B→A round allocates %v per run, want 0", n)
	}
}

func TestScalarPathAllocFreeWithObs(t *testing.T) {
	w := allocWorld(t, 0)
	w.installLocal(t, false)
	// Every packet traced, and a log small enough to be full (and so
	// wrapping) throughout the measured runs.
	o := obs.New(obs.Options{Seed: 1, SampleRate: 1, MaxHops: 8})
	w.A.EnableObs(o)
	w.B.EnableObs(o)
	w.fab.EnableObs(o)
	w.establish(t)
	hops := o.Tracer.HopCount()
	if n := testing.AllocsPerRun(200, w.roundTrip); n != 0 {
		t.Fatalf("traced monolithic round allocates %v per run, want 0", n)
	}
	if o.Tracer.HopCount() == hops {
		t.Fatal("tracer recorded no hops; the guard measured nothing")
	}
}

func TestScalarPathAllocFreeOffloaded(t *testing.T) {
	w := allocWorld(t, 2)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	w.establish(t)
	if w.B.Stats.Sent == 0 || w.fes[0].Stats.Sent+w.fes[1].Stats.Sent == 0 {
		t.Fatal("traffic did not take the BE→FE→peer / peer→FE→BE path")
	}
	// Ten rounds per run: AllocsPerRun reports whole allocations per run,
	// so ≤ 1 here is ≤ 0.1 per round.
	tenRounds := func() {
		for i := 0; i < 10; i++ {
			w.roundTrip()
		}
	}
	if n := testing.AllocsPerRun(50, tenRounds); n > 1 {
		t.Fatalf("offloaded round allocates %v per 10 rounds, want ≤ 1", n)
	}
}

func TestSubmitTaskAllocFree(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := nic.NewCPU(loop, 2, 0, 0)
	var task sim.Task = nopTask{}
	submit := func() {
		if _, ok := cpu.SubmitTask(nic.FastPathCycles, task); !ok {
			t.Fatal("idle CPU refused work")
		}
		loop.RunAll()
	}
	submit()
	if n := testing.AllocsPerRun(200, submit); n != 0 {
		t.Fatalf("SubmitTask allocates %v per call, want 0", n)
	}
}

// TestOverloadDropAllocFree pins that a dropped packet returns its
// header view's box: a BE→FE packet refused by a saturated CPU hands
// its state view back to the BE's freelist, so the next attach reuses
// it instead of allocating.
func TestOverloadDropAllocFree(t *testing.T) {
	w := overloadedBE(t)
	w.beOverloadSend()
	box := w.B.boxes.Top()
	if box == nil {
		t.Fatal("the dropped packet's view box did not return to its home freelist")
	}
	drops := w.B.Stats.Drops[DropOverload]
	if n := testing.AllocsPerRun(100, w.beOverloadSend); n != 0 {
		t.Fatalf("an overload drop allocates %v per packet, want 0", n)
	}
	if got := w.B.Stats.Drops[DropOverload] - drops; got != 101 {
		t.Fatalf("%d overload drops over 101 packets", got)
	}
	if w.B.boxes.Top() != box || w.B.boxes.Idle() != 1 {
		t.Fatal("drops did not keep recycling the one box")
	}
}

// TestViewBoxLossAllocFree pins that a packet lost on the fabric with
// its header view still attached sends the box home: with every BE→FE
// packet dropped — by a chaos-style injector verdict, or by link loss
// (a partition) — the BE's offloaded send reuses one box instead of
// allocating a new one per packet.
func TestViewBoxLossAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(w *world)
	}{
		{"injector", func(w *world) {
			w.fab.SetFaultInjector(func(from, to packet.IPv4, _ *packet.Packet) fabric.FaultVerdict {
				return fabric.FaultVerdict{Drop: from == addrB && to != addrA}
			})
		}},
		{"link-loss", func(w *world) {
			for _, fe := range w.fes {
				w.fab.Partition(addrB, fe.Addr())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := allocWorld(t, 2)
			w.installLocal(t, false)
			w.offloadServer(t, false, true)
			w.establish(t)
			tc.cut(w)
			lost := w.fab.Lost + w.fab.ChaosLost
			send := func() { w.pooledSend(w.B, serverVNIC, tuple(1000).Reverse()) }
			send()
			if w.B.boxes.Top() == nil {
				t.Fatal("the lost packet's view box did not return to the BE's freelist")
			}
			if n := testing.AllocsPerRun(100, send); n != 0 {
				t.Fatalf("a lost offloaded BE send allocates %v per packet, want 0", n)
			}
			// One send, then AllocsPerRun's warm-up run and 100 measured.
			if got := w.fab.Lost + w.fab.ChaosLost - lost; got != 102 {
				t.Fatalf("fabric lost %d of 102 BE→FE packets", got)
			}
		})
	}
}

// TestViewBoxWireModeRecycles pins the wire-mode half: the marshalled
// bytes carry the header on, and releasing the original sends its box
// home, both for a bare Marshal-then-Release and through a wire-mode
// fabric's offloaded round.
func TestViewBoxWireModeRecycles(t *testing.T) {
	w := allocWorld(t, 2)
	p := packet.Get(1, vpcID, clientVNIC, tuple(4242), packet.DirTX, packet.FlagACK, 128)
	w.A.attachStateView(p, clientVNIC, packet.DirTX, viewTestState())
	box := p.Nezha.StateView.(*viewBox)
	packet.PutBuf(p.Marshal())
	p.Release()
	if w.A.boxes.Top() != box {
		t.Fatal("releasing a marshalled packet did not return its box to the home freelist")
	}

	w.fab.SetWireMode(true)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	w.establish(t)
	box = w.B.boxes.Top()
	if box == nil {
		t.Fatal("wire-mode offloaded rounds left no box on the BE's freelist")
	}
	w.roundTrip()
	if w.B.boxes.Top() != box || w.B.boxes.Idle() != 1 {
		t.Fatal("a wire-mode offloaded round did not send the BE's one box home")
	}
}

// TestEnableObsAllocs bounds what publishing one vSwitch's series costs
// on a fresh registry: a chaos campaign enables obs on every switch of
// every world. The bound does not grow with the series count: the
// table is registered in one allocation, and its keys and label sets
// wait for the first snapshot.
func TestEnableObsAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := newWorld(t, 0, nil)
	const runs = 10
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		o := obs.New(obs.Options{Seed: 1})
		runtime.ReadMemStats(&before)
		w.A.EnableObs(o)
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	n := total / runs
	t.Logf("EnableObs allocates %d times", n)
	if n > 4 {
		t.Fatalf("EnableObs allocates %d times on a fresh registry, want ≤ 4", n)
	}
}
