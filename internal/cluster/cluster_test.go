package cluster

import (
	"testing"

	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

const (
	nClients  = 8
	serverIdx = 8 // clients on 0..7, server VM here, pool beyond
)

// buildRig is a 16-server hotspot world on scaled vSwitches, its
// generators at rate 0.
func buildRig(t *testing.T, seed int64) *World {
	t.Helper()
	w, err := Build(Spec{Seed: seed, Servers: 16, Clients: nClients, ClientVCPUs: 8, ServerVCPUs: 64})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAutoOffloadOnHotspot(t *testing.T) {
	r := buildRig(t, 1)
	r.Start()
	r.SetLoad(2500 * nClients) // 20K CPS aggregate >> ~7.4K monolithic capacity
	r.StartLoad()

	// Window 1: before offload can complete (first second).
	r.Loop.Run(sim.Second)
	before := r.Completed()

	// Let the controller detect, offload, and stabilize.
	r.Loop.Run(5 * sim.Second)
	mid := r.Completed()

	// Window 2: steady state with Nezha.
	r.Loop.Run(8 * sim.Second)
	after := r.Completed()
	r.StopLoad()
	r.Loop.Run(r.Loop.Now() + sim.Second)

	if !r.Ctrl.Offloaded(ServerVNIC) {
		t.Fatalf("controller never offloaded the hot vNIC (offloads=%d)", r.Ctrl.Stats.Offloads)
	}
	fes := r.Ctrl.FEsOf(ServerVNIC)
	if len(fes) < 4 {
		t.Fatalf("FE pool = %d, want >= 4", len(fes))
	}
	cpsBefore := float64(before) / 1.0
	cpsAfter := float64(after-mid) / 3.0
	if cpsAfter < 1.8*cpsBefore {
		t.Fatalf("CPS gain %.2fx (before=%.0f after=%.0f), want >= 1.8x",
			cpsAfter/cpsBefore, cpsBefore, cpsAfter)
	}
	// Gateway must now resolve the vNIC to FE addresses.
	addrs, ok := r.GW.Lookup(ServerVNIC)
	if !ok || len(addrs) < 4 {
		t.Fatalf("gateway not remapped: %v", addrs)
	}
	for _, a := range addrs {
		if a == ServerAddr(serverIdx) {
			t.Fatal("gateway still points at the BE")
		}
	}
}

func TestOffloadCompletionTimes(t *testing.T) {
	r := buildRig(t, 2)
	r.Start()
	r.SetLoad(2500 * nClients)
	r.StartLoad()
	r.Loop.Run(6 * sim.Second)
	r.StopLoad()
	r.Loop.Run(r.Loop.Now() + sim.Second)

	h := &r.Ctrl.OffloadCompletion
	if h.Count() == 0 {
		t.Fatal("no offload completions recorded")
	}
	avg := h.Mean()
	if avg < 300 || avg > 3000 {
		t.Fatalf("offload completion avg = %.0f ms, want O(1s) (Table 4)", avg)
	}
}

func TestFailoverAfterFECrash(t *testing.T) {
	r := buildRig(t, 3)
	r.Start()
	r.SetLoad(2500 * nClients)
	r.StartLoad()
	r.Loop.Run(5 * sim.Second) // offload completes
	if !r.Ctrl.Offloaded(ServerVNIC) {
		t.Fatal("precondition: not offloaded")
	}
	fes := r.Ctrl.FEsOf(ServerVNIC)
	if len(fes) == 0 {
		t.Fatal("no FEs")
	}
	// Crash the first FE's vSwitch.
	var victim *vswitch.VSwitch
	for _, vs := range r.Switches {
		if vs.Addr() == fes[0] {
			victim = vs
		}
	}
	victim.Crash()
	crashAt := r.Loop.Now()

	r.Loop.Run(crashAt + 10*sim.Second)
	r.StopLoad()
	r.Loop.Run(r.Loop.Now() + sim.Second)

	if r.Ctrl.Stats.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", r.Ctrl.Stats.Failovers)
	}
	after := r.Ctrl.FEsOf(ServerVNIC)
	for _, a := range after {
		if a == victim.Addr() {
			t.Fatal("dead FE still in pool")
		}
	}
	if len(after) < 4 {
		t.Fatalf("pool not replenished to MinFEs: %d", len(after))
	}
	// The gateway must agree.
	addrs, _ := r.GW.Lookup(ServerVNIC)
	for _, a := range addrs {
		if a == victim.Addr() {
			t.Fatal("gateway still lists the dead FE")
		}
	}
}

func TestFallbackWhenLoadSubsides(t *testing.T) {
	r := buildRig(t, 4)
	r.Start()
	r.SetLoad(2500 * nClients)
	r.StartLoad()
	r.Loop.Run(5 * sim.Second)
	if !r.Ctrl.Offloaded(ServerVNIC) {
		t.Fatal("precondition: not offloaded")
	}
	// Load vanishes; the fallback checker (10s cadence) must bring
	// the vNIC home.
	r.StopLoad()
	r.Loop.Run(40 * sim.Second)
	if r.Ctrl.Offloaded(ServerVNIC) {
		t.Fatalf("no fallback after load subsided (fallbacks=%d)", r.Ctrl.Stats.Fallbacks)
	}
	// Gateway points home again.
	addrs, ok := r.GW.Lookup(ServerVNIC)
	if !ok || len(addrs) != 1 || addrs[0] != ServerAddr(serverIdx) {
		t.Fatalf("gateway after fallback: %v", addrs)
	}
	// And traffic flows locally.
	pre := r.Completed()
	r.SetLoad(500 * nClients)
	r.StartLoad()
	r.Loop.Run(r.Loop.Now() + 2*sim.Second)
	r.StopLoad()
	r.Loop.Run(r.Loop.Now() + sim.Second)
	if r.Completed() == pre {
		t.Fatal("no traffic after fallback")
	}
}

func TestScaleOutUnderFEPressure(t *testing.T) {
	r := buildRig(t, 5)
	r.Start()
	r.SetLoad(2500 * nClients)
	r.StartLoad()
	r.Loop.Run(12 * sim.Second)
	r.StopLoad()
	r.Loop.Run(r.Loop.Now() + sim.Second)
	// 20K CPS over 4 weak FEs ≈ 65% each — the controller must have
	// scaled the pool out beyond the initial 4.
	if r.Ctrl.Stats.ScaleOuts == 0 {
		t.Fatalf("no scale-outs under FE pressure (FEs=%d)", len(r.Ctrl.FEsOf(ServerVNIC)))
	}
	if len(r.Ctrl.FEsOf(ServerVNIC)) <= 4 {
		t.Fatalf("pool did not grow: %d", len(r.Ctrl.FEsOf(ServerVNIC)))
	}
}

func TestAddVMErrors(t *testing.T) {
	c := New(Options{Servers: 2, Seed: 1})
	if _, err := c.AddVM(VMSpec{Server: 5, MakeRules: func() *tables.RuleSet { return tables.NewRuleSet(1, 1) }}); err == nil {
		t.Fatal("out-of-range server accepted")
	}
	spec := VMSpec{
		Server: 0, VNIC: 1, VPC: 1, IP: packet.MakeIP(10, 0, 0, 1), VCPUs: 1,
		MakeRules: func() *tables.RuleSet { return tables.NewRuleSet(1, 1) },
	}
	if _, err := c.AddVM(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVM(spec); err == nil {
		t.Fatal("duplicate vNIC accepted")
	}
}

func TestTwoSubnetRulesHelper(t *testing.T) {
	mk := TwoSubnetRules(1, 7, tables.MakePrefix(packet.MakeIP(10, 0, 2, 0), 24), 2)
	rs1, rs2 := mk(), mk()
	if rs1 == rs2 {
		t.Fatal("factory must return fresh copies")
	}
	if rs1.VNIC != 1 || rs1.VPC != 7 {
		t.Fatal("identity wrong")
	}
	if peer, _, _ := rs1.ResolvePeer(packet.MakeIP(10, 0, 2, 50)); peer != 2 {
		t.Fatal("route missing")
	}
}

func TestServerAddrDistinct(t *testing.T) {
	seen := make(map[packet.IPv4]bool)
	for i := 0; i < 1000; i++ {
		a := ServerAddr(i)
		if seen[a] {
			t.Fatalf("duplicate address at %d", i)
		}
		seen[a] = true
	}
}

// TestConvergenceAfterChaos: after an arbitrary sequence of FE
// crashes, revivals, and link partitions, once the system settles,
// the three views of every offloaded vNIC's pool — the controller,
// the gateway, and the BE's FE-location config — agree, every listed
// FE actually hosts the instance and is alive, and the pool holds the
// 4-FE floor.
func TestConvergenceAfterChaos(t *testing.T) {
	r := buildRig(t, 9)
	r.Start()
	r.SetLoad(1000 * nClients) // light steady traffic
	r.StartLoad()
	if err := r.Ctrl.ForceOffload(ServerVNIC); err != nil {
		t.Fatal(err)
	}
	r.Loop.Run(4 * sim.Second)

	rng := r.Loop.Rand()
	var crashed []*vswitch.VSwitch
	for round := 0; round < 6; round++ {
		fes := r.Ctrl.FEsOf(ServerVNIC)
		if len(fes) > 0 {
			switch rng.Intn(3) {
			case 0: // crash a random FE
				a := fes[rng.Intn(len(fes))]
				for _, vs := range r.Switches {
					if vs.Addr() == a && !vs.Crashed() {
						vs.Crash()
						crashed = append(crashed, vs)
					}
				}
			case 1: // partition the BE from a random FE
				a := fes[rng.Intn(len(fes))]
				r.Fab.Partition(ServerAddr(serverIdx), a)
			case 2: // revive one crashed switch
				if len(crashed) > 0 {
					vs := crashed[len(crashed)-1]
					crashed = crashed[:len(crashed)-1]
					vs.Revive()
					r.Ctrl.NodeUp(vs.Addr())
				}
			}
		}
		r.Loop.Run(r.Loop.Now() + 4*sim.Second)
	}
	// Settle.
	r.Loop.Run(r.Loop.Now() + 12*sim.Second)
	r.StopLoad()
	r.Loop.Run(r.Loop.Now() + sim.Second)

	if !r.Ctrl.Offloaded(ServerVNIC) {
		t.Skip("fallback engaged during chaos; nothing to check")
	}
	ctrlView := r.Ctrl.FEsOf(ServerVNIC)
	gwView, _ := r.GW.Lookup(ServerVNIC)
	beView := r.Switch(serverIdx).FEList(ServerVNIC)

	asSet := func(xs []packet.IPv4) map[packet.IPv4]bool {
		m := make(map[packet.IPv4]bool)
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	cs, gs, bs := asSet(ctrlView), asSet(gwView), asSet(beView)
	if len(cs) != len(gs) || len(cs) != len(bs) {
		t.Fatalf("views diverged:\ncontroller=%v\ngateway=%v\nBE=%v", ctrlView, gwView, beView)
	}
	for a := range cs {
		if !gs[a] || !bs[a] {
			t.Fatalf("FE %v not in all views:\ncontroller=%v\ngateway=%v\nBE=%v", a, ctrlView, gwView, beView)
		}
	}
	if len(cs) < 4 {
		t.Fatalf("pool below the floor: %v", ctrlView)
	}
	for a := range cs {
		for _, vs := range r.Switches {
			if vs.Addr() != a {
				continue
			}
			if vs.Crashed() {
				t.Fatalf("crashed FE %v still in the pool", a)
			}
			if !vs.HostsFE(ServerVNIC) {
				t.Fatalf("FE %v in views but not hosting", a)
			}
			if r.Fab.Partitioned(ServerAddr(serverIdx), a) {
				t.Fatalf("partitioned FE %v still in the pool", a)
			}
		}
	}
}
