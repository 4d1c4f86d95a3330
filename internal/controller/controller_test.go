package controller

import (
	"slices"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/journal"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

func ip(a, b, c, d byte) packet.IPv4 { return packet.MakeIP(a, b, c, d) }

type rig struct {
	loop *sim.Loop
	fab  *fabric.Fabric
	gw   *fabric.Gateway
	ctrl *Controller
	sw   []*vswitch.VSwitch
}

func newRig(t *testing.T, n int, tors []int) *rig {
	t.Helper()
	r := &rig{loop: sim.NewLoop(9)}
	r.fab = fabric.New(r.loop)
	r.gw = fabric.NewGateway(r.loop)
	r.ctrl = New(r.loop, r.fab, r.gw, DefaultConfig())
	for i := 0; i < n; i++ {
		tor := 0
		if tors != nil {
			tor = tors[i]
		}
		vs := vswitch.New(r.loop, r.fab, r.gw, vswitch.Config{Addr: ip(10, 0, 0, byte(i+1)), ToR: tor})
		r.sw = append(r.sw, vs)
		r.ctrl.RegisterNode(vs)
	}
	return r
}

func mkRules(vnic uint32) func() *tables.RuleSet {
	return func() *tables.RuleSet { return tables.NewRuleSet(vnic, 1) }
}

func TestSelectFEsPrefersSameToR(t *testing.T) {
	// Home in ToR 0 with 2 same-ToR candidates and many in ToR 1.
	r := newRig(t, 8, []int{0, 0, 0, 1, 1, 1, 1, 1})
	home := r.sw[0].Addr()
	fes := r.ctrl.selectFEs(home, 4, nil)
	if len(fes) != 4 {
		t.Fatalf("selected %d", len(fes))
	}
	sameToR := 0
	for _, a := range fes {
		if a == r.sw[1].Addr() || a == r.sw[2].Addr() {
			sameToR++
		}
	}
	if sameToR != 2 {
		t.Fatalf("same-ToR candidates used %d/2; selection order wrong: %v", sameToR, fes)
	}
	for _, a := range fes {
		if a == home {
			t.Fatal("home selected as its own FE")
		}
	}
}

func TestSelectFEsExcludesBusyAndDown(t *testing.T) {
	r := newRig(t, 5, nil)
	// Node 1 is busy (high sampled util), node 2 is down.
	r.ctrl.nodes[r.sw[1].Addr()].cpuUtil = 0.9
	r.ctrl.nodes[r.sw[2].Addr()].down = true
	fes := r.ctrl.selectFEs(r.sw[0].Addr(), 4, nil)
	for _, a := range fes {
		if a == r.sw[1].Addr() {
			t.Fatal("busy node selected")
		}
		if a == r.sw[2].Addr() {
			t.Fatal("down node selected")
		}
	}
	if len(fes) != 2 {
		t.Fatalf("want the 2 healthy candidates, got %d", len(fes))
	}
	// Explicit exclusion.
	fes = r.ctrl.selectFEs(r.sw[0].Addr(), 4, map[packet.IPv4]bool{r.sw[3].Addr(): true})
	for _, a := range fes {
		if a == r.sw[3].Addr() {
			t.Fatal("excluded node selected")
		}
	}
}

func TestForceOffloadWorkflow(t *testing.T) {
	r := newRig(t, 6, nil)
	if err := r.sw[0].AddVNIC(tables.NewRuleSet(42, 1), false); err != nil {
		t.Fatal(err)
	}
	r.gw.Set(42, r.sw[0].Addr())
	r.ctrl.RegisterVNIC(VNICInfo{VNIC: 42, Home: r.sw[0].Addr(), MakeRules: mkRules(42)})

	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5 * sim.Second)
	if !r.ctrl.Offloaded(42) {
		t.Fatal("not offloaded")
	}
	if len(r.ctrl.FEsOf(42)) != 4 {
		t.Fatalf("FEs = %d, want 4 (InitialFEs)", len(r.ctrl.FEsOf(42)))
	}
	// FE hosts actually carry the instance.
	hosting := 0
	for _, vs := range r.sw {
		if vs.HostsFE(42) {
			hosting++
		}
	}
	if hosting != 4 {
		t.Fatalf("hosting = %d", hosting)
	}
	// The BE entered the final stage: rules gone, BE data charged.
	if got := r.sw[0].VNICRuleBytes(42); got != 0 {
		t.Fatalf("BE rule bytes = %d, want 0 after final stage", got)
	}
	if r.ctrl.Stats.Offloads != 1 {
		t.Fatalf("offload count = %d", r.ctrl.Stats.Offloads)
	}
	// Completion recorded in the Table 4 histogram.
	if r.ctrl.OffloadCompletion.Count() != 1 {
		t.Fatal("completion not recorded")
	}
	ms := r.ctrl.OffloadCompletion.Mean()
	if ms < 200 || ms > 4000 {
		t.Fatalf("completion = %.0f ms, want O(1s)", ms)
	}
	// Idempotent.
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
}

func TestForceOffloadErrors(t *testing.T) {
	r := newRig(t, 1, nil)
	if err := r.ctrl.ForceOffload(7); err == nil {
		t.Fatal("unknown vNIC accepted")
	}
	// No idle nodes: only the home exists.
	if err := r.sw[0].AddVNIC(tables.NewRuleSet(7, 1), false); err != nil {
		t.Fatal(err)
	}
	r.ctrl.RegisterVNIC(VNICInfo{VNIC: 7, Home: r.sw[0].Addr(), MakeRules: mkRules(7)})
	if err := r.ctrl.ForceOffload(7); err != ErrNoIdleNodes {
		t.Fatalf("want ErrNoIdleNodes, got %v", err)
	}
}

func TestForceFallbackRoundtrip(t *testing.T) {
	r := newRig(t, 6, nil)
	if err := r.sw[0].AddVNIC(tables.NewRuleSet(42, 1), false); err != nil {
		t.Fatal(err)
	}
	r.gw.Set(42, r.sw[0].Addr())
	r.ctrl.RegisterVNIC(VNICInfo{VNIC: 42, Home: r.sw[0].Addr(), MakeRules: mkRules(42)})
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5 * sim.Second)
	if err := r.ctrl.deliver(event{kind: evForceFallback, vnic: 42}); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(10 * sim.Second)
	if r.ctrl.Offloaded(42) {
		t.Fatal("still offloaded after fallback")
	}
	for _, vs := range r.sw {
		if vs.HostsFE(42) {
			t.Fatal("FE instance leaked after fallback")
		}
	}
	if got := r.sw[0].VNICRuleBytes(42); got == 0 {
		t.Fatal("rules not restored at home")
	}
	addrs, _ := r.gw.Lookup(42)
	if len(addrs) != 1 || addrs[0] != r.sw[0].Addr() {
		t.Fatalf("gateway after fallback: %v", addrs)
	}
	if r.ctrl.Stats.Fallbacks != 1 {
		t.Fatal("fallback not counted")
	}
}

func TestNodeDownEvictsAndReplenishes(t *testing.T) {
	r := newRig(t, 8, nil)
	if err := r.sw[0].AddVNIC(tables.NewRuleSet(42, 1), false); err != nil {
		t.Fatal(err)
	}
	r.gw.Set(42, r.sw[0].Addr())
	r.ctrl.RegisterVNIC(VNICInfo{VNIC: 42, Home: r.sw[0].Addr(), MakeRules: mkRules(42)})
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5 * sim.Second)
	victim := r.ctrl.FEsOf(42)[0]

	r.ctrl.NodeDown(victim)
	r.loop.Run(10 * sim.Second)

	fes := r.ctrl.FEsOf(42)
	for _, a := range fes {
		if a == victim {
			t.Fatal("victim still in pool")
		}
	}
	if len(fes) != 4 {
		t.Fatalf("pool = %d, want MinFEs=4 (delete + add, §4.4)", len(fes))
	}
	// Duplicate NodeDown is a no-op.
	before := r.ctrl.Stats.Failovers
	r.ctrl.NodeDown(victim)
	if r.ctrl.Stats.Failovers != before {
		t.Fatal("duplicate NodeDown counted")
	}
	r.ctrl.NodeUp(victim)
	if r.ctrl.nodes[victim].down {
		t.Fatal("NodeUp did not clear")
	}
}

func TestNodeDownAboveMinKeepsPoolSmaller(t *testing.T) {
	// With 6 FEs, losing one leaves 5 ≥ MinFEs: delete only (§4.4).
	cfg := DefaultConfig()
	cfg.InitialFEs = 6
	r := newRig(t, 10, nil)
	r.ctrl.cfg = cfg
	if err := r.sw[0].AddVNIC(tables.NewRuleSet(42, 1), false); err != nil {
		t.Fatal(err)
	}
	r.gw.Set(42, r.sw[0].Addr())
	r.ctrl.RegisterVNIC(VNICInfo{VNIC: 42, Home: r.sw[0].Addr(), MakeRules: mkRules(42)})
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5 * sim.Second)
	if len(r.ctrl.FEsOf(42)) != 6 {
		t.Fatalf("precondition: %d FEs", len(r.ctrl.FEsOf(42)))
	}
	r.ctrl.NodeDown(r.ctrl.FEsOf(42)[0])
	r.loop.Run(10 * sim.Second)
	if got := len(r.ctrl.FEsOf(42)); got != 5 {
		t.Fatalf("pool = %d, want 5 (no automatic replacement above MinFEs)", got)
	}
}

func TestDefaultConfigValues(t *testing.T) {
	c := DefaultConfig()
	if offloadThreshold != 0.70 || scaleThreshold != 0.40 {
		t.Fatal("Fig 8 thresholds wrong")
	}
	if c.InitialFEs != 4 || c.MinFEs != 4 {
		t.Fatal("FE counts wrong (Appendix B.2)")
	}
}

func TestPushDelayDistribution(t *testing.T) {
	r := newRig(t, 1, nil)
	var sum sim.Time
	max := sim.Time(0)
	const n = 2000
	for i := 0; i < n; i++ {
		d := r.ctrl.pushDelay()
		if d <= 0 {
			t.Fatal("non-positive push delay")
		}
		sum += d
		if d > max {
			max = d
		}
	}
	avg := (sum / n).Seconds()
	if avg < 0.3 || avg > 1.2 {
		t.Fatalf("avg push delay = %.2fs, want sub-second", avg)
	}
	if max.Seconds() > 5 {
		t.Fatalf("max push delay = %.2fs, implausible", max.Seconds())
	}
}

func TestLinkDownEvictsFromOneBEOnly(t *testing.T) {
	// §C.1: a BE-FE link failure removes the FE from that BE's pools
	// only; other BEs sharing the FE keep it (the FE itself is fine).
	r := newRig(t, 10, nil)
	for _, vnic := range []uint32{41, 42} {
		home := r.sw[vnic-41].Addr() // vnic 41 on sw0, 42 on sw1
		if err := r.sw[vnic-41].AddVNIC(tables.NewRuleSet(vnic, 1), false); err != nil {
			t.Fatal(err)
		}
		r.gw.Set(vnic, home)
		r.ctrl.RegisterVNIC(VNICInfo{VNIC: vnic, Home: home, MakeRules: mkRules(vnic)})
		if err := r.ctrl.ForceOffload(vnic); err != nil {
			t.Fatal(err)
		}
	}
	r.loop.Run(5 * sim.Second)

	// Find an FE shared by both pools, or at least one of vnic 41's.
	fes41 := r.ctrl.FEsOf(41)
	if len(fes41) != 4 {
		t.Fatalf("precondition: %d FEs", len(fes41))
	}
	victim := fes41[0]
	shared := false
	for _, a := range r.ctrl.FEsOf(42) {
		if a == victim {
			shared = true
		}
	}

	r.ctrl.LinkDown(r.sw[0].Addr(), victim)
	r.loop.Run(r.loop.Now() + 8*sim.Second)

	for _, a := range r.ctrl.FEsOf(41) {
		if a == victim {
			t.Fatal("victim still serving vnic 41")
		}
	}
	if got := len(r.ctrl.FEsOf(41)); got < 4 {
		t.Fatalf("pool 41 not replenished: %d", got)
	}
	if shared {
		still := false
		for _, a := range r.ctrl.FEsOf(42) {
			if a == victim {
				still = true
			}
		}
		if !still {
			t.Fatal("vnic 42 (different BE) lost the FE too")
		}
	}
	// Unknown pairs are a no-op.
	r.ctrl.LinkDown(ip(9, 9, 9, 9), victim)
}

func TestOffloadToOperatorTargets(t *testing.T) {
	// §7.2: steer a vNIC to specific (e.g. upgraded) vSwitches.
	r := newRig(t, 8, nil)
	if err := r.sw[0].AddVNIC(tables.NewRuleSet(42, 1), false); err != nil {
		t.Fatal(err)
	}
	r.gw.Set(42, r.sw[0].Addr())
	r.ctrl.RegisterVNIC(VNICInfo{VNIC: 42, Home: r.sw[0].Addr(), MakeRules: mkRules(42)})

	targets := []packet.IPv4{r.sw[5].Addr(), r.sw[6].Addr()}
	if err := r.ctrl.OffloadTo(42, targets); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5 * sim.Second)
	got := r.ctrl.FEsOf(42)
	if len(got) != 2 || got[0] != targets[0] || got[1] != targets[1] {
		t.Fatalf("FEs = %v, want %v", got, targets)
	}
	if !r.sw[5].HostsFE(42) || !r.sw[6].HostsFE(42) {
		t.Fatal("targets not hosting")
	}

	// Error paths.
	if err := r.ctrl.OffloadTo(42, targets); err == nil {
		t.Fatal("double offload accepted")
	}
	if err := r.ctrl.OffloadTo(99, targets); err == nil {
		t.Fatal("unknown vNIC accepted")
	}
	if err := r.ctrl.deliver(event{kind: evForceFallback, vnic: 42}); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(r.loop.Now() + 10*sim.Second)
	if err := r.ctrl.OffloadTo(42, nil); err == nil {
		t.Fatal("empty target set accepted")
	}
	if err := r.ctrl.OffloadTo(42, []packet.IPv4{r.sw[0].Addr()}); err == nil {
		t.Fatal("home as its own FE accepted")
	}
	if err := r.ctrl.OffloadTo(42, []packet.IPv4{ip(9, 9, 9, 9)}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// addVNIC wires vNIC 42 at sw[0] the way the cluster layer would.
func addVNIC42(t *testing.T, r *rig) {
	t.Helper()
	if err := r.sw[0].AddVNIC(tables.NewRuleSet(42, 1), false); err != nil {
		t.Fatal(err)
	}
	r.gw.Set(42, r.sw[0].Addr())
	r.ctrl.RegisterVNIC(VNICInfo{VNIC: 42, Home: r.sw[0].Addr(), MakeRules: mkRules(42)})
}

func TestOffloadAbortedByCrashMidPrepare(t *testing.T) {
	r := newRig(t, 6, nil)
	addVNIC42(t, r)
	byAddr := map[packet.IPv4]*vswitch.VSwitch{}
	for _, vs := range r.sw {
		byAddr[vs.Addr()] = vs
	}
	// One prepare target dies before it can ack its install. With the
	// default all-targets quorum the transaction must abort.
	var victim packet.IPv4
	armed := true
	r.ctrl.SetPrepareHook(func(vnic uint32, targets []packet.IPv4) {
		if !armed {
			return
		}
		armed = false
		victim = targets[0]
		byAddr[victim].Crash()
	})
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(6 * sim.Second)

	if r.ctrl.Offloaded(42) {
		t.Fatal("offload committed despite a crashed prepare target")
	}
	if r.ctrl.Stats.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", r.ctrl.Stats.Aborts)
	}
	if r.ctrl.Stats.Offloads != 0 {
		t.Fatal("aborted offload counted as completed")
	}
	// Rollback: no healthy node keeps a prepared FE instance.
	for _, vs := range r.sw {
		if vs.Addr() != victim && vs.HostsFE(42) {
			t.Fatalf("prepared FE leaked at %v after abort", vs.Addr())
		}
	}
	// The gateway was never flipped: the vNIC is fully local.
	if addrs, _ := r.gw.Lookup(42); len(addrs) != 1 || addrs[0] != r.sw[0].Addr() {
		addrs, _ := r.gw.Lookup(42)
		t.Fatalf("gateway after abort: %v, want just the home", addrs)
	}
	// Inside the cooldown the retry is refused...
	if err := r.ctrl.ForceOffload(42); err != ErrCoolingDown {
		t.Fatalf("retry inside cooldown: %v, want ErrCoolingDown", err)
	}
	// ...and past it the offload goes through.
	byAddr[victim].Revive()
	r.loop.Run(r.loop.Now() + 6*sim.Second)
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatalf("retry after cooldown: %v", err)
	}
	r.loop.Run(r.loop.Now() + 6*sim.Second)
	if !r.ctrl.Offloaded(42) {
		t.Fatal("retry after cooldown did not commit")
	}
	// The parked teardown on the revived victim eventually resolves.
	r.ctrl.deliver(event{kind: evRepair})
	r.loop.Run(r.loop.Now() + 6*sim.Second)
	if in := r.ctrl.nodes[victim].pendingRemoval; len(in) != 0 && !r.sw[0].HostsFE(42) {
		t.Fatalf("victim teardown never reconciled: %v", in)
	}
}

func TestScaleOutWithAllCandidatesExcluded(t *testing.T) {
	// Exactly home + InitialFEs switches: after the offload there is
	// no spare capacity anywhere.
	r := newRig(t, 5, nil)
	addVNIC42(t, r)
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5 * sim.Second)
	if len(r.ctrl.FEsOf(42)) != 4 {
		t.Fatalf("precondition: pool = %d", len(r.ctrl.FEsOf(42)))
	}
	v := r.ctrl.vnics[42]
	// A scale-out with nothing to select is a clean no-op: no dangling
	// transaction, pool at the floor so not degraded either.
	if err := r.ctrl.deliver(event{kind: evScaleOut, vnic: 42, n: 2}); err != ErrNoIdleNodes {
		t.Fatalf("scale-out with zero candidates: %v, want ErrNoIdleNodes", err)
	}
	if v.txn != nil {
		t.Fatal("no-op scale-out left transaction state behind")
	}
	if r.ctrl.Degraded(42) {
		t.Fatal("pool at the floor marked degraded")
	}
	// Losing a member with no replacement flags the pool degraded.
	r.ctrl.NodeDown(r.ctrl.FEsOf(42)[0])
	r.loop.Run(r.loop.Now() + 5*sim.Second)
	if got := len(r.ctrl.FEsOf(42)); got != 3 {
		t.Fatalf("pool after eviction = %d, want 3", got)
	}
	if !r.ctrl.Degraded(42) {
		t.Fatal("short pool with no candidates not flagged degraded")
	}
	if r.ctrl.Stats.ScaleOuts != 0 {
		t.Fatal("phantom scale-out committed")
	}
}

// TestScaleOutCommitKeepsConcurrentRemoval: an FE removed while a
// scale-out's commit RPCs are in flight stays out of the pool and the
// gateway set — the commit adopts its targets onto the pool as it is
// then, not onto the snapshot it pushed — and the pool the controller
// adopts is the one the gateway ends up with.
func TestScaleOutCommitKeepsConcurrentRemoval(t *testing.T) {
	for _, tc := range []struct {
		name string
		// removeAt reports when, during the commit, the member goes.
		removeAt func(r *rig, tx *txn) bool
	}{
		// The shrink overtakes the commit's pushes at the gateway.
		{"before the BE ack", func(r *rig, tx *txn) bool { return tx.resolved }},
		// The shrink lands on top of the commit's gateway flip.
		{"after the gateway flip", func(r *rig, tx *txn) bool { return r.gw.Epoch(42) == tx.epoch }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 8, nil)
			addVNIC42(t, r)
			if err := r.ctrl.ForceOffload(42); err != nil {
				t.Fatal(err)
			}
			r.loop.Run(5 * sim.Second)
			v := r.ctrl.vnics[42]
			if len(v.fes) != 4 {
				t.Fatalf("precondition: pool = %v", v.fes)
			}
			victim := v.fes[0]
			if err := r.ctrl.deliver(event{kind: evScaleOut, vnic: 42, n: 2}); err != nil {
				t.Fatalf("scale-out did not start: %v", err)
			}
			tx := v.txn
			for !tc.removeAt(r, tx) && r.loop.Step() {
			}
			if v.txn != tx || len(tx.committed) != 2 {
				t.Fatalf("precondition: scale-out not committing (txn=%p committed=%v)", v.txn, tx.committed)
			}
			// The home BE loses its link to a member: a graceful
			// removal whose shrink races the commit.
			r.ctrl.LinkDown(r.sw[0].Addr(), victim)
			r.loop.Run(r.loop.Now() + 5*sim.Second)
			if v.txn != nil || r.ctrl.Stats.ScaleOuts != 1 {
				t.Fatalf("scale-out did not commit (txn=%v scaleouts=%d)", v.txn, r.ctrl.Stats.ScaleOuts)
			}
			// Land whatever re-push the race left owed.
			r.ctrl.deliver(event{kind: evRepair})
			r.loop.Run(r.loop.Now() + 5*sim.Second)

			fes := r.ctrl.FEsOf(42)
			gwSet, _ := r.gw.Lookup(42)
			if slices.Contains(fes, victim) || slices.Contains(gwSet, victim) {
				t.Fatalf("removed FE %v resurrected: pool %v, gateway %v", victim, fes, gwSet)
			}
			if len(fes) != 5 || !slices.Equal(fes, gwSet) {
				t.Fatalf("pool %v and gateway %v, want the same 5 FEs (4 - 1 + 2)", fes, gwSet)
			}
		})
	}
}

func TestFallbackAbortsWhenBEPushFails(t *testing.T) {
	r := newRig(t, 6, nil)
	addVNIC42(t, r)
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5 * sim.Second)
	if !r.ctrl.Offloaded(42) {
		t.Fatal("precondition: not offloaded")
	}
	if got := r.sw[0].VNICRuleBytes(42); got != 0 {
		t.Fatalf("precondition: home still holds %d rule bytes (finalize never ran)", got)
	}
	// Fill the home's config memory so FallbackStart cannot reinstall
	// the rule tables.
	free := r.sw[0].MemFreeBytes()
	release, ok := r.sw[0].InjectMemPressure(free - 8)
	if !ok {
		t.Fatalf("could not inject %d bytes of pressure", free-8)
	}
	if err := r.ctrl.deliver(event{kind: evForceFallback, vnic: 42}); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(r.loop.Now() + 5*sim.Second)
	if !r.ctrl.Offloaded(42) {
		t.Fatal("fallback committed despite the BE rejecting its tables")
	}
	if r.ctrl.Stats.Aborts != 1 || r.ctrl.Stats.Fallbacks != 0 {
		t.Fatalf("Aborts=%d Fallbacks=%d, want 1/0", r.ctrl.Stats.Aborts, r.ctrl.Stats.Fallbacks)
	}
	if v := r.ctrl.vnics[42]; v.txn != nil || v.inProgress {
		t.Fatal("aborted fallback left transaction state behind")
	}
	// Releasing the pressure makes the retry succeed.
	release()
	if err := r.ctrl.deliver(event{kind: evForceFallback, vnic: 42}); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(r.loop.Now() + 10*sim.Second)
	if r.ctrl.Offloaded(42) {
		t.Fatal("fallback retry did not commit")
	}
	if r.sw[0].VNICRuleBytes(42) == 0 {
		t.Fatal("rules not restored at home")
	}
}

func TestDegradedPoolRepairConverges(t *testing.T) {
	r := newRig(t, 5, nil)
	addVNIC42(t, r)
	// Drive the repair loop the way Start would, without the
	// threshold-decision tickers muddying the scenario.
	r.loop.Every(repairInterval, func() { r.ctrl.deliver(event{kind: evRepair}) })
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5 * sim.Second)

	victims := r.ctrl.FEsOf(42)[:2]
	for _, a := range victims {
		r.ctrl.NodeDown(a)
	}
	r.loop.Run(r.loop.Now() + 5*sim.Second)
	if !r.ctrl.Degraded(42) {
		t.Fatal("pool at 2/4 with no candidates not degraded")
	}
	if r.ctrl.Stats.DegradedEnters == 0 {
		t.Fatal("degraded entry not counted")
	}

	// Revival gives the repair loop candidates again; it must converge
	// back to the floor and clear the alarm.
	for _, a := range victims {
		r.ctrl.NodeUp(a)
	}
	r.loop.Run(r.loop.Now() + 15*sim.Second)
	if got := len(r.ctrl.FEsOf(42)); got != 4 {
		t.Fatalf("pool after repair = %d, want 4", got)
	}
	if r.ctrl.Degraded(42) {
		t.Fatal("alarm not cleared after the pool recovered")
	}
	if r.ctrl.Stats.DegradedExits == 0 {
		t.Fatal("degraded exit not counted")
	}
}

// TestOutageQueuesDeclarations: a crashed controller refuses requests,
// and the monitor declarations of its outage are delivered at Recover.
func TestOutageQueuesDeclarations(t *testing.T) {
	r := newRig(t, 6, nil)
	addVNIC42(t, r)
	r.ctrl.AttachJournal(journal.NewMem())
	r.ctrl.Crash()
	if err := r.ctrl.ForceOffload(42); err == nil {
		t.Fatal("a crashed controller accepted a request")
	}
	r.ctrl.NodeDown(r.sw[1].Addr())
	if err := r.ctrl.Recover(RecoverOpts{}); err != nil {
		t.Fatal(err)
	}
	if !r.ctrl.nodes[r.sw[1].Addr()].down || r.ctrl.Stats.Failovers != 1 {
		t.Fatal("the outage's NodeDown was not delivered at recovery")
	}
	if err := r.ctrl.ForceOffload(42); err != nil {
		t.Fatalf("recovered controller refused a request: %v", err)
	}
}

// Degraded reports whether a vNIC's pool is in the alarmed
// below-MinFEs degraded state.
func (c *Controller) Degraded(vnic uint32) bool {
	v, ok := c.vnics[vnic]
	return ok && v.degraded
}
