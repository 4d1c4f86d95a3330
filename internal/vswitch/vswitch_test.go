package vswitch

import (
	"strings"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
)

// world wires a loop, fabric and gateway with a few vSwitches for
// datapath tests: client VM (vnic 1) on switch A, server VM (vnic 2)
// on switch B, and optional FE hosts.
type world struct {
	loop *sim.Loop
	fab  *fabric.Fabric
	gw   *fabric.Gateway
	A, B *VSwitch
	fes  []*VSwitch

	deliveredA []*packet.Packet // packets reaching VM on A
	deliveredB []*packet.Packet // packets reaching VM on B
}

const (
	vpcID      = 7
	clientVNIC = 1
	serverVNIC = 2
)

var (
	addrA  = packet.MakeIP(192, 168, 0, 1)
	addrB  = packet.MakeIP(192, 168, 0, 2)
	vmIP1  = packet.MakeIP(10, 0, 1, 1)
	vmIP2  = packet.MakeIP(10, 0, 2, 1)
	lbIP   = packet.MakeIP(10, 0, 9, 9) // overlay LB address for decap tests
	feBase = packet.MakeIP(192, 168, 1, 0)
)

// clientRules builds vNIC 1's rule set (routes to the server subnet).
func clientRules() *tables.RuleSet {
	rs := tables.NewRuleSet(clientVNIC, vpcID)
	rs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 2, 0), 24), packet.IPv4(serverVNIC))
	return rs
}

// serverRules builds vNIC 2's rule set (routes back to the client
// subnet and the LB address).
func serverRules() *tables.RuleSet {
	rs := tables.NewRuleSet(serverVNIC, vpcID)
	rs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 1, 0), 24), packet.IPv4(clientVNIC))
	return rs
}

func newWorld(t *testing.T, nFEs int, cfgMut func(*Config)) *world {
	t.Helper()
	w := &world{loop: sim.NewLoop(42)}
	w.fab = fabric.New(w.loop)
	w.gw = fabric.NewGateway(w.loop)
	mk := func(addr packet.IPv4, tor int) *VSwitch {
		cfg := Config{Addr: addr, ToR: tor}
		if cfgMut != nil {
			cfgMut(&cfg)
		}
		return New(w.loop, w.fab, w.gw, cfg)
	}
	w.A = mk(addrA, 0)
	w.B = mk(addrB, 0)
	for i := 0; i < nFEs; i++ {
		w.fes = append(w.fes, mk(feBase+packet.IPv4(i+1), 0))
	}
	w.A.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		w.deliveredA = append(w.deliveredA, p)
	})
	w.B.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		w.deliveredB = append(w.deliveredB, p)
	})
	w.gw.Set(clientVNIC, addrA)
	w.gw.Set(serverVNIC, addrB)
	return w
}

// installLocal sets both vNICs up as plain monolithic residents.
func (w *world) installLocal(t *testing.T, decapB bool) (crs, srs *tables.RuleSet) {
	t.Helper()
	crs, srs = clientRules(), serverRules()
	if err := w.A.AddVNIC(crs, false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.AddVNIC(srs, decapB); err != nil {
		t.Fatal(err)
	}
	return crs, srs
}

// offloadServer moves vNIC 2 to Nezha: FE instances on all FE hosts,
// BE at B, gateway pointing at the FEs. finalize drops B's rules.
func (w *world) offloadServer(t *testing.T, decap bool, finalize bool) {
	t.Helper()
	var feAddrs []packet.IPv4
	for _, f := range w.fes {
		if err := f.InstallFE(serverRules(), addrB, decap); err != nil {
			t.Fatal(err)
		}
		feAddrs = append(feAddrs, f.Addr())
	}
	if err := w.B.OffloadStart(serverVNIC, feAddrs); err != nil {
		t.Fatal(err)
	}
	w.gw.Set(serverVNIC, feAddrs...)
	if finalize {
		if err := w.B.OffloadFinalize(serverVNIC); err != nil {
			t.Fatal(err)
		}
	}
}

var pktID uint64

func tuple(sport uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: vmIP1, DstIP: vmIP2,
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP,
	}
}

// clientSend injects a TX packet from VM1 (client) toward VM2.
func (w *world) clientSend(sport uint16, flags packet.TCPFlags) *packet.Packet {
	pktID++
	p := packet.New(pktID, vpcID, clientVNIC, tuple(sport), packet.DirTX, flags, 100)
	p.SentAt = int64(w.loop.Now())
	w.A.FromVM(p)
	return p
}

// serverSend injects a TX packet from VM2 (server) toward VM1.
func (w *world) serverSend(sport uint16, flags packet.TCPFlags) *packet.Packet {
	pktID++
	p := packet.New(pktID, vpcID, serverVNIC, tuple(sport).Reverse(), packet.DirTX, flags, 100)
	p.SentAt = int64(w.loop.Now())
	w.B.FromVM(p)
	return p
}

func TestMonolithicEndToEnd(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 {
		t.Fatalf("delivered to B = %d, want 1 (drops A: %v, B: %v)",
			len(w.deliveredB), w.A.Stats.Drops, w.B.Stats.Drops)
	}
	p := w.deliveredB[0]
	if p.VNIC != serverVNIC || p.Dir != packet.DirRX {
		t.Fatalf("delivered packet misaddressed: %v", p)
	}
	if p.Hops != 1 {
		t.Fatalf("direct path hops = %d, want 1", p.Hops)
	}
	// Response.
	w.serverSend(1000, packet.FlagSYN|packet.FlagACK)
	w.loop.RunAll()
	if len(w.deliveredA) != 1 {
		t.Fatalf("response not delivered: drops B=%v", w.B.Stats.Drops)
	}
}

func TestFastPathAfterFirstPacket(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	slowAfterFirst := w.A.Stats.SlowPath
	w.clientSend(1000, packet.FlagACK)
	w.loop.RunAll()
	if w.A.Stats.SlowPath != slowAfterFirst {
		t.Fatal("second packet of the flow took the slow path")
	}
	if w.A.Stats.FastPath == 0 {
		t.Fatal("no fast path hits recorded")
	}
}

func TestRuleChangeInvalidatesCachedFlows(t *testing.T) {
	w := newWorld(t, 0, nil)
	crs, _ := w.installLocal(t, false)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	slow := w.A.Stats.SlowPath
	crs.Bump() // rule table update
	w.clientSend(1000, packet.FlagACK)
	w.loop.RunAll()
	if w.A.Stats.SlowPath != slow+1 {
		t.Fatal("rule bump did not force a slow-path re-walk")
	}
}

func TestStatefulACLAllowsResponses(t *testing.T) {
	w := newWorld(t, 0, nil)
	_, srs := w.installLocal(t, false)
	// vNIC 2 denies all inbound (packets whose dst is VM2's subnet).
	srs.ACL.Add(tables.ACLRule{
		Priority: 1,
		Dst:      tables.MakePrefix(packet.MakeIP(10, 0, 2, 0), 24),
		Verdict:  tables.VerdictDeny,
	})
	srs.Bump()

	// Unsolicited inbound: dropped by final action at B.
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 0 {
		t.Fatal("unsolicited inbound passed a deny ACL")
	}
	if w.B.Stats.Drops[DropACL] != 1 {
		t.Fatalf("ACL drops = %d", w.B.Stats.Drops[DropACL])
	}

	// Server-initiated connection: outbound SYN passes, and the
	// client's response must be accepted despite the inbound deny.
	w.serverSend(2000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredA) != 1 {
		t.Fatal("server-initiated SYN not delivered to client")
	}
	w.clientSend(2000, packet.FlagSYN|packet.FlagACK)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 {
		t.Fatal("response to server-initiated connection was dropped (stateful ACL broken)")
	}
}

func TestNezhaOffloadEndToEnd(t *testing.T) {
	w := newWorld(t, 2, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)

	// Client → server: A resolves vNIC2 to an FE, FE forwards to BE.
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 {
		t.Fatalf("offloaded RX not delivered; A drops %v, B drops %v, FE0 drops %v, FE1 drops %v",
			w.A.Stats.Drops, w.B.Stats.Drops, w.fes[0].Stats.Drops, w.fes[1].Stats.Drops)
	}
	if got := w.deliveredB[0].Hops; got != 2 {
		t.Fatalf("offloaded RX hops = %d, want 2 (exactly one extra hop)", got)
	}
	if w.deliveredB[0].Nezha != nil {
		t.Fatal("Nezha header leaked into the VM")
	}

	// Server → client: BE carries state to FE, FE forwards to A.
	w.serverSend(1000, packet.FlagSYN|packet.FlagACK)
	w.loop.RunAll()
	if len(w.deliveredA) != 1 {
		t.Fatalf("offloaded TX not delivered; B drops %v, FEs %v/%v",
			w.B.Stats.Drops, w.fes[0].Stats.Drops, w.fes[1].Stats.Drops)
	}
	if got := w.deliveredA[0].Hops; got != 2 {
		t.Fatalf("offloaded TX hops = %d, want 2", got)
	}

	// The BE must not have run any slow-path rule walks after
	// finalize: its rules are gone and states carry the day.
	if w.B.Stats.SlowPath != 0 {
		t.Fatalf("BE ran %d slow paths; rule tables should be remote", w.B.Stats.SlowPath)
	}
}

// TestNezhaStatefulACLEquivalence is the §5.1 case study. A server
// vNIC's ACL denies all inbound traffic, yet a stateful ACL must still
// admit the responses to connections the server itself opened. Once
// offloaded, the ACL lives only on the FEs and the first-packet
// direction only in the BE's session state, so neither side decides
// alone: an inbound packet's deny pre-action comes from the FE, and
// the BE overrides it when the state says the server sent first. This
// is TestStatefulACLAllowsResponses offloaded; separating state from
// rules must not change a decision (§3.1).
func TestNezhaStatefulACLEquivalence(t *testing.T) {
	w := newWorld(t, 2, nil)
	w.installLocal(t, false)
	srsDeny := func(rs *tables.RuleSet) {
		rs.ACL.Add(tables.ACLRule{
			Priority: 1,
			Dst:      tables.MakePrefix(packet.MakeIP(10, 0, 2, 0), 24),
			Verdict:  tables.VerdictDeny,
		})
	}
	// Apply the deny to the FE copies (the authoritative rules once
	// offloaded).
	var feAddrs []packet.IPv4
	for _, f := range w.fes {
		rs := serverRules()
		srsDeny(rs)
		if err := f.InstallFE(rs, addrB, false); err != nil {
			t.Fatal(err)
		}
		feAddrs = append(feAddrs, f.Addr())
	}
	if err := w.B.OffloadStart(serverVNIC, feAddrs); err != nil {
		t.Fatal(err)
	}
	w.gw.Set(serverVNIC, feAddrs...)
	if err := w.B.OffloadFinalize(serverVNIC); err != nil {
		t.Fatal(err)
	}

	// Unsolicited inbound → dropped at the BE's final action.
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 0 {
		t.Fatal("offloaded stateful ACL let unsolicited traffic through")
	}

	// Server-initiated: SYN out, response in — allowed.
	w.serverSend(2000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredA) != 1 {
		t.Fatalf("server SYN lost; FE drops %v %v", w.fes[0].Stats.Drops, w.fes[1].Stats.Drops)
	}
	w.clientSend(2000, packet.FlagSYN|packet.FlagACK)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 {
		t.Fatal("response dropped under offload (state/rules separation broke stateful ACL)")
	}
}

func TestDualRunningStaleSender(t *testing.T) {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)

	// Make A learn vNIC2 -> B before offload so its cache is stale.
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 {
		t.Fatal("pre-offload packet lost")
	}

	// Offload WITHOUT finalizing: dual-running stage.
	w.offloadServer(t, false, false)

	// A still resolves to B (learner staleness): packet goes direct
	// to the BE, which must process it with its retained rule tables.
	w.clientSend(1001, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 2 {
		t.Fatalf("dual-running stage dropped a stale-sender packet: B drops %v", w.B.Stats.Drops)
	}

	// After the learning interval, A refreshes and goes via the FE.
	w.loop.Schedule(fabric.LearnInterval+sim.Millisecond, func() {
		w.clientSend(1002, packet.FlagSYN)
	})
	w.loop.RunAll()
	if len(w.deliveredB) != 3 {
		t.Fatal("post-learn packet lost")
	}
	if w.deliveredB[2].Hops != 2 {
		t.Fatalf("post-learn packet hops = %d, want 2 (via FE)", w.deliveredB[2].Hops)
	}
}

func TestFinalStageDropsStaleDirectPackets(t *testing.T) {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)

	// Bypass the gateway: hand B a direct packet as a stale sender
	// would. Rules are gone, so it must drop with DropNoRules.
	pktID++
	p := packet.New(pktID, vpcID, serverVNIC, tuple(1), packet.DirRX, packet.FlagSYN, 100)
	p.Encap(addrA, addrB)
	w.B.HandleUnderlay(p)
	w.loop.RunAll()
	if w.B.Stats.Drops[DropNoRules] != 1 {
		t.Fatalf("stale direct packet not dropped: %v", w.B.Stats.Drops)
	}
}

func TestOffloadFreesRuleMemoryGrowsSessionBudget(t *testing.T) {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	// Fatten vNIC2's rule tables.
	srs := serverRules()
	w.B.RemoveVNIC(serverVNIC)
	for i := 0; i < 10000; i++ {
		srs.ACL.Add(tables.ACLRule{Priority: i})
	}
	if err := w.B.AddVNIC(srs, false); err != nil {
		t.Fatal(err)
	}
	ruleBytes := w.B.mem.Used()
	budgetBefore := w.B.Sessions().MaxBytes()

	w.offloadServer(t, false, true)

	if w.B.mem.Used() >= ruleBytes {
		t.Fatalf("rule memory not freed: %d -> %d", ruleBytes, w.B.mem.Used())
	}
	if w.B.Sessions().MaxBytes() <= budgetBefore {
		t.Fatal("session budget did not grow after offloading rule tables")
	}
	// BE data (2KB) must be charged.
	if w.B.mem.Used() < BEDataBytes {
		t.Fatalf("BE data not charged: %d", w.B.mem.Used())
	}
}

func TestFallbackRestoresLocalProcessing(t *testing.T) {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 {
		t.Fatal("offloaded packet lost")
	}

	// Fallback: rules return to B, gateway points back to B.
	if err := w.B.FallbackStart(serverVNIC, serverRules()); err != nil {
		t.Fatal(err)
	}
	w.gw.Set(serverVNIC, addrB)
	if err := w.B.FallbackFinalize(serverVNIC); err != nil {
		t.Fatal(err)
	}
	for _, f := range w.fes {
		f.RemoveFE(serverVNIC)
	}

	// TX from the server must run locally again.
	w.serverSend(1000, packet.FlagSYN|packet.FlagACK)
	w.loop.RunAll()
	if len(w.deliveredA) != 1 {
		t.Fatalf("post-fallback TX lost: B drops %v", w.B.Stats.Drops)
	}
	if w.B.Stats.SlowPath == 0 {
		t.Fatal("fallback did not restore local slow path")
	}
	// Wait out the learner staleness, then client → server direct.
	w.loop.Schedule(fabric.LearnInterval+sim.Millisecond, func() {
		w.clientSend(1001, packet.FlagSYN)
	})
	w.loop.RunAll()
	if len(w.deliveredB) != 2 {
		t.Fatal("post-fallback RX lost")
	}
	if w.deliveredB[1].Hops != 1 {
		t.Fatalf("post-fallback hops = %d, want 1 (extra hop should be gone)", w.deliveredB[1].Hops)
	}
}

func TestNotifyPacketInstallsPolicy(t *testing.T) {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	// FE rules carry a stats policy -> TX flows need a notify.
	rs := serverRules()
	rs.EnableAdvanced()
	rs.Stats.Add(tables.MakePrefix(packet.MakeIP(10, 0, 1, 0), 24), tables.StatsBytesOut|tables.StatsPackets)
	if err := w.fes[0].InstallFE(rs, addrB, false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.OffloadStart(serverVNIC, []packet.IPv4{w.fes[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	w.gw.Set(serverVNIC, w.fes[0].Addr())
	if err := w.B.OffloadFinalize(serverVNIC); err != nil {
		t.Fatal(err)
	}

	w.serverSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if w.fes[0].Stats.NotifySent != 1 {
		t.Fatalf("notify sent = %d, want 1", w.fes[0].Stats.NotifySent)
	}
	if w.B.Stats.NotifyRecv != 1 {
		t.Fatalf("notify recv = %d, want 1", w.B.Stats.NotifyRecv)
	}
	// The BE's state must now carry the policy.
	key, _ := packet.SessionKeyOf(serverVNIC, vpcID, tuple(1000))
	e := w.B.Sessions().Peek(key)
	if e == nil || w.B.Sessions().State(e).Policy != tables.StatsBytesOut|tables.StatsPackets {
		t.Fatalf("policy not installed at BE: %+v", e)
	}

	// Second packet carries the policy — no further notify.
	w.serverSend(1000, packet.FlagACK)
	w.loop.RunAll()
	if w.fes[0].Stats.NotifySent != 1 {
		t.Fatalf("notify resent for matching policy: %d", w.fes[0].Stats.NotifySent)
	}
}

// TestStatefulDecapViaNezha is the §5.2 case study. A load balancer
// forwards a client's packet to a real server (RS) with the client's
// address as the inner source. The RS's vSwitch must remember the
// overlay source (the LB) when it decapsulates, so the RS's response
// goes back through the LB, not straight to a client that has no TCP
// connection with the RS. Offloaded, the FE rewrites the outer source,
// so it preserves the original in the Nezha header and the BE
// initializes the decap state from it.
func TestStatefulDecapViaNezha(t *testing.T) {
	w := newWorld(t, 1, nil)
	// B is a real server (RS) with decap enabled.
	if err := w.A.AddVNIC(clientRules(), false); err != nil {
		t.Fatal(err)
	}
	srs := serverRules()
	// RS can route to the LB's overlay address.
	lbVNIC := uint32(50)
	srs.Route.Add(tables.MakePrefix(lbIP, 32), packet.IPv4(lbVNIC))
	if err := w.B.AddVNIC(srs, true); err != nil {
		t.Fatal(err)
	}
	// The LB's "vNIC" lives on A for simplicity.
	w.gw.Set(lbVNIC, addrA)
	lbDelivered := 0
	// Count LB-bound deliveries: A has no vNIC 50 — use a dedicated
	// vswitch? Simpler: register vNIC 50 on A.
	lbRules := tables.NewRuleSet(lbVNIC, vpcID)
	if err := w.A.AddVNIC(lbRules, false); err != nil {
		t.Fatal(err)
	}
	w.A.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		if vnic == lbVNIC {
			lbDelivered++
		}
	})

	// Offload the RS vNIC with decap.
	rsFE := serverRules()
	rsFE.Route.Add(tables.MakePrefix(lbIP, 32), packet.IPv4(lbVNIC))
	if err := w.fes[0].InstallFE(rsFE, addrB, true); err != nil {
		t.Fatal(err)
	}
	if err := w.B.OffloadStart(serverVNIC, []packet.IPv4{w.fes[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	w.gw.Set(serverVNIC, w.fes[0].Addr())
	if err := w.B.OffloadFinalize(serverVNIC); err != nil {
		t.Fatal(err)
	}

	// LB-encapsulated packet: inner src = client, outer src = LB.
	// It reaches the FE (gateway), which preserves the original outer
	// source for the BE's state init.
	pktID++
	p := packet.New(pktID, vpcID, serverVNIC, tuple(3000), packet.DirRX, packet.FlagSYN, 100)
	p.Encap(lbIP, w.fes[0].Addr())
	w.fab.Send(lbIP, w.fes[0].Addr(), p)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 {
		t.Fatalf("decap RX not delivered: FE drops %v, B drops %v", w.fes[0].Stats.Drops, w.B.Stats.Drops)
	}
	// BE state must have recorded the LB address.
	key, _ := packet.SessionKeyOf(serverVNIC, vpcID, tuple(3000))
	e := w.B.Sessions().Peek(key)
	if e == nil || w.B.Sessions().State(e).DecapIP != lbIP {
		t.Fatalf("DecapIP not recorded: %+v", e)
	}

	// RS response: must be routed to the LB, not the client.
	w.serverSend(3000, packet.FlagSYN|packet.FlagACK)
	w.loop.RunAll()
	if lbDelivered != 1 {
		t.Fatalf("RS response did not go to the LB (delivered=%d)", lbDelivered)
	}
}

func TestVNICMemoryLimit(t *testing.T) {
	w := newWorld(t, 0, func(c *Config) { c.NetMemBytes = 1 << 20 }) // 1 MB
	big := tables.NewRuleSet(99, vpcID)
	for i := 0; i < 20000; i++ { // ~1.25 MB of ACL rules
		big.ACL.Add(tables.ACLRule{Priority: i})
	}
	if err := w.A.AddVNIC(big, false); err != ErrNoRuleMemory {
		t.Fatalf("oversized vNIC install: %v", err)
	}
}

func TestConcurrentFlowsMemoryLimit(t *testing.T) {
	w := newWorld(t, 0, func(c *Config) { c.NetMemBytes = 256 << 10 })
	w.installLocal(t, false)
	for i := 0; i < 3000; i++ {
		w.clientSend(uint16(i+1), packet.FlagSYN)
	}
	w.loop.RunAll()
	if w.A.Stats.Drops[DropNoMemory] == 0 {
		t.Fatal("no memory drops despite tiny session budget")
	}
	if len(w.deliveredB) == 0 {
		t.Fatal("everything dropped; budget should fit some flows")
	}
}

func TestOverloadDropsAndCounts(t *testing.T) {
	w := newWorld(t, 0, func(c *Config) {
		c.Cores = 1
		c.CoreHz = 10_000_000 // absurdly slow: 10M cycles/s
	})
	w.installLocal(t, false)
	for i := 0; i < 200; i++ {
		w.clientSend(uint16(i+1), packet.FlagSYN)
	}
	w.loop.RunAll()
	if w.A.Stats.Drops[DropOverload] == 0 {
		t.Fatal("no overload drops on a starved CPU")
	}
}

func TestProbePong(t *testing.T) {
	w := newWorld(t, 0, nil)
	got := 0
	monitorAddr := packet.MakeIP(192, 168, 9, 9)
	w.fab.Register(monitorAddr, 0, func(p *packet.Packet) { got++ })
	probe := packet.New(1, 0, 0, packet.FiveTuple{
		SrcIP: monitorAddr, DstIP: addrA, SrcPort: 1234, DstPort: ProbePort,
		Proto: packet.ProtoUDP,
	}, packet.DirTX, 0, 0)
	probe.Encap(monitorAddr, addrA)
	w.fab.Send(monitorAddr, addrA, probe)
	w.loop.RunAll()
	if got != 1 {
		t.Fatalf("pong not received: %d", got)
	}
	if w.A.Stats.ProbesSeen != 1 {
		t.Fatal("probe not counted")
	}
}

func TestCrashedVSwitchSilent(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	w.B.Crash()
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 0 {
		t.Fatal("crashed vSwitch delivered a packet")
	}
	if w.B.Stats.Drops[DropCrashed] == 0 {
		t.Fatal("crash drop not counted")
	}
	// Probes also die.
	monitorAddr := packet.MakeIP(192, 168, 9, 9)
	got := 0
	w.fab.Register(monitorAddr, 0, func(p *packet.Packet) { got++ })
	probe := packet.New(1, 0, 0, packet.FiveTuple{
		SrcIP: monitorAddr, DstIP: addrB, SrcPort: 1, DstPort: ProbePort, Proto: packet.ProtoUDP,
	}, packet.DirTX, 0, 0)
	w.fab.Send(monitorAddr, addrB, probe)
	w.loop.RunAll()
	if got != 0 {
		t.Fatal("crashed vSwitch answered a probe")
	}
	w.B.Revive()
	w.clientSend(1001, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 {
		t.Fatal("revived vSwitch not processing")
	}
}

// TestBELocationUpdateRedirects is §7.2's live migration. Moving a VM
// usually means re-creating its vNIC (rule tables take seconds to
// configure) and waiting for the gateway's routes to converge. With
// the vNIC offloaded neither is on the critical path: the FEs keep the
// rule tables, the gateway keeps pointing at the FEs, and redirecting
// traffic to the new home is one BE-location update on each FE.
func TestBELocationUpdateRedirects(t *testing.T) {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)

	// Stand up a third server C adopting vNIC 2's BE role.
	addrC := packet.MakeIP(192, 168, 0, 3)
	C := New(w.loop, w.fab, w.gw, Config{Addr: addrC, ToR: 0})
	deliveredC := 0
	C.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) { deliveredC++ })
	srs := serverRules()
	if err := C.AddVNIC(srs, false); err != nil {
		t.Fatal(err)
	}
	if err := C.OffloadStart(serverVNIC, []packet.IPv4{w.fes[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := C.OffloadFinalize(serverVNIC); err != nil {
		t.Fatal(err)
	}
	if err := w.fes[0].SetBELocation(serverVNIC, addrC); err != nil {
		t.Fatal(err)
	}

	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if deliveredC != 1 {
		t.Fatalf("traffic did not follow BE location update: C=%d, B=%d", deliveredC, len(w.deliveredB))
	}
}

func TestHashSpreadsFlowsAcrossFEs(t *testing.T) {
	w := newWorld(t, 4, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	for i := 0; i < 200; i++ {
		w.serverSend(uint16(3000+i), packet.FlagSYN)
	}
	w.loop.RunAll()
	for i, f := range w.fes {
		if f.Stats.FromNet == 0 {
			t.Fatalf("FE %d received no traffic; hashing not spreading", i)
		}
	}
}

func TestRemoveFEInvalidatesCachedFlows(t *testing.T) {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if w.fes[0].Sessions().Len() == 0 {
		t.Fatal("FE cached nothing")
	}
	w.fes[0].RemoveFE(serverVNIC)
	if w.fes[0].Sessions().Len() != 0 {
		t.Fatal("RemoveFE left cached flows behind")
	}
	if w.fes[0].HostsFE(serverVNIC) {
		t.Fatal("FE still hosted")
	}
}

func TestAddVNICDuplicate(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	if err := w.A.AddVNIC(clientRules(), false); err != ErrExists {
		t.Fatalf("duplicate AddVNIC: %v", err)
	}
	if err := w.A.InstallFE(clientRules(), addrB, false); err != nil {
		t.Fatal(err)
	}
	if err := w.A.InstallFE(clientRules(), addrB, false); err != ErrExists {
		t.Fatalf("duplicate InstallFE: %v", err)
	}
}

func TestOffloadUnknownVNIC(t *testing.T) {
	w := newWorld(t, 0, nil)
	if err := w.A.OffloadStart(99, nil); err != ErrUnknownVNIC {
		t.Fatalf("OffloadStart: %v", err)
	}
	if err := w.A.OffloadFinalize(99); err != ErrUnknownVNIC {
		t.Fatalf("OffloadFinalize: %v", err)
	}
	if err := w.A.SetFEsEpoch(99, nil, 0); err != ErrUnknownVNIC {
		t.Fatalf("SetFEsEpoch: %v", err)
	}
	if err := w.A.SetBELocation(99, addrB); err != ErrUnknownVNIC {
		t.Fatalf("SetBELocation: %v", err)
	}
}

func TestSweepSessions(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	w.clientSend(1000, packet.FlagSYN) // stays SynSent -> short aging
	w.loop.RunAll()
	if w.A.Sessions().Len() == 0 {
		t.Fatal("no session created")
	}
	w.loop.Schedule(2*sim.Second, func() { w.A.SweepSessions() })
	w.loop.RunAll()
	if w.A.Sessions().Len() != 0 {
		t.Fatal("SYN session survived its short aging (§7.3)")
	}
}

func TestCountersTotalDrops(t *testing.T) {
	var c Counters
	c.Drops[DropACL] = 2
	c.Drops[DropOverload] = 3
	if c.TotalDrops() != 5 {
		t.Fatal("TotalDrops wrong")
	}
}

func TestDropReasonStrings(t *testing.T) {
	for r := DropReason(0); r < numDropReasons; r++ {
		if r.String() == "unknown" {
			t.Fatalf("reason %d has no name", r)
		}
		// The flight tracer renders a drop hop's code with this name.
		if h := (obs.Hop{Stage: obs.StageDrop, Drop: uint8(r)}); !strings.Contains(h.String(), "drop:"+r.String()+" ") {
			t.Fatalf("reason %d renders as hop %q", r, h)
		}
	}
}

// Calibration: a default vSwitch sustains O(100K) CPS of fresh
// connections through the full monolithic slow path (§2.2.2).
func TestCalibrationVSwitchCPS(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	// Offer 400K CPS for 200 ms: 80K connection attempts.
	n := 0
	var tick func()
	tick = func() {
		for i := 0; i < 10; i++ {
			w.clientSend(uint16(n%60000+1), packet.FlagSYN)
			n++
		}
		if n < 80000 {
			w.loop.Schedule(25*sim.Microsecond, tick)
		}
	}
	tick()
	w.loop.RunAll()
	elapsed := w.loop.Now().Seconds()
	accepted := float64(len(w.deliveredB))
	cps := accepted / elapsed
	if cps < 80_000 || cps > 300_000 {
		t.Fatalf("monolithic CPS = %.0f, want O(100K)", cps)
	}
}

func TestElephantFlowPinning(t *testing.T) {
	// §7.5: an elephant flow can monopolize a dedicated FE while the
	// rest of the vNIC's traffic hashes across the regular pool.
	w := newWorld(t, 3, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	elephant := tuple(4000).Reverse() // server-side TX tuple

	// Dedicate FE 2 to the elephant.
	if err := w.B.PinFlow(serverVNIC, elephant, w.fes[2].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := w.B.PinFlow(999, elephant, w.fes[2].Addr()); err != ErrUnknownVNIC {
		t.Fatalf("pin on unknown vNIC: %v", err)
	}

	before := w.fes[2].Stats.FromNet
	for i := 0; i < 50; i++ {
		w.serverSend(4000, packet.FlagACK)
	}
	w.loop.RunAll()
	got := w.fes[2].Stats.FromNet - before
	if got != 50 {
		t.Fatalf("dedicated FE saw %d/50 elephant packets", got)
	}

	// Unpin: traffic returns to the hash.
	w.UnpinAndVerify(t, elephant)
}

// UnpinAndVerify is split out to keep the main test readable.
func (w *world) UnpinAndVerify(t *testing.T, elephant packet.FiveTuple) {
	t.Helper()
	w.B.UnpinFlow(serverVNIC, elephant)
	hashFE := int(elephant.Hash() % 3)
	before := w.fes[hashFE].Stats.FromNet
	for i := 0; i < 10; i++ {
		w.serverSend(4000, packet.FlagACK)
	}
	w.loop.RunAll()
	if w.fes[hashFE].Stats.FromNet == before {
		t.Fatal("after unpin, traffic did not return to the hashed FE")
	}
}
