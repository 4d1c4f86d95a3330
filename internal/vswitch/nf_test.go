package vswitch

import (
	"testing"

	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
)

// Tests for the NF actions the pre-actions drive: NAT rewrite,
// traffic mirroring, flow logging, and the VM-level rate limit that
// Nezha enforces at the single BE point (§2.3.3's contrast with
// distributed rate limiting).

func TestVMRateLimitTX(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	// ~140-byte packets; allow ~10 of them per second.
	if err := w.A.SetRateLimit(clientVNIC, 1400); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w.clientSend(uint16(1000+i), packet.FlagSYN)
	}
	w.loop.RunAll()
	if w.A.Stats.Drops[DropRateLimit] == 0 {
		t.Fatal("no rate-limit drops at 10x the limit")
	}
	if len(w.deliveredB) == 0 {
		t.Fatal("burst allowance should pass some packets")
	}
	if len(w.deliveredB) > 20 {
		t.Fatalf("limiter too lax: %d delivered", len(w.deliveredB))
	}
}

func TestVMRateLimitRefills(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	if err := w.A.SetRateLimit(clientVNIC, 1400); err != nil {
		t.Fatal(err)
	}
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	first := len(w.deliveredB)
	// After a second of refill the next packet passes.
	w.loop.Schedule(2*sim.Second, func() { w.clientSend(1001, packet.FlagSYN) })
	w.loop.RunAll()
	if len(w.deliveredB) != first+1 {
		t.Fatal("tokens did not refill")
	}
	// Clearing the limit removes enforcement.
	if err := w.A.SetRateLimit(clientVNIC, 0); err != nil {
		t.Fatal(err)
	}
	drops := w.A.Stats.Drops[DropRateLimit]
	for i := 0; i < 50; i++ {
		w.clientSend(uint16(1100+i), packet.FlagSYN)
	}
	w.loop.RunAll()
	if w.A.Stats.Drops[DropRateLimit] != drops {
		t.Fatal("cleared limiter still dropping")
	}
}

func TestVMRateLimitAtBEUnderNezha(t *testing.T) {
	// The BE stays the single enforcement point after offloading:
	// RX packets arrive via the FE but are still limited at the BE.
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	if err := w.B.SetRateLimit(serverVNIC, 2000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w.clientSend(uint16(1000+i), packet.FlagSYN)
	}
	w.loop.RunAll()
	if w.B.Stats.Drops[DropRateLimit] == 0 {
		t.Fatal("BE did not enforce the limit on FE-relayed RX traffic")
	}
	if len(w.deliveredB) == 0 || len(w.deliveredB) > 30 {
		t.Fatalf("delivered %d, want a small burst", len(w.deliveredB))
	}
	if err := w.A.SetRateLimit(999, 1); err != ErrUnknownVNIC {
		t.Fatalf("unknown vNIC: %v", err)
	}
}

func mirrorWorld(t *testing.T, nFE int) (*world, *int) {
	w := newWorld(t, nFE, nil)
	crs := clientRules()
	srs := serverRules()
	srs.EnableAdvanced()
	// Mirror all traffic to/from the client subnet.
	srs.Mirror.Add(tables.MakePrefix(packet.MakeIP(10, 0, 0, 0), 8))
	if err := w.A.AddVNIC(crs, false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.AddVNIC(srs, false); err != nil {
		t.Fatal(err)
	}
	sinkAddr := packet.MakeIP(192, 168, 99, 99)
	got := 0
	w.fab.Register(sinkAddr, 0, func(p *packet.Packet) { got++ })
	w.B.SetMirrorSink(sinkAddr)
	for _, f := range w.fes {
		f.SetMirrorSink(sinkAddr)
	}
	return w, &got
}

func TestMirrorLocal(t *testing.T) {
	w, got := mirrorWorld(t, 0)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if w.B.Stats.Mirrored != 1 {
		t.Fatalf("mirrored = %d", w.B.Stats.Mirrored)
	}
	if *got != 1 {
		t.Fatalf("sink received %d", *got)
	}
	// The original still reaches the VM.
	if len(w.deliveredB) != 1 {
		t.Fatal("mirroring consumed the original")
	}
}

func TestMirrorUnderNezha(t *testing.T) {
	w, got := mirrorWorld(t, 1)
	// Offload with the mirror-enabled rules on the FE.
	srs := serverRules()
	srs.EnableAdvanced()
	srs.Mirror.Add(tables.MakePrefix(packet.MakeIP(10, 0, 0, 0), 8))
	if err := w.fes[0].InstallFE(srs, addrB, false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.OffloadStart(serverVNIC, []packet.IPv4{w.fes[0].Addr()}); err != nil {
		t.Fatal(err)
	}
	w.gw.Set(serverVNIC, w.fes[0].Addr())
	if err := w.B.OffloadFinalize(serverVNIC); err != nil {
		t.Fatal(err)
	}
	// RX mirrors at the BE (final action point); TX mirrors at the FE.
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if w.B.Stats.Mirrored != 1 {
		t.Fatalf("BE mirrored = %d", w.B.Stats.Mirrored)
	}
	w.serverSend(1000, packet.FlagSYN|packet.FlagACK)
	w.loop.RunAll()
	if w.fes[0].Stats.Mirrored != 1 {
		t.Fatalf("FE mirrored = %d", w.fes[0].Stats.Mirrored)
	}
	if *got != 2 {
		t.Fatalf("sink received %d, want 2", *got)
	}
}

func TestFlowLogCountsNewFlowsOnce(t *testing.T) {
	w := newWorld(t, 0, nil)
	crs := clientRules()
	srs := serverRules()
	srs.EnableAdvanced()
	srs.FlowLog.Add(tables.MakePrefix(0, 0))
	if err := w.A.AddVNIC(crs, false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.AddVNIC(srs, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.clientSend(1000, packet.FlagACK) // same flow
	}
	w.clientSend(2000, packet.FlagSYN) // second flow
	w.loop.RunAll()
	if w.B.Stats.FlowLogged != 2 {
		t.Fatalf("flow-logged = %d, want 2 (one per flow)", w.B.Stats.FlowLogged)
	}
}

func TestNATRewrite(t *testing.T) {
	// The client's vNIC NATs 100.64.0.0/10 to the server VM.
	w := newWorld(t, 0, nil)
	crs := clientRules()
	crs.EnableAdvanced()
	crs.NAT.Add(tables.NATEntry{
		Orig:   tables.MakePrefix(packet.MakeIP(100, 64, 0, 0), 10),
		XlatIP: vmIP2, XlatPort: 8080,
	})
	// Route for the translated destination.
	if err := w.A.AddVNIC(crs, false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.AddVNIC(serverRules(), false); err != nil {
		t.Fatal(err)
	}
	ft := packet.FiveTuple{
		SrcIP: vmIP1, DstIP: packet.MakeIP(100, 64, 1, 1),
		SrcPort: 5000, DstPort: 80, Proto: packet.ProtoTCP,
	}
	pktID++
	p := packet.New(pktID, vpcID, clientVNIC, ft, packet.DirTX, packet.FlagSYN, 10)
	w.A.FromVM(p)
	w.loop.RunAll()
	if w.A.Stats.NATRewrites != 1 {
		t.Fatalf("NAT rewrites = %d", w.A.Stats.NATRewrites)
	}
	if len(w.deliveredB) != 1 {
		t.Fatalf("translated packet not delivered: A drops %v", w.A.Stats.Drops)
	}
	got := w.deliveredB[0]
	if got.Tuple.DstIP != vmIP2 || got.Tuple.DstPort != 8080 {
		t.Fatalf("rewrite wrong: %v", got.Tuple)
	}
}

func TestDropReasonRateLimitName(t *testing.T) {
	if DropRateLimit.String() != "rate-limit" {
		t.Fatal("name missing")
	}
}

func TestQoSClassRateLimit(t *testing.T) {
	// A QoS class caps one port's traffic while other traffic flows.
	w := newWorld(t, 0, nil)
	crs := clientRules()
	crs.QoS.SetClass(1, 1400) // ~10 small packets/sec with the burst floor
	crs.QoS.MapPort(80, 1)
	if err := w.A.AddVNIC(crs, false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.AddVNIC(serverRules(), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w.clientSend(uint16(1000+i), packet.FlagSYN) // dst port 80: class 1
	}
	w.loop.RunAll()
	if w.A.Stats.Drops[DropRateLimit] == 0 {
		t.Fatal("QoS class not enforced")
	}
	if len(w.deliveredB) == 0 {
		t.Fatal("burst should pass some packets")
	}
	// Traffic to an unmapped port (class 0, unlimited) is unaffected.
	before := len(w.deliveredB)
	ft := tuple(5000)
	ft.DstPort = 9090
	for i := 0; i < 20; i++ {
		pktID++
		p := packet.New(pktID, vpcID, clientVNIC, ft, packet.DirTX, packet.FlagACK, 10)
		w.A.FromVM(p)
	}
	w.loop.RunAll()
	if len(w.deliveredB) != before+20 {
		t.Fatalf("class-0 traffic throttled: %d -> %d", before, len(w.deliveredB))
	}
}

func TestQoSEnforcedAtFEUnderNezha(t *testing.T) {
	// The FE computes the TX final action, so it also enforces the
	// class limit for offloaded TX traffic.
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	rs := serverRules()
	rs.QoS.SetClass(1, 1400)
	rs.QoS.MapPort(5000, 1) // server->client responses to dst port 5000
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
	for i := 0; i < 200; i++ {
		w.serverSend(5000, packet.FlagACK)
	}
	w.loop.RunAll()
	if w.fes[0].Stats.Drops[DropRateLimit] == 0 {
		t.Fatal("FE did not enforce the QoS class limit")
	}
	if len(w.deliveredA) == 0 {
		t.Fatal("burst should pass some packets")
	}
}

// Property-style check: rule/BE-data memory accounting returns to
// zero after arbitrary install/offload/fallback/remove cycles.
func TestResourceConservationAcrossLifecycles(t *testing.T) {
	w := newWorld(t, 2, nil)
	rng := sim.NewRand(77)
	for trial := 0; trial < 40; trial++ {
		if w.B.mem.Used() != 0 {
			t.Fatalf("trial %d: leftover rule memory %d", trial, w.B.mem.Used())
		}
		rs := serverRules()
		for i := 0; i < rng.Intn(500); i++ {
			rs.ACL.Add(tables.ACLRule{Priority: i})
		}
		if err := w.B.AddVNIC(rs, false); err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(3) {
		case 0:
			// Plain remove.
		case 1:
			// Offload (dual-running only), then remove.
			if err := w.B.OffloadStart(serverVNIC, []packet.IPv4{w.fes[0].Addr()}); err != nil {
				t.Fatal(err)
			}
		case 2:
			// Full cycle: offload, finalize, fall back.
			if err := w.B.OffloadStart(serverVNIC, []packet.IPv4{w.fes[0].Addr()}); err != nil {
				t.Fatal(err)
			}
			if err := w.B.OffloadFinalize(serverVNIC); err != nil {
				t.Fatal(err)
			}
			if err := w.B.FallbackStart(serverVNIC, serverRules()); err != nil {
				t.Fatal(err)
			}
			if err := w.B.FallbackFinalize(serverVNIC); err != nil {
				t.Fatal(err)
			}
		}
		w.B.RemoveVNIC(serverVNIC)
		if w.B.Sessions().MemBytes() != 0 {
			t.Fatalf("trial %d: leftover session memory %d", trial, w.B.Sessions().MemBytes())
		}
	}
	if w.B.mem.Used() != 0 {
		t.Fatalf("final rule memory %d, want 0", w.B.mem.Used())
	}
}
