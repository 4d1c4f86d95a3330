package vswitch

import (
	"testing"

	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/tables"
)

// profSlot fetches the (vnic, role) accumulator a vSwitch charges.
func profSlot(pr *prof.Profiler, vs *VSwitch, vnic uint32, role prof.Role) *prof.VNICProf {
	return pr.Node(vs.Addr().String(), 0).Slot(vnic, role)
}

// TestProfMemoryLifecycle walks the offload/fallback lifecycle and
// checks the per-vNIC live-byte ledger tracks every rule-table and
// BE-data alloc/free pair the vSwitch makes.
func TestProfMemoryLifecycle(t *testing.T) {
	w := newWorld(t, 2, nil)
	pr := prof.New()
	w.A.EnableProf(pr)
	w.B.EnableProf(pr)
	for _, f := range w.fes {
		f.EnableProf(pr)
	}
	w.installLocal(t, false)

	sb := profSlot(pr, w.B, serverVNIC, prof.RoleLocal)
	ruleSz := uint64(w.B.VNICRuleBytes(serverVNIC))
	if ruleSz == 0 {
		t.Fatal("server vNIC has no rule bytes — scenario proves nothing")
	}
	if got := sb.LiveBytes(prof.CauseRuleTable); got != ruleSz {
		t.Fatalf("after AddVNIC: rule-table live = %d, want %d", got, ruleSz)
	}

	w.offloadServer(t, false, true)
	if got := sb.LiveBytes(prof.CauseRuleTable); got != 0 {
		t.Fatalf("after OffloadFinalize: rule-table live = %d, want 0", got)
	}
	if got := sb.LiveBytes(prof.CauseBEData); got != BEDataBytes {
		t.Fatalf("after offload: be-data live = %d, want %d", got, BEDataBytes)
	}
	for _, f := range w.fes {
		fs := profSlot(pr, f, serverVNIC, prof.RoleFE)
		if got := fs.LiveBytes(prof.CauseRuleTable); got == 0 {
			t.Fatalf("FE %v: rule-table live = 0, want the installed copy", f.Addr())
		}
	}

	if err := w.B.FallbackStart(serverVNIC, serverRules()); err != nil {
		t.Fatal(err)
	}
	if err := w.B.FallbackFinalize(serverVNIC); err != nil {
		t.Fatal(err)
	}
	if got := sb.LiveBytes(prof.CauseRuleTable); got != ruleSz {
		t.Fatalf("after fallback: rule-table live = %d, want %d", got, ruleSz)
	}
	if got := sb.LiveBytes(prof.CauseBEData); got != 0 {
		t.Fatalf("after fallback: be-data live = %d, want 0", got)
	}

	fe := w.fes[0]
	fe.RemoveFE(serverVNIC)
	if got := profSlot(pr, fe, serverVNIC, prof.RoleFE).LiveBytes(prof.CauseRuleTable); got != 0 {
		t.Fatalf("after RemoveFE: rule-table live = %d, want 0", got)
	}

	w.B.RemoveVNIC(serverVNIC)
	if got := sb.LiveBytes(prof.CauseRuleTable); got != 0 {
		t.Fatalf("after RemoveVNIC: rule-table live = %d, want 0", got)
	}
}

// TestProfEnableBackfillsExistingConfig enables profiling after the
// vNICs and FE instances are installed: the live-byte ledger must pick
// up the already-resident tables.
func TestProfEnableBackfillsExistingConfig(t *testing.T) {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, false)

	pr := prof.New()
	w.B.EnableProf(pr)
	w.fes[0].EnableProf(pr)

	sb := profSlot(pr, w.B, serverVNIC, prof.RoleLocal)
	if got := sb.LiveBytes(prof.CauseRuleTable); got != uint64(w.B.VNICRuleBytes(serverVNIC)) {
		t.Fatalf("backfill rule-table live = %d, want %d", got, w.B.VNICRuleBytes(serverVNIC))
	}
	if got := sb.LiveBytes(prof.CauseBEData); got != BEDataBytes {
		t.Fatalf("backfill be-data live = %d, want %d", got, BEDataBytes)
	}
	fs := profSlot(pr, w.fes[0], serverVNIC, prof.RoleFE)
	if got := fs.LiveBytes(prof.CauseRuleTable); got == 0 {
		t.Fatal("backfill missed the hosted FE's rule copy")
	}
}

// TestProfDatapathStagesAndLiveWalker drives an established flow and
// checks (a) cycles land in the expected stages per direction, (b) the
// drain-time walker reports session-table residency for the vNICs.
func TestProfDatapathStagesAndLiveWalker(t *testing.T) {
	w := newWorld(t, 0, nil)
	pr := prof.New()
	pr.SetClock(w.loop.Now)
	w.A.EnableProf(pr)
	w.B.EnableProf(pr)
	w.installLocal(t, false)

	w.clientSend(1000, packet.FlagSYN)
	w.loop.Run(10 * sim.Millisecond)
	for i := 0; i < 5; i++ {
		w.clientSend(1000, packet.FlagACK)
	}
	w.loop.Run(20 * sim.Millisecond)

	ca := profSlot(pr, w.A, clientVNIC, prof.RoleLocal)
	for _, s := range []prof.Stage{prof.StageFastpath, prof.StagePerByte, prof.StageEncap} {
		if ca.Cycles(prof.DirTX, s) == 0 {
			t.Errorf("client TX stage %v: no cycles charged", s)
		}
	}
	if ca.Cycles(prof.DirTX, prof.StageSlowpath) == 0 || ca.Cycles(prof.DirTX, prof.StageSessionInstall) == 0 {
		t.Error("client TX: first packet must charge slowpath + session-install")
	}
	sb := profSlot(pr, w.B, serverVNIC, prof.RoleLocal)
	if sb.Cycles(prof.DirRX, prof.StageFastpath) == 0 {
		t.Error("server RX: no fastpath cycles charged")
	}
	if sb.Cycles(prof.DirRX, prof.StageEncap) != 0 {
		t.Error("server RX: encap charged on a deliver-only path")
	}

	var sessBytes uint64
	for _, s := range pr.Samples() {
		if s.Node == w.B.Addr().String() && s.VNIC == serverVNIC && s.Cause == prof.CauseSessionTable {
			sessBytes += s.Bytes
		}
	}
	if sessBytes == 0 {
		t.Fatal("live walker reported no session-table bytes for the server vNIC")
	}
}

// TestProfCtrlPacketCharged checks a control-plane RPC packet arriving
// on CtrlPort charges the node's ctrl slot.
func TestProfCtrlPacketCharged(t *testing.T) {
	w := newWorld(t, 0, nil)
	pr := prof.New()
	w.A.EnableProf(pr)
	w.A.SetControlHandler(func(*packet.Packet) {}) // the vSwitch releases what it absorbs

	pktID++
	ft := packet.FiveTuple{
		SrcIP: addrB, DstIP: addrA, SrcPort: 555, DstPort: CtrlPort, Proto: packet.ProtoUDP,
	}
	p := packet.New(pktID, 0, 0, ft, packet.DirTX, 0, 32)
	p.Encap(addrB, addrA)
	w.fab.Send(addrB, addrA, p)
	w.loop.Run(10 * sim.Millisecond)

	ctrl := profSlot(pr, w.A, 0, prof.RoleCtrl)
	if ctrl.Cycles(prof.DirNone, prof.StageCtrl) == 0 {
		t.Fatal("ctrl RPC packet charged no ctrl-stage cycles")
	}
}

// TestLedgerReconcilesWithCycleCounters runs all seven role pipelines,
// notify included, with no drop, and only then exports the ledgers. On
// 1 GHz cores a cycle is a nanosecond of service, so on every switch
// the local-role plus FE-role slots must sum to the CPU model's busy
// time: each packet's cycles reach the CPU model and its slot through
// one charge. Each vNIC's load is its local-role slot.
func TestLedgerReconcilesWithCycleCounters(t *testing.T) {
	w := newWorld(t, 1, func(c *Config) { c.CoreHz = 1_000_000_000 })
	w.installLocal(t, false)
	// A stats policy on the FE's copy makes the FE notify the BE.
	rs := serverRules()
	rs.EnableAdvanced()
	rs.Stats.Add(tables.MakePrefix(packet.MakeIP(10, 0, 1, 0), 24), tables.StatsBytesOut|tables.StatsPackets)
	fe := w.fes[0]
	if err := fe.InstallFE(rs, addrB, false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.OffloadStart(serverVNIC, []packet.IPv4{fe.Addr()}); err != nil {
		t.Fatal(err)
	}
	w.gw.Set(serverVNIC, fe.Addr())
	if err := w.B.OffloadFinalize(serverVNIC); err != nil {
		t.Fatal(err)
	}
	// Client-opened flows: A local TX, FE RX, B BE RX, and back through
	// B BE TX, FE TX and A local RX.
	for sport := uint16(1000); sport < 1004; sport++ {
		w.clientSend(sport, packet.FlagSYN)
		w.loop.RunAll()
		w.serverSend(sport, packet.FlagSYN|packet.FlagACK)
		w.loop.RunAll()
	}
	// Server-opened flows carry no policy yet, so the FE's TX lookup
	// notifies the BE.
	for sport := uint16(2000); sport < 2004; sport++ {
		w.serverSend(sport, packet.FlagSYN)
		w.loop.RunAll()
		w.clientSend(sport, packet.FlagSYN|packet.FlagACK)
		w.loop.RunAll()
	}

	pr := prof.New()
	for _, vs := range []*VSwitch{w.A, w.B, fe} {
		if d := vs.Stats.TotalDrops(); d != 0 {
			t.Fatalf("%v dropped %d packets (%v): a dropped packet's cycles are priced but never served", vs.Addr(), d, vs.Stats.Drops)
		}
		vs.EnableProf(pr)
	}
	for _, c := range []struct {
		name string
		vs   *VSwitch
		vnic uint32
		role prof.Role
		dir  prof.Dir
		s    prof.Stage
	}{
		{"local TX", w.A, clientVNIC, prof.RoleLocal, prof.DirTX, prof.StageFastpath},
		{"local RX", w.A, clientVNIC, prof.RoleLocal, prof.DirRX, prof.StageFastpath},
		{"BE TX", w.B, serverVNIC, prof.RoleLocal, prof.DirTX, prof.StageStateCarry},
		{"BE RX", w.B, serverVNIC, prof.RoleLocal, prof.DirRX, prof.StageStateCarry},
		{"BE notify", w.B, serverVNIC, prof.RoleLocal, prof.DirRX, prof.StageNotify},
		{"FE TX", fe, serverVNIC, prof.RoleFE, prof.DirTX, prof.StageStateCarry},
		{"FE RX", fe, serverVNIC, prof.RoleFE, prof.DirRX, prof.StageStateCarry},
	} {
		if profSlot(pr, c.vs, c.vnic, c.role).Cycles(c.dir, c.s) == 0 {
			t.Errorf("%s pipeline did not run: no %v/%v cycles", c.name, c.dir, c.s)
		}
	}

	for _, vs := range []*VSwitch{w.A, w.B, fe} {
		var local, remote uint64
		for _, s := range pr.Samples() {
			if s.Node != vs.Addr().String() {
				continue
			}
			switch s.Role {
			case prof.RoleLocal:
				local += s.Cycles
			case prof.RoleFE:
				remote += s.Cycles
			}
		}
		if busy := uint64(vs.CPU().BusyTime()); local+remote != busy {
			t.Errorf("%v: slots local %d + fe %d = %d cycles, CPU busy %d ns at 1 GHz",
				vs.Addr(), local, remote, local+remote, busy)
		}
		if local+remote == 0 {
			t.Errorf("%v charged no cycles: the reconciliation proves nothing", vs.Addr())
		}
		for _, l := range vs.VNICLoads() {
			if want := profSlot(pr, vs, l.VNIC, prof.RoleLocal).Total(); l.Cycles != want {
				t.Errorf("%v vNIC %d: VNICLoads cycles %d, local slot %d", vs.Addr(), l.VNIC, l.Cycles, want)
			}
		}
	}
}
