package prof

import (
	"strings"
	"testing"

	"nezha/internal/obs"
	"nezha/internal/sim"
)

func TestSlotClaimAndOverflow(t *testing.T) {
	p := New()
	n := p.Node("10.1.0.1", 4)
	a := n.Slot(7, RoleLocal)
	if got := n.Slot(7, RoleLocal); got != a {
		t.Fatalf("second Slot(7, local) returned a different pointer")
	}
	if b := n.Slot(7, RoleFE); b == a {
		t.Fatalf("Slot(7, fe) aliased the local slot")
	}
	for i := 0; i < maxSlots+10; i++ {
		n.Slot(uint32(1000+i), RoleLocal)
	}
	ov := n.Slot(99999, RoleLocal)
	if ov.VNIC != OverflowVNIC {
		t.Fatalf("expected overflow slot after exhaustion, got vnic=%d", ov.VNIC)
	}
	ov.Charge(DirTX, StageFastpath, 42)
	found := false
	for _, s := range p.Samples() {
		if s.VNIC == OverflowVNIC && s.Cycles == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("overflow charge not drained")
	}
}

// TestOverflowSlotKeepsRoles fills a node's slots, then spills one
// local and one FE claim: each role's work must stay its own, in the
// role sums the controller reads and in the drained samples.
func TestOverflowSlotKeepsRoles(t *testing.T) {
	p := New()
	n := p.Node("10.1.0.1", 4)
	for i := 0; i < maxSlots; i++ {
		n.Slot(uint32(1+i), RoleLocal)
	}
	local := n.Slot(500, RoleLocal)
	fe := n.Slot(501, RoleFE)
	if local.VNIC != OverflowVNIC || fe.VNIC != OverflowVNIC {
		t.Fatalf("claims past %d slots got vnics %d and %d, want overflow", maxSlots, local.VNIC, fe.VNIC)
	}
	local.Charge(DirTX, StageFastpath, 100)
	fe.Charge(DirRX, StageSlowpath, 7)

	if got := n.RoleCycles(RoleLocal); got != 100 {
		t.Errorf("RoleCycles(local) = %d, want 100", got)
	}
	if got := n.RoleCycles(RoleFE); got != 7 {
		t.Errorf("RoleCycles(fe) = %d, want 7", got)
	}
	byRole := map[Role]uint64{}
	for _, s := range p.Samples() {
		if s.VNIC == OverflowVNIC {
			byRole[s.Role] += s.Cycles
		}
	}
	if byRole[RoleLocal] != 100 || byRole[RoleFE] != 7 || len(byRole) != 2 {
		t.Errorf("overflow samples by role = %v, want local 100 and fe 7", byRole)
	}
}

// TestRelocatableSumsTenantSlots: Relocatable reports each tenant
// slot's slow-path and session-install cycles over both directions,
// nothing else they were charged, and skips control-plane and overflow
// slots, which name no vNIC an offload can move.
func TestRelocatableSumsTenantSlots(t *testing.T) {
	n := NewNode("10.1.0.1", 2)
	be, fe := n.Slot(7, RoleLocal), n.Slot(7, RoleFE)
	be.Charge(DirTX, StageSlowpath, 100)
	be.Charge(DirRX, StageSlowpath, 20)
	be.Charge(DirTX, StageSessionInstall, 5)
	be.Charge(DirTX, StageFastpath, 1000)
	fe.Charge(DirRX, StageSessionInstall, 3)
	n.Slot(7, RoleCtrl).Charge(DirNone, StageCtrl, 9)
	n.Slot(OverflowVNIC, RoleLocal).Charge(DirTX, StageSlowpath, 11)

	type got struct {
		vnic       uint32
		rule, sess uint64
	}
	var out []got
	n.Relocatable(func(vnic uint32, rule, sess uint64) { out = append(out, got{vnic, rule, sess}) })
	want := []got{{7, 120, 5}, {7, 0, 3}}
	if len(out) != len(want) || out[0] != want[0] || out[1] != want[1] {
		t.Fatalf("Relocatable reported %+v, want %+v", out, want)
	}
}

func TestSamplesCauseDerivationAndOrder(t *testing.T) {
	p := New()
	n := p.Node("nodeB", 2)
	v := n.Slot(1, RoleLocal)
	v.Charge(DirTX, StageSlowpath, 100)
	v.Charge(DirTX, StageFastpath, 50)
	v.Charge(DirRX, StageSessionInstall, 25)
	v.MemAlloc(CauseRuleTable, 4096)
	v.MemFree(CauseRuleTable, 1024)

	n2 := p.Node("nodeA", 2)
	n2.Slot(2, RoleFE).Charge(DirRX, StageEncap, 7)

	ss := p.Samples()
	if len(ss) != 5 {
		t.Fatalf("got %d samples, want 5: %+v", len(ss), ss)
	}
	if ss[0].Node != "nodeA" {
		t.Fatalf("samples not sorted by node: first is %q", ss[0].Node)
	}
	byStage := map[Stage]Sample{}
	for _, s := range ss {
		if s.Node == "nodeB" && s.Cycles > 0 {
			byStage[s.Stage] = s
		}
	}
	if byStage[StageSlowpath].Cause != CauseRuleTable {
		t.Errorf("slowpath cause = %v, want rule-table", byStage[StageSlowpath].Cause)
	}
	if byStage[StageFastpath].Cause != CauseFlowCache {
		t.Errorf("fastpath cause = %v, want flowcache", byStage[StageFastpath].Cause)
	}
	if byStage[StageSessionInstall].Cause != CauseSessionTable {
		t.Errorf("session-install cause = %v, want session-table", byStage[StageSessionInstall].Cause)
	}
	var mem *Sample
	for i := range ss {
		if ss[i].Bytes > 0 {
			mem = &ss[i]
		}
	}
	if mem == nil || mem.Bytes != 3072 || mem.Cause != CauseRuleTable || mem.Dir != DirNone {
		t.Fatalf("mem sample = %+v, want live 3072 rule-table bytes dir=none", mem)
	}
}

func TestLiveWalkerEmitsBytes(t *testing.T) {
	p := New()
	n := p.Node("n", 1)
	n.SetLive(func(emit func(vnic uint32, role Role, cause Cause, bytes uint64)) {
		emit(5, RoleLocal, CauseSessionTable, 128)
		emit(5, RoleLocal, CauseFlowCache, 64)
		emit(6, RoleFE, CauseSessionTable, 0) // zero must be dropped
	})
	ss := p.Samples()
	if len(ss) != 2 {
		t.Fatalf("got %d samples, want 2: %+v", len(ss), ss)
	}
	if ss[0].Cause != CauseFlowCache || ss[0].Bytes != 64 {
		t.Errorf("first sample %+v, want flowcache 64", ss[0])
	}
	if ss[1].Cause != CauseSessionTable || ss[1].Bytes != 128 {
		t.Errorf("second sample %+v, want session-table 128", ss[1])
	}
}

func TestUtilizationTimeline(t *testing.T) {
	p := New()
	n := p.Node("n", 2)
	busy := []sim.Time{0, 0}
	n.SetCoreBusy(func(out []sim.Time) []sim.Time {
		return append(out, busy...)
	})
	p.Advance(100) // establishes baseline
	busy[0], busy[1] = 50, 100
	p.Advance(200)
	busy[0], busy[1] = 150, 100
	p.Advance(300)
	ws := n.windows // the ring has not wrapped: oldest first
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if ws[0].T0 != 100 || ws[0].T1 != 200 {
		t.Errorf("window 0 span [%d,%d], want [100,200]", ws[0].T0, ws[0].T1)
	}
	if ws[0].Util[0] != 0.5 || ws[0].Util[1] != 1.0 {
		t.Errorf("window 0 util %v, want [0.5 1.0]", ws[0].Util)
	}
	if ws[1].Util[0] != 1.0 || ws[1].Util[1] != 0.0 {
		t.Errorf("window 1 util %v, want [1.0 0.0]", ws[1].Util)
	}
	if tail := n.windowsTail(); len(tail) != 1 || tail[0].T1 != 300 {
		t.Errorf("windowsTail = %+v, want the [200,300] window", tail)
	}
}

func TestPprofRoundTrip(t *testing.T) {
	p := New()
	n := p.Node("10.1.0.1", 4)
	v := n.Slot(100, RoleLocal)
	v.Charge(DirTX, StageFastpath, 2000)
	v.Charge(DirTX, StageSlowpath, 9000)
	v.MemAlloc(CauseBEData, 2048)

	raw, err := p.ProfileBytes(5_000_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DecodeProfile(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dp.SampleTypes) != 2 || dp.SampleTypes[0] != "cycles/cycles" || dp.SampleTypes[1] != "bytes/bytes" {
		t.Fatalf("sample types = %v", dp.SampleTypes)
	}
	if dp.TimeNanos != 5_000_000 || dp.DurationNanos != 1_000_000 {
		t.Errorf("time/duration = %d/%d", dp.TimeNanos, dp.DurationNanos)
	}
	if len(dp.Samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(dp.Samples))
	}
	wantStacks := map[string]int64{
		"stage:fastpath;cause:flowcache;dir:tx;vnic:100/local;node:10.1.0.1":  2000,
		"stage:slowpath;cause:rule-table;dir:tx;vnic:100/local;node:10.1.0.1": 9000,
	}
	var memSeen bool
	for _, s := range dp.Samples {
		key := strings.Join(s.Stack, ";")
		if cyc, ok := wantStacks[key]; ok {
			if s.Values[0] != cyc || s.Values[1] != 0 {
				t.Errorf("stack %s values %v, want [%d 0]", key, s.Values, cyc)
			}
			delete(wantStacks, key)
			continue
		}
		if key == "mem:be-data;vnic:100/local;node:10.1.0.1" {
			memSeen = true
			if s.Values[0] != 0 || s.Values[1] != 2048 {
				t.Errorf("mem values %v, want [0 2048]", s.Values)
			}
			continue
		}
		t.Errorf("unexpected stack %q", key)
	}
	if len(wantStacks) != 0 || !memSeen {
		t.Errorf("missing stacks: %v (mem seen: %v)", wantStacks, memSeen)
	}
}

// TestPprofOpensAsCycles pins what go tool pprof needs to show a dump
// as cycles with no symbolization attempt: default_sample_type names
// cycles, and the one mapping, named nezha, says it has functions.
func TestPprofOpensAsCycles(t *testing.T) {
	p := New()
	p.Node("n", 1).Slot(1, RoleLocal).Charge(DirRX, StageEncap, 77)
	raw, err := p.ProfileBytes(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DecodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dp.DefaultSampleType != "cycles" {
		t.Errorf("default sample type = %q, want cycles", dp.DefaultSampleType)
	}

	var strs []string
	var mapping []byte
	r := &pbReader{b: encodeProfile(p.Samples(), 0, 0)}
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			t.Fatal(err)
		}
		switch num {
		case pfMapping:
			if mapping != nil {
				t.Fatal("more than one mapping")
			}
			mapping, err = r.bytes()
		case pfStringTable:
			var b []byte
			b, err = r.bytes()
			strs = append(strs, string(b))
		default:
			err = r.skip(wire)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var file uint64
	hasFunctions := false
	mr := &pbReader{b: mapping}
	for !mr.done() {
		num, wire, err := mr.field()
		if err != nil {
			t.Fatal(err)
		}
		switch num {
		case mpFilename:
			file, err = mr.uvarint()
		case mpHasFunctions:
			var v uint64
			v, err = mr.uvarint()
			hasFunctions = v == 1
		default:
			err = mr.skip(wire)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !hasFunctions {
		t.Error("mapping lacks has_functions: pprof would try to symbolize it")
	}
	if file >= uint64(len(strs)) || strs[file] != "nezha" {
		t.Errorf("mapping file index %d in %q, want nezha", file, strs)
	}
}

func TestAttachEmitsRegistrySeries(t *testing.T) {
	p := New()
	var now sim.Time = 1000
	p.SetClock(func() sim.Time { return now })
	n := p.Node("nd", 2)
	busy := []sim.Time{0, 0}
	n.SetCoreBusy(func(out []sim.Time) []sim.Time { return append(out, busy...) })
	v := n.Slot(3, RoleLocal)
	v.Charge(DirTX, StageFastpath, 10)
	v.MemAlloc(CauseBEData, 2048)

	reg := obs.NewRegistry()
	p.Attach(reg)
	reg.Snapshot(now) // baseline window
	now = 2000
	busy[0] = 500
	snap := reg.Snapshot(now)

	var cyc, mem, util int
	for _, pt := range snap.Points {
		switch pt.Name {
		case "prof_cycles_total":
			cyc++
			if pt.Labels["stage"] != "fastpath" || pt.Labels["vnic"] != "3" ||
				pt.Labels["dir"] != "tx" || pt.Labels["cause"] != "flowcache" ||
				pt.Labels["node"] != "nd" || pt.Labels["role"] != "local" {
				t.Errorf("cycle labels %v", pt.Labels)
			}
			if pt.Value != 10 {
				t.Errorf("cycle value %v, want 10", pt.Value)
			}
		case "prof_mem_live_bytes":
			mem++
			if pt.Labels["cause"] != "be-data" || pt.Value != 2048 {
				t.Errorf("mem point %v=%v", pt.Labels, pt.Value)
			}
		case "prof_core_util":
			util++
			if pt.Labels["core"] == "0" && pt.Value != 0.5 {
				t.Errorf("core0 util %v, want 0.5", pt.Value)
			}
		}
	}
	if cyc != 1 || mem != 1 || util != 2 {
		t.Errorf("series counts cyc=%d mem=%d util=%d, want 1/1/2", cyc, mem, util)
	}
}
