package vswitch

// The work ledger (DESIGN.md §11). Each vSwitch owns one
// prof.NodeProf from New and keeps it always: a packet's cycles go
// through a cost accumulator, each reserved byte of NIC memory through
// reserve/release, so every charge is added once, by one call. Slots
// are claimed at install and cached on vnicState/feInstance, so a
// charge is one array add — no maps and no allocations. Every datapath
// charge sits in a role's plan function, which runs once per packet
// whatever the length of its run, so attribution cannot depend on
// batching: the run-length differentials hold it equal by
// construction. EnableProf only exports the ledger.

import (
	"nezha/internal/flowcache"
	"nezha/internal/prof"
)

// cost prices one packet: add sums the cycles its act submits to the
// CPU model and charges them to the packet's (vNIC, role) slot, so the
// two cannot disagree.
type cost struct {
	cycles uint64
	slot   *prof.VNICProf
	dir    prof.Dir
}

// add charges n cycles of stage s.
func (c *cost) add(s prof.Stage, n uint64) {
	c.cycles += n
	c.slot.Charge(c.dir, s, n)
}

// reserve takes n bytes of rule-table memory for slot's cause c. It
// charges nothing and reports false when the budget cannot fit them.
func (vs *VSwitch) reserve(slot *prof.VNICProf, c prof.Cause, n int) bool {
	if !vs.mem.Alloc(n) {
		return false
	}
	slot.MemAlloc(c, uint64(n))
	return true
}

// release refunds n bytes reserve took for slot's cause c.
func (vs *VSwitch) release(slot *prof.VNICProf, c prof.Cause, n int) {
	vs.mem.Free(n)
	slot.MemFree(c, uint64(n))
}

// EnableProf exports this vSwitch's ledger through the attribution
// profiler: it registers the NodeProf, keyed by underlay address, with
// the per-core busy sampler for utilization timelines and a drain-time
// session/flowcache residency walker. The ledger is kept from New, so
// the export covers the switch's whole history.
func (vs *VSwitch) EnableProf(p *prof.Profiler) {
	if p == nil {
		return
	}
	vs.node.SetCoreBusy(vs.cpu.CoreBusyTimes)
	vs.node.SetLive(vs.profLive)
	p.Register(vs.node)
}

// ProfCtrl attributes control-plane cycles (RPC dispatch, config
// applies) to the ctrl stage. Attribution-only: control packets are
// flow-directed past the CPU queue, so this never touches admission,
// timing, or any digested counter. vnic 0 charges the node-level
// ctrl slot.
func (vs *VSwitch) ProfCtrl(vnic uint32, cycles uint64) {
	slot := vs.ctrl
	if vnic != 0 {
		slot = vs.node.Slot(vnic, prof.RoleCtrl)
	}
	slot.Charge(prof.DirNone, prof.StageCtrl, cycles)
}

// profLive walks the session table at drain time and reports live
// residency per (vnic, role): entry + state bytes as session-table
// cause, cached pre-actions as flowcache cause. Aggregated before
// emitting so a drain produces O(vnics) samples, not O(sessions).
func (vs *VSwitch) profLive(emit func(vnic uint32, role prof.Role, cause prof.Cause, bytes uint64)) {
	type liveAcc struct {
		vnic         uint32
		role         prof.Role
		state, cache uint64
	}
	var accs []liveAcc
	vs.sessions.Range(func(e *flowcache.Entry) bool {
		vnic := vs.sessions.Key(e).VNIC
		role := prof.RoleLocal
		if _, hosted := vs.fe(vnic); hosted {
			role = prof.RoleFE
		}
		var a *liveAcc
		for i := range accs {
			if accs[i].vnic == vnic && accs[i].role == role {
				a = &accs[i]
				break
			}
		}
		if a == nil {
			accs = append(accs, liveAcc{vnic: vnic, role: role})
			a = &accs[len(accs)-1]
		}
		total := uint64(vs.sessions.SizeOf(e))
		if e.HasPre() {
			a.cache += flowcache.PreActionsBytes
			total -= flowcache.PreActionsBytes
		}
		a.state += total
		return true
	})
	for _, a := range accs {
		emit(a.vnic, a.role, prof.CauseSessionTable, a.state)
		emit(a.vnic, a.role, prof.CauseFlowCache, a.cache)
	}
}
