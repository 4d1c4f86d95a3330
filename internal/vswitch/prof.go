package vswitch

// Attribution-profiler wiring (DESIGN.md §11). With profiling off
// (vs.prof == nil) the datapath pays a nil check per charge site;
// with it on, each charge is one uint64 array add on a slot pointer
// cached at vNIC/FE install time — no maps and no allocations, so a
// packet stays allocation-free. Every datapath charge sits in a role's
// plan function, which runs once per packet whatever the length of
// its run, so attribution cannot depend on batching: the run-length
// differentials hold it equal by construction.

import (
	"nezha/internal/flowcache"
	"nezha/internal/prof"
)

// vsProf holds the vSwitch's profiler bindings.
type vsProf struct {
	p    *prof.Profiler
	node *prof.NodeProf
	// ctrl accumulates control-plane work not tied to a tenant vNIC
	// (RPC dispatch, memory-pressure reservations).
	ctrl *prof.VNICProf
}

// EnableProf wires this vSwitch into the attribution profiler: a
// NodeProf keyed by underlay address, the per-core busy sampler for
// utilization timelines, a drain-time session/flowcache residency
// walker, and cached slot pointers on every installed vNIC and FE
// instance.
func (vs *VSwitch) EnableProf(p *prof.Profiler) {
	if p == nil {
		return
	}
	node := p.Node(vs.cfg.Addr.String(), vs.cfg.Cores)
	node.SetCoreBusy(vs.cpu.CoreBusyTimes)
	node.SetLive(vs.profLive)
	vs.prof = &vsProf{p: p, node: node, ctrl: node.Slot(0, prof.RoleCtrl)}
	for _, vn := range vs.vnics {
		vn.prof = node.Slot(vn.id, prof.RoleLocal)
		if vn.ruleBytes > 0 {
			vn.prof.MemAlloc(prof.CauseRuleTable, uint64(vn.ruleBytes))
		}
		if vn.beCharged {
			vn.prof.MemAlloc(prof.CauseBEData, BEDataBytes)
		}
	}
	for _, fe := range vs.fes {
		fe.prof = node.Slot(fe.vnic, prof.RoleFE)
		if fe.ruleBytes > 0 {
			fe.prof.MemAlloc(prof.CauseRuleTable, uint64(fe.ruleBytes))
		}
	}
}

// profCharge attributes cycles when profiling is on. vp is the cached
// slot pointer (nil whenever profiling is off), so the off cost is
// one branch.
func profCharge(vp *prof.VNICProf, d prof.Dir, s prof.Stage, cycles uint64) {
	if vp != nil {
		vp.Charge(d, s, cycles)
	}
}

// profVNIC returns the vNIC's local-role slot (nil with profiling
// off), claiming it if the vNIC predates EnableProf.
func (vs *VSwitch) profVNIC(vn *vnicState) *prof.VNICProf {
	if vs.prof == nil {
		return nil
	}
	if vn.prof == nil {
		vn.prof = vs.prof.node.Slot(vn.id, prof.RoleLocal)
	}
	return vn.prof
}

// profFE is profVNIC for hosted FE instances.
func (vs *VSwitch) profFE(fe *feInstance) *prof.VNICProf {
	if vs.prof == nil {
		return nil
	}
	if fe.prof == nil {
		fe.prof = vs.prof.node.Slot(fe.vnic, prof.RoleFE)
	}
	return fe.prof
}

// ProfCtrl attributes control-plane cycles (RPC dispatch, config
// applies) to the ctrl stage. Attribution-only: control packets are
// flow-directed past the CPU queue, so this never touches admission,
// timing, or any digested counter. vnic 0 charges the node-level
// ctrl slot.
func (vs *VSwitch) ProfCtrl(vnic uint32, cycles uint64) {
	if vs.prof == nil {
		return
	}
	slot := vs.prof.ctrl
	if vnic != 0 {
		slot = vs.prof.node.Slot(vnic, prof.RoleCtrl)
	}
	slot.Charge(prof.DirNone, prof.StageCtrl, cycles)
}

// profMemCtrl attributes node-level (non-vNIC) memory traffic.
func (vs *VSwitch) profMemCtrl(cause prof.Cause, alloc bool, n int) {
	if vs.prof == nil || n <= 0 {
		return
	}
	if alloc {
		vs.prof.ctrl.MemAlloc(cause, uint64(n))
	} else {
		vs.prof.ctrl.MemFree(cause, uint64(n))
	}
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
		role := prof.RoleLocal
		if _, hosted := vs.fes[e.Key.VNIC]; hosted {
			role = prof.RoleFE
		}
		var a *liveAcc
		for i := range accs {
			if accs[i].vnic == e.Key.VNIC && accs[i].role == role {
				a = &accs[i]
				break
			}
		}
		if a == nil {
			accs = append(accs, liveAcc{vnic: e.Key.VNIC, role: role})
			a = &accs[len(accs)-1]
		}
		total := uint64(vs.sessions.SizeOf(e))
		if e.HasPre {
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
