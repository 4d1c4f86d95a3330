package vswitch

// Burst datapath (DESIGN.md §10, §15): opt-in entry points that move
// whole batches of packets through the vSwitch with the per-packet
// semantics of the scalar path — identical CPU placement, admission
// decisions, cycle charges, and egress order — while amortizing
// everything that is per-arrival bookkeeping rather than per-packet
// work: the vNIC lookup, the CPU scheduler events (one per completion
// wave instead of one per packet, via nic.CPU.SubmitBurst), and the
// fabric events (one per same-deadline group instead of one per
// packet, via fabric.SendBurst). The per-role plan stages live in
// datapath.go and are the same ones the scalar entry points run.
//
// The scalar entry points share this file's act verbs and act body
// (runAct): a scalar packet is one planned act on a pooled stage task
// (datapath.go) where a burst is a slice of them on one burstRun.

import (
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
)

// burstAct is the planned egress side effect of one CPU-submitted
// packet. The pre-CPU stages (lookup, state, admission) run at plan
// time, when the packet arrives; the act executes when the CPU
// completes the packet.
type burstAct struct {
	p      *packet.Packet
	cycles uint64
	kind   uint8
	to     packet.IPv4 // actForward / actRelay destination
	peer   uint32      // actForward peer-vNIC rewrite
	vnic   uint32      // actDeliver target vNIC
	strip  bool        // strip the Nezha header before egress
}

const (
	actForward uint8 = iota // overlay rewrite + encap + fabric send
	actRelay                // encap + fabric send (BE→FE, FE→BE relays)
	actDeliver              // hand to the local VM
	actDropACL
	actDropNoRoute
	actAbsorbNotify // consume a notify packet, applying its carried policy
)

// pendSend is an egress waiting for the end of its completion wave,
// when all same-destination sends of the wave leave as one fabric
// burst.
type pendSend struct {
	to packet.IPv4
	p  *packet.Packet
}

// FromVMBurst injects a batch of TX packets from local VMs, taking
// ownership of each exactly as FromVM does. Packets are processed in
// slice order; consecutive same-vNIC packets share one vNIC lookup and
// one CPU/fabric event stream.
func (vs *VSwitch) FromVMBurst(ps []*packet.Packet) {
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && ps[j].VNIC == ps[i].VNIC {
			j++
		}
		vs.fromVMRun(ps[i:j])
		i = j
	}
}

// fromVMRun is FromVM for a run of same-vNIC packets.
func (vs *VSwitch) fromVMRun(ps []*packet.Packet) {
	vs.Stats.FromVM += uint64(len(ps))
	for _, p := range ps {
		p.CheckLive()
		if vs.ob != nil {
			vs.hop(p, obs.StageIngressVM)
		}
	}
	if vs.crashed {
		for _, p := range ps {
			vs.drop(p, DropCrashed)
		}
		return
	}
	vn, ok := vs.vnics[ps[0].VNIC]
	if !ok {
		for _, p := range ps {
			vs.drop(p, DropNoRules)
		}
		return
	}
	// VM-level rate admission runs over the whole batch in arrival
	// order, before planning — the limiter is a strictly
	// order-sensitive shared bucket.
	admitted := vs.admitBuf[:0]
	for _, p := range ps {
		if vs.rateAdmit(vn, p) {
			admitted = append(admitted, p)
		}
	}
	vs.admitBuf = admitted[:0]
	if len(admitted) == 0 {
		return
	}
	switch {
	case vn.offloaded && len(vn.fes) > 0:
		vs.beTXBurst(vn, admitted)
	case vn.rules != nil:
		vs.localTXBurst(vn, admitted)
	default:
		for _, p := range admitted {
			vs.drop(p, DropNoRules)
		}
	}
}

// HandleUnderlayBurst receives a coalesced fabric burst. Runs of
// consecutive packets that classify to the same batched RX pipeline
// (hosted-FE RX, monolithic RX) move as a unit; everything else —
// probes, pongs, control RPCs, Nezha-typed relays — takes the scalar
// path packet by packet, in order.
func (vs *VSwitch) HandleUnderlayBurst(ps []*packet.Packet) {
	if vs.crashed || len(ps) == 1 {
		for _, p := range ps {
			vs.HandleUnderlay(p)
		}
		return
	}
	for i := 0; i < len(ps); {
		cls, vnic := vs.classifyRX(ps[i])
		j := i + 1
		if cls != classOther {
			// Extending the run needs no classify map lookups: a packet
			// with the same vNIC, no Nezha metadata, and no flow-direct
			// port classifies identically by construction.
			for j < len(ps) && vs.sameRXClass(ps[j], vnic) {
				j++
			}
		}
		run := ps[i:j]
		if cls != classOther {
			for _, p := range run {
				p.CheckLive()
			}
			vs.Stats.FromNet += uint64(len(run))
		}
		switch cls {
		case classFeRX:
			vs.feRXBurst(vs.fes[vnic], run)
		case classLocalRX:
			vs.localRXBurst(vs.vnics[vnic], run)
		default:
			vs.HandleUnderlay(run[0])
		}
		i = j
	}
}

const (
	classOther uint8 = iota // scalar HandleUnderlay handles it
	classFeRX
	classLocalRX
)

// classifyRX decides which batched pipeline (if any) an underlay
// packet belongs to. It mirrors HandleUnderlay's dispatch order.
func (vs *VSwitch) classifyRX(p *packet.Packet) (uint8, uint32) {
	if p.Tuple.Proto == packet.ProtoUDP &&
		(p.Tuple.DstPort == ProbePort || p.Tuple.DstPort == mutualPort || p.Tuple.DstPort == CtrlPort) {
		return classOther, 0
	}
	if p.Nezha != nil && p.Nezha.Type != packet.NezhaNone {
		return classOther, 0
	}
	if _, ok := vs.fes[p.VNIC]; ok {
		return classFeRX, p.VNIC
	}
	if vn, ok := vs.vnics[p.VNIC]; ok && vn.rules != nil {
		return classLocalRX, p.VNIC
	}
	return classOther, 0
}

// sameRXClass reports whether p classifies to the same non-Other class
// as an already-classified packet of vNIC vnic, without touching the
// FE/vNIC maps.
func (vs *VSwitch) sameRXClass(p *packet.Packet, vnic uint32) bool {
	if p.VNIC != vnic {
		return false
	}
	if p.Tuple.Proto == packet.ProtoUDP &&
		(p.Tuple.DstPort == ProbePort || p.Tuple.DstPort == mutualPort || p.Tuple.DstPort == CtrlPort) {
		return false
	}
	return p.Nezha == nil || p.Nezha.Type == packet.NezhaNone
}

// The four batched pipelines: the role's plan stage per packet, in
// arrival order, then one CPU burst.
const (
	pipeLocalTX uint8 = iota
	pipeLocalRX
	pipeBeTX
	pipeFeRX
)

func (vs *VSwitch) localTXBurst(vn *vnicState, ps []*packet.Packet) {
	vs.runBurstPipeline(pipeLocalTX, vn, nil, vs.profVNIC(vn), ps, false)
}

func (vs *VSwitch) beTXBurst(vn *vnicState, ps []*packet.Packet) {
	vs.runBurstPipeline(pipeBeTX, vn, nil, vs.profVNIC(vn), ps, false)
}

func (vs *VSwitch) feRXBurst(fe *feInstance, ps []*packet.Packet) {
	vs.runBurstPipeline(pipeFeRX, nil, fe, vs.profFE(fe), ps, true)
}

func (vs *VSwitch) localRXBurst(vn *vnicState, ps []*packet.Packet) {
	vs.runBurstPipeline(pipeLocalRX, vn, nil, vs.profVNIC(vn), ps, false)
}

// runBurstPipeline plans a same-pipeline run of packets in arrival
// order and submits the planned acts as one CPU burst.
func (vs *VSwitch) runBurstPipeline(pipe uint8, vn *vnicState, fe *feInstance, vp *prof.VNICProf, ps []*packet.Packet, remote bool) {
	acts := vs.getActs(len(ps))
	var a burstAct
	for _, p := range ps {
		key, hash, _ := p.SessionKeyHashed()
		var ok bool
		switch pipe {
		case pipeLocalTX:
			ok = vs.planLocalTX(vn, vp, p, key, hash, &a)
		case pipeLocalRX:
			ok = vs.planLocalRX(vn, vp, p, key, hash, &a)
		case pipeBeTX:
			ok = vs.planBeTX(vn, vp, p, key, hash, &a)
		default:
			ok = vs.planFeRX(fe, vp, p, key, hash, &a)
		}
		if ok {
			acts = append(acts, a)
		}
	}
	vs.runPlan(acts, remote)
}

// getActs takes a pooled act buffer. runPlan returns it to the pool
// when the burst's last CPU completion fires — the buffer is retained
// by the burst's sink, so multiple bursts can be in flight with their
// own buffers.
func (vs *VSwitch) getActs(n int) []burstAct {
	if m := len(vs.actsFree); m > 0 {
		a := vs.actsFree[m-1]
		vs.actsFree = vs.actsFree[:m-1]
		return a[:0]
	}
	return make([]burstAct, 0, n)
}

func (vs *VSwitch) putActs(a []burstAct) {
	vs.actsFree = append(vs.actsFree, a)
}

// runPlan submits the planned packets to the CPU as one burst and
// executes each act at its completion. Sends accumulate per wave and
// leave as coalesced fabric bursts when the wave ends — the same
// instant the scalar path would have sent them one by one. The acts
// buffer is pooled: the completion closure owns it until the last
// completion fires (multiple bursts can be in flight), then returns it
// via putActs.
func (vs *VSwitch) runPlan(acts []burstAct, remote bool) {
	if len(acts) == 0 {
		vs.putActs(acts)
		return
	}
	costs := vs.burstCosts[:0]
	for i := range acts {
		costs = append(costs, acts[i].cycles)
		if remote {
			vs.cyclesRemote += acts[i].cycles
		} else {
			vs.cyclesLocal += acts[i].cycles
		}
	}
	vs.burstCosts = costs
	vs.inFlightCPU += len(acts)
	vs.cpu.SubmitBurstTo(costs, vs.getRun(acts))
}

// burstRun is one submitted burst's nic.BurstSink: it executes each
// act at its CPU completion and recycles the act buffer (and itself)
// when the burst's last item resolves. Runs are pooled on the vSwitch
// so submitting a burst allocates nothing; several can be in flight
// at once, each owning its act buffer.
type burstRun struct {
	vs        *VSwitch
	acts      []burstAct
	remaining int
	next      *burstRun
}

func (vs *VSwitch) getRun(acts []burstAct) *burstRun {
	r := vs.runFree
	if r == nil {
		r = &burstRun{}
	} else {
		vs.runFree = r.next
		r.next = nil
	}
	r.vs = vs
	r.acts = acts
	r.remaining = len(acts)
	return r
}

func (vs *VSwitch) putRun(r *burstRun) {
	r.acts = nil
	r.next = vs.runFree
	vs.runFree = r
}

// Complete implements nic.BurstSink: the act stage of one packet,
// executed at CPU completion (or a synchronous overload drop).
func (r *burstRun) Complete(i int, ok bool, d sim.Time) {
	vs := r.vs
	vs.inFlightCPU--
	a := &r.acts[i]
	if !ok {
		vs.drop(a.p, DropOverload)
	} else if vs.runAct(a, d) {
		vs.pend = append(vs.pend, pendSend{to: a.to, p: a.p})
	}
	r.remaining--
	if r.remaining == 0 {
		vs.putActs(r.acts)
		vs.putRun(r)
	}
}

// runAct executes one planned act at its CPU completion — the single
// act body behind the burst sink and the scalar stage task. It reports
// whether a.p, now encapsulated toward a.to, is the caller's to send:
// the burst path coalesces the wave's sends, the scalar path sends at
// once.
func (vs *VSwitch) runAct(a *burstAct, d sim.Time) (send bool) {
	if vs.ob != nil {
		vs.hopCPU(a.p, a.cycles, d)
	}
	switch a.kind {
	case actForward:
		a.p.VNIC = a.peer
		a.p.Dir = packet.DirRX
		fallthrough
	case actRelay:
		a.p.Encap(vs.cfg.Addr, a.to)
		vs.Stats.Sent++
		return true
	case actDeliver:
		if a.strip {
			vs.stripNezha(a.p)
		}
		vs.deliverToVM(a.vnic, a.p)
	case actDropACL:
		vs.drop(a.p, DropACL)
	case actDropNoRoute:
		vs.drop(a.p, DropNoRoute)
	case actAbsorbNotify:
		vs.absorbNotify(a.p)
	}
	return false
}

// WaveEnd implements nic.BurstSink: flush the wave's coalesced sends.
// Safe even after the run recycled itself in its final Complete — the
// vSwitch pointer survives recycling, and no new run can claim this
// struct before this call returns (flushPend only schedules events).
func (r *burstRun) WaveEnd([]int32) { r.vs.flushPend() }

// flushPend ships the wave's accumulated sends, one fabric burst per
// run of consecutive same-destination packets.
func (vs *VSwitch) flushPend() {
	pend := vs.pend
	vs.pend = vs.pend[:0]
	for i := 0; i < len(pend); {
		j := i + 1
		for j < len(pend) && pend[j].to == pend[i].to {
			j++
		}
		buf := vs.sendBuf[:0]
		for k := i; k < j; k++ {
			buf = append(buf, pend[k].p)
		}
		vs.sendBuf = buf[:0]
		vs.fab.SendBurst(vs.cfg.Addr, pend[i].to, buf)
		i = j
	}
}
