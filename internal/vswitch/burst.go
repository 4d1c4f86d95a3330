package vswitch

// One datapath (DESIGN.md §10, §15). Every packet enters as part of a
// run — a slice of packets that take the same role's work: FromVM and
// HandleUnderlay are runs of one, FromVMBurst and HandleUnderlayBurst
// split their batch into runs. A run goes through its role's plan
// function (datapath.go) packet by packet, in arrival order, and
// runPlan submits what the plans leave to the CPU model. What a run
// amortizes is per-arrival bookkeeping, never per-packet work: the
// vNIC lookup, the CPU scheduler events (one per completion wave via
// nic.CPU.SubmitBurstTo) and the fabric events (one per same-deadline
// group via fabric.SendBurst).

import (
	"nezha/internal/nic"
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

// FromVM injects a TX packet from a local VM into the vSwitch, which
// takes ownership: the packet terminates in a drop (released), a
// delivery (the delivery callback owns it), or a fabric send.
func (vs *VSwitch) FromVM(p *packet.Packet) {
	ps := [1]*packet.Packet{p}
	vs.fromVMRun(ps[:])
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
		vs.dropRun(ps, DropCrashed)
		return
	}
	vn, ok := vs.vnic(ps[0].VNIC)
	if !ok {
		vs.dropRun(ps, DropNoRules)
		return
	}
	// VM-level rate admission runs over the whole run in arrival order,
	// before planning — the limiter is a strictly order-sensitive shared
	// bucket.
	admitted := ps
	if vn.limiter != nil {
		buf := vs.admitBuf[:0]
		for _, p := range ps {
			if vs.rateAdmit(vn, p) {
				buf = append(buf, p)
			}
		}
		vs.admitBuf = buf[:0]
		admitted = buf
	}
	switch {
	case len(admitted) == 0:
	case vn.offloaded && len(vn.fes) > 0:
		vs.runBurstPipeline(pipeBeTX, vn, nil, admitted)
	case vn.rules != nil:
		vs.runBurstPipeline(pipeLocalTX, vn, nil, admitted)
	default:
		vs.dropRun(admitted, DropNoRules)
	}
}

// HandleUnderlay receives a packet from the fabric and takes
// ownership, like FromVM.
func (vs *VSwitch) HandleUnderlay(p *packet.Packet) {
	ps := [1]*packet.Packet{p}
	vs.underlayRun(ps[:])
}

// HandleUnderlayBurst receives a coalesced fabric burst, taking
// ownership of each packet. It splits the burst into runs of packets
// the classifier cannot tell apart and dispatches the runs in order.
func (vs *VSwitch) HandleUnderlayBurst(ps []*packet.Packet) {
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && sameClass(ps[i], ps[j]) {
			j++
		}
		vs.underlayRun(ps[i:j])
		i = j
	}
}

// flowDirect reports whether p is addressed to the vSwitch itself —
// a health probe, a mutual pong or a control RPC — not to a vNIC.
func flowDirect(p *packet.Packet) bool {
	return p.Tuple.Proto == packet.ProtoUDP &&
		(p.Tuple.DstPort == ProbePort || p.Tuple.DstPort == mutualPort || p.Tuple.DstPort == CtrlPort)
}

// nezhaOf returns p's Nezha type and the vNIC its header names.
func nezhaOf(p *packet.Packet) (packet.NezhaType, uint32) {
	if p.Nezha == nil {
		return packet.NezhaNone, 0
	}
	return p.Nezha.Type, p.Nezha.VNIC
}

// sameClass reports whether b classifies as a does. underlayRun reads
// nothing of a packet but its vNIC, its Nezha type and vNIC, and
// whether it is flow-direct, so equal inputs classify alike; a
// flow-direct packet is always a run of one.
func sameClass(a, b *packet.Packet) bool {
	if a.VNIC != b.VNIC || flowDirect(a) || flowDirect(b) {
		return false
	}
	at, av := nezhaOf(a)
	bt, bv := nezhaOf(b)
	return at == bt && av == bv
}

// underlayRun is the underlay classifier, the one place that orders
// the dispatch of fabric packets: crashed, then the flow-direct ports,
// then the three Nezha types keyed by the header's vNIC, then plain
// overlay RX for a hosted FE, a resident vNIC, a final-stage vNIC, or
// nobody. Every packet of ps classifies alike (sameClass).
func (vs *VSwitch) underlayRun(ps []*packet.Packet) {
	for _, p := range ps {
		p.CheckLive()
	}
	vs.Stats.FromNet += uint64(len(ps))
	p := ps[0]
	if vs.crashed {
		vs.dropRun(ps, DropCrashed)
		return
	}
	if flowDirect(p) {
		switch p.Tuple.DstPort {
		case ProbePort: // health probes (§4.4)
			vs.handleProbe(p)
		case mutualPort: // pongs for this BE's own FE pings (§C.1)
			vs.handleMutualPong(p)
		default:
			// Control-plane RPCs go to the management agent. The packet
			// is absorbed here, so it is released once the agent has read
			// it; the agent's ack is a fresh packet.
			vs.ProfCtrl(0, nic.CtrlRPCCycles)
			vs.Stats.Absorbed++
			if vs.ctrlHandler != nil {
				vs.ctrlHandler(p)
			}
			p.Release()
		}
		return
	}
	switch typ, vnic := nezhaOf(p); typ {
	case packet.NezhaCarryState: // TX relay arriving at an FE
		if fe, ok := vs.fe(vnic); ok {
			vs.runBurstPipeline(pipeFeTX, nil, fe, ps)
		} else {
			// FE instance withdrawn (scale-in raced with in-flight
			// packets); the sender re-hashes once config settles.
			vs.dropRun(ps, DropNoRules)
		}
		return
	case packet.NezhaCarryPreActions, packet.NezhaNotify: // at the BE
		vn, ok := vs.vnic(vnic)
		switch {
		case !ok:
			vs.dropRun(ps, DropNoRoute)
		case typ == packet.NezhaNotify:
			vs.runBurstPipeline(pipeBeNotify, vn, nil, ps)
		default:
			vs.runBurstPipeline(pipeBeRX, vn, nil, ps)
		}
		return
	}
	vn, fe := vs.resolve(p.VNIC)
	switch {
	case fe != nil:
		vs.runBurstPipeline(pipeFeRX, nil, fe, ps)
	case vn != nil && vn.rules != nil: // monolithic, incl. the dual-running stage
		vs.runBurstPipeline(pipeLocalRX, vn, nil, ps)
	case vn != nil:
		// Final offload stage: the rules are gone and a stale sender has
		// not learned the FE location yet.
		vs.dropRun(ps, DropNoRules)
	default:
		vs.dropRun(ps, DropNoRoute)
	}
}

// dropRun drops every packet of a run for one reason.
func (vs *VSwitch) dropRun(ps []*packet.Packet, r DropReason) {
	for _, p := range ps {
		vs.drop(p, r)
	}
}

// The seven role pipelines (§3, Fig 5), one plan function each.
const (
	pipeLocalTX uint8 = iota
	pipeLocalRX
	pipeBeTX
	pipeBeRX
	pipeBeNotify
	pipeFeTX
	pipeFeRX
)

// runBurstPipeline plans a same-role run in arrival order and submits
// the acts the plans leave. Each packet is priced on the run's slot in
// the role's direction; the FE roles (fe set) charge hosted-FE work,
// the others the vSwitch's own vNICs.
func (vs *VSwitch) runBurstPipeline(pipe uint8, vn *vnicState, fe *feInstance, ps []*packet.Packet) {
	c := cost{dir: prof.DirRX}
	if fe != nil {
		c.slot = fe.slot
	} else {
		c.slot = vn.slot
	}
	if pipe == pipeLocalTX || pipe == pipeBeTX || pipe == pipeFeTX {
		c.dir = prof.DirTX
	}
	// A run of one plans on the stack, a longer one into the plan
	// scratch, grown to fit first so that appends never reallocate.
	var one [1]burstAct
	acts := one[:0]
	if len(ps) > 1 {
		if cap(vs.planBuf) < len(ps) {
			vs.planBuf = make([]burstAct, 0, len(ps))
		}
		acts = vs.planBuf[:0]
	}
	var a burstAct
	for _, p := range ps {
		key, hash, _ := p.SessionKeyHashed()
		c.cycles = 0
		var ok bool
		switch pipe {
		case pipeLocalTX:
			ok = vs.planLocalTX(vn, &c, p, key, hash, &a)
		case pipeLocalRX:
			ok = vs.planLocalRX(vn, &c, p, key, hash, &a)
		case pipeBeTX:
			ok = vs.planBeTX(vn, &c, p, key, hash, &a)
		case pipeBeRX:
			ok = vs.planBeRX(vn, &c, p, key, hash, &a)
		case pipeBeNotify:
			ok = vs.planBeNotify(vn, &c, p, key, hash, &a)
		case pipeFeTX:
			ok = vs.planFeTX(fe, &c, p, key, hash, &a)
		default:
			ok = vs.planFeRX(fe, &c, p, key, hash, &a)
		}
		if ok {
			acts = append(acts, a)
		}
	}
	vs.runPlan(acts)
}

// runPlan submits a run's planned acts to the CPU model; it is the one
// place the datapath does. Each act executes at its CPU completion or
// is dropped as overload. A lone act rides a pooled stage task on
// SubmitTask and leaves by fabric.Send; more share one burst on
// SubmitBurstTo, whose completion waves leave by fabric.SendBurst.
// Both give the same outcomes; the split is by cost, measured on
// crr_offload, whose runs are all one packet long: sending them
// through waves cost 13–15 % of its host_pkts_per_s.
func (vs *VSwitch) runPlan(acts []burstAct) {
	switch len(acts) {
	case 0:
	case 1:
		t := vs.stages.Get()
		t.vs = vs
		t.dbg.markLive("stage task")
		delay, ok := vs.cpu.SubmitTask(acts[0].cycles, t)
		if !ok {
			vs.putStage(t)
			vs.drop(acts[0].p, DropOverload)
			return
		}
		t.act, t.delay = acts[0], delay
		vs.inFlightCPU++
	default:
		costs := vs.burstCosts[:0]
		for i := range acts {
			costs = append(costs, acts[i].cycles)
		}
		vs.burstCosts = costs
		vs.inFlightCPU += len(acts)
		vs.cpu.SubmitBurstTo(costs, vs.getRun(acts))
	}
}

// stageTask is a lone act's scheduled CPU completion: the act plus the
// delay the CPU model charged it. Tasks are pooled per vSwitch, grown
// on demand by the packets in flight.
type stageTask struct {
	vs    *VSwitch
	act   burstAct
	delay sim.Time
	dbg   viewDebugState
}

func (vs *VSwitch) putStage(t *stageTask) {
	t.dbg.markFree("stage task")
	t.act = burstAct{}
	vs.stages.Put(t)
}

// Run fires the completion. The task recycles itself first — its
// fields are copied out — so an act that reenters the vSwitch can reuse
// the struct.
func (t *stageTask) Run() {
	t.dbg.checkLive("stage task")
	vs, a, d := t.vs, t.act, t.delay
	vs.putStage(t)
	vs.inFlightCPU--
	if vs.runAct(&a, d) {
		vs.fab.Send(vs.cfg.Addr, a.to, a.p)
	}
}

// burstRun is one submitted burst's nic.BurstSink: it copies the
// burst's acts into its own buffer, executes each at its CPU
// completion, and recycles itself when the burst's last item
// resolves. Runs are pooled on the vSwitch, buffer and all, so
// submitting a burst allocates nothing; several can be in flight at
// once.
type burstRun struct {
	vs        *VSwitch
	acts      []burstAct
	remaining int
	dbg       viewDebugState
}

func (vs *VSwitch) getRun(acts []burstAct) *burstRun {
	r := vs.runs.Get()
	r.dbg.markLive("burst run")
	r.vs = vs
	r.acts = append(r.acts[:0], acts...)
	r.remaining = len(acts)
	return r
}

func (vs *VSwitch) putRun(r *burstRun) {
	r.dbg.markFree("burst run")
	vs.runs.Put(r)
}

// Complete implements nic.BurstSink: the act stage of one packet,
// executed at CPU completion (or a synchronous overload drop).
func (r *burstRun) Complete(i int, ok bool, d sim.Time) {
	r.dbg.checkLive("burst run")
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
		vs.putRun(r)
	}
}

// runAct executes one planned act at its CPU completion — the single
// act body behind the burst sink and the stage task. It reports
// whether a.p, now encapsulated toward a.to, is the caller's to send:
// a burst coalesces the wave's sends, a stage task sends at once.
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
			a.p.StripNezha()
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
