package ctrlrpc

import (
	"fmt"

	"nezha/internal/fabric"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

// AgentStats counts agent-side RPC handling.
type AgentStats struct {
	Handled    uint64 // first-time requests accepted
	Duplicates uint64 // retransmits deduplicated by request ID
	Applied    uint64 // applies that ran to completion
	Crashed    uint64 // applies abandoned because the vSwitch crashed
	// DupSideEffects counts side-effectful ops applied twice for the
	// same (op, vnic, epoch) under *different* request IDs — the
	// signature of a recovered controller re-issuing work its journal
	// already resolved. Same-ID retransmits are normal at-least-once
	// delivery and do not count.
	DupSideEffects uint64
}

// appKey identifies one logical side effect for duplicate detection.
type appKey struct {
	op    Op
	vnic  uint32
	epoch uint64
}

// noteEffect records a successful side-effectful apply and flags
// replays: a second distinct request ID for the same key means the
// effect ran twice.
func noteEffect(applied map[appKey]uint64, st *AgentStats, op Op, vnic uint32, epoch uint64, id uint64) {
	k := appKey{op: op, vnic: vnic, epoch: epoch}
	if first, ok := applied[k]; ok {
		if first != id {
			st.DupSideEffects++
		}
		return
	}
	applied[k] = id
}

// pendingApply tracks one request through its apply delay, so
// duplicate retransmits neither re-apply nor ack early.
type pendingApply struct {
	from packet.IPv4
	done bool
}

// Agent is the per-vSwitch management endpoint: it receives control
// packets on CtrlPort, applies them against the vSwitch after the
// request's ApplyDelay (the local config-programming time), and acks
// back over the fabric. Requests are deduplicated by ID; an applied
// duplicate re-acks immediately, an in-flight duplicate is ignored
// (its ack follows when the apply completes). If the vSwitch crashes
// before the apply fires, the request is forgotten — a retransmit
// landing after revival applies cleanly.
type Agent struct {
	loop *sim.Loop
	fab  *fabric.Fabric
	t    *Transport
	vs   *vswitch.VSwitch
	// seen and applied are made by the first request, so an agent the
	// controller never addresses costs no map.
	seen    map[uint64]*pendingApply
	applied map[appKey]uint64

	Stats AgentStats
}

// NewAgent wires an agent to a vSwitch's control handler.
func NewAgent(loop *sim.Loop, fab *fabric.Fabric, t *Transport, vs *vswitch.VSwitch) *Agent {
	a := &Agent{loop: loop, fab: fab, t: t, vs: vs}
	vs.SetControlHandler(a.handle)
	return a
}

func (a *Agent) handle(p *packet.Packet) {
	if a.seen == nil {
		a.seen, a.applied = make(map[uint64]*pendingApply), make(map[appKey]uint64)
	}
	id := p.ID
	if st, ok := a.seen[id]; ok {
		a.Stats.Duplicates++
		if st.done {
			a.ack(st.from, id)
		}
		return
	}
	req, from, ok := a.t.Body(id)
	if !ok {
		return // caller already gave up on this request
	}
	a.Stats.Handled++
	st := &pendingApply{from: from}
	a.seen[id] = st
	a.loop.Schedule(req.ApplyDelay, func() {
		if a.vs.Crashed() {
			// Died mid-programming: the config never took. Forget the
			// request so a post-revival retransmit applies fresh.
			delete(a.seen, id)
			a.Stats.Crashed++
			return
		}
		st.done = true
		a.Stats.Applied++
		a.vs.ProfCtrl(req.VNIC, nic.CtrlApplyCycles)
		if req.Op == OpQueryVNIC {
			a.t.SetReply(id, a.queryVNIC(req.VNIC))
			a.t.Verdict(id, nil)
		} else {
			err := a.apply(req)
			if err == nil && (req.Op == OpInstallFE || req.Op == OpOffloadStart) {
				noteEffect(a.applied, &a.Stats, req.Op, req.VNIC, req.Epoch, id)
			}
			a.t.Verdict(id, err)
		}
		a.ack(from, id)
	})
}

// queryVNIC snapshots the vSwitch's installed state for one vNIC: the
// home-side config (FE-set epoch, offload flag) and any hosted FE
// instance. Recovery reconciles the journal against this.
func (a *Agent) queryVNIC(vnic uint32) *Reply {
	rep := &Reply{
		Epoch:     a.vs.FESetEpoch(vnic),
		Resident:  a.vs.HasVNIC(vnic),
		Offloaded: a.vs.Offloaded(vnic),
	}
	if ep, ok := a.vs.FEEpoch(vnic); ok {
		rep.HasFE = true
		rep.FEEpoch = ep
	}
	return rep
}

// apply executes one operation against the vSwitch.
func (a *Agent) apply(req *Request) error {
	switch req.Op {
	case OpInstallFE:
		return a.vs.InstallFEEpoch(req.Rules, req.BE, req.Decap, req.Epoch)
	case OpRemoveFE:
		a.vs.RemoveFEEpoch(req.VNIC, req.Epoch)
		return nil
	case OpSetFEs:
		return a.vs.SetFEsEpoch(req.VNIC, req.FEs, req.Epoch)
	case OpOffloadStart:
		return a.vs.OffloadStartEpoch(req.VNIC, req.FEs, req.Epoch)
	case OpOffloadAbort:
		return a.vs.OffloadAbort(req.VNIC)
	case OpOffloadFinalize:
		return a.vs.OffloadFinalize(req.VNIC)
	case OpFallbackStart:
		return a.vs.FallbackStart(req.VNIC, req.Rules)
	case OpFallbackFinalize:
		return a.vs.FallbackFinalize(req.VNIC)
	default:
		return fmt.Errorf("ctrlrpc: agent cannot apply op %v", req.Op)
	}
}

// ack sends the reply packet. Like the vSwitch's probe pongs, it is a
// fresh pooled packet accounted by the fabric ledger.
func (a *Agent) ack(to packet.IPv4, id uint64) {
	p := packet.Get(id, 0, 0, packet.FiveTuple{
		SrcIP: a.vs.Addr(), DstIP: to,
		SrcPort: vswitch.CtrlPort, DstPort: ctrlClientPort,
		Proto: packet.ProtoUDP,
	}, packet.DirTX, 0, 16)
	p.SentAt = int64(a.loop.Now())
	p.Encap(a.vs.Addr(), to)
	a.fab.Send(a.vs.Addr(), to, p)
}

// GatewayAgent is the gateway's management endpoint: OpGatewaySet
// requests update the global routing table, with the same dedup and
// epoch discipline as vSwitch agents. The gateway itself never
// crashes in this model, but the fabric between controller and
// gateway can still lose or delay the request and the ack.
type GatewayAgent struct {
	loop    *sim.Loop
	fab     *fabric.Fabric
	t       *Transport
	gw      *fabric.Gateway
	addr    packet.IPv4
	seen    map[uint64]*pendingApply
	applied map[appKey]uint64

	Stats AgentStats
}

// NewGatewayAgent registers a gateway agent at addr on the fabric.
func NewGatewayAgent(loop *sim.Loop, fab *fabric.Fabric, t *Transport, gw *fabric.Gateway, addr packet.IPv4) *GatewayAgent {
	ga := &GatewayAgent{loop: loop, fab: fab, t: t, gw: gw, addr: addr,
		seen: make(map[uint64]*pendingApply), applied: make(map[appKey]uint64)}
	fab.Register(addr, -1, ga.handle)
	return ga
}

// Addr returns the gateway agent's fabric address.
func (ga *GatewayAgent) Addr() packet.IPv4 { return ga.addr }

func (ga *GatewayAgent) handle(p *packet.Packet) {
	id := p.ID
	p.Release() // a fabric handler: the agent is the request's terminal consumer
	if st, ok := ga.seen[id]; ok {
		ga.Stats.Duplicates++
		if st.done {
			ga.ack(st.from, id)
		}
		return
	}
	req, from, ok := ga.t.Body(id)
	if !ok {
		return
	}
	ga.Stats.Handled++
	st := &pendingApply{from: from}
	ga.seen[id] = st
	ga.loop.Schedule(req.ApplyDelay, func() {
		st.done = true
		ga.Stats.Applied++
		var err error
		switch req.Op {
		case OpGatewaySet:
			err = ga.gw.SetEpoch(req.VNIC, req.Epoch, req.FEs...)
			if err == nil {
				noteEffect(ga.applied, &ga.Stats, req.Op, req.VNIC, req.Epoch, id)
			}
		case OpQueryGateway:
			rep := &Reply{Epoch: ga.gw.Epoch(req.VNIC)}
			if addrs, ok := ga.gw.Lookup(req.VNIC); ok {
				rep.Resident = true
				rep.Addrs = append([]packet.IPv4(nil), addrs...)
			}
			ga.t.SetReply(id, rep)
		default:
			err = fmt.Errorf("ctrlrpc: gateway cannot apply op %v", req.Op)
		}
		ga.t.Verdict(id, err)
		ga.ack(from, id)
	})
}

func (ga *GatewayAgent) ack(to packet.IPv4, id uint64) {
	p := packet.Get(id, 0, 0, packet.FiveTuple{
		SrcIP: ga.addr, DstIP: to,
		SrcPort: vswitch.CtrlPort, DstPort: ctrlClientPort,
		Proto: packet.ProtoUDP,
	}, packet.DirTX, 0, 16)
	p.SentAt = int64(ga.loop.Now())
	p.Encap(ga.addr, to)
	ga.fab.Send(ga.addr, to, p)
}
