package vswitch

import (
	"nezha/internal/flowcache"
	"nezha/internal/nic"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/state"
	"nezha/internal/tables"
)

func (vs *VSwitch) handleProbe(p *packet.Packet) {
	vs.Stats.ProbesSeen++
	vs.Stats.Absorbed++
	pong := packet.GetStamped(p.SentAt, p.ID, 0, 0, p.Tuple.Reverse(), packet.DirTX, 0, 0)
	to := p.OuterSrc
	p.Release()
	pong.Encap(vs.cfg.Addr, to)
	vs.fab.Send(vs.cfg.Addr, to, pong)
}

func perByteCycles(p *packet.Packet) uint64 {
	return uint64(p.SizeBytes) * nic.PerByteCycles
}

// lookupOrSlowPath resolves the session entry and pre-actions for a
// packet against a rule set, running the slow path on a miss or when
// the cached pre-actions are stale. key and hash are the packet's
// session key and its hash, computed once per packet by the caller.
//
// needEntry distinguishes the two users: a monolithic/BE caller must
// have an entry to hold state, so memory exhaustion drops the packet
// (dropped=true, the #concurrent-flows overload); an FE caller
// (needEntry=false) is stateless and simply processes the packet from
// the slow-path result without caching when memory is tight.
func (vs *VSwitch) lookupOrSlowPath(rules *tables.RuleSet, p *packet.Packet, key packet.SessionKey, hash uint64, c *cost, needEntry bool) (e *flowcache.Entry, pre tables.PreActions, dropped bool) {
	now := int64(vs.loop.Now())
	e = vs.sessions.LookupH(key, hash, now)
	if e != nil && e.HasPre() && vs.sessions.PreVersion(e) == rules.Version() {
		vs.Stats.FastPath++
		p.Path = packet.PathFast
		if vs.ob != nil {
			vs.hop(p, obs.Hop{Stage: obs.StageLookup, Flags: obs.TableHit})
		}
		return e, *vs.sessions.Pre(e), false
	}
	vs.Stats.SlowPath++
	p.Path = packet.PathSlow
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageLookup})
	}
	txTuple := p.Tuple
	if p.Dir == packet.DirRX {
		txTuple = txTuple.Reverse()
	}
	res := rules.Lookup(txTuple)
	c.add(prof.StageSlowpath, res.Cycles)
	c.add(prof.StageSessionInstall, nic.SessionInstallCycles)
	if e == nil {
		// Nothing between the LookupH miss above and here touches the
		// session table, so the insert takes the slot that miss ended on
		// without probing again.
		var err error
		e, err = vs.sessions.GetOrCreateH(key, hash, p.VNIC, now)
		if err != nil {
			if needEntry {
				vs.drop(p, DropNoMemory)
				return nil, res.Pre, true
			}
			return nil, res.Pre, false
		}
	}
	if res.Pre.TX.FlowLog || res.Pre.RX.FlowLog {
		// Flow logging records each new flow at rule-lookup time.
		vs.Stats.FlowLogged++
	}
	if err := vs.sessions.SetPre(e, res.Pre, rules.Version()); err != nil {
		if needEntry {
			vs.drop(p, DropNoMemory)
			return nil, res.Pre, true
		}
		// FE cached flow that does not fit: process uncached.
		return e, res.Pre, false
	}
	return e, res.Pre, false
}

// maybeMirror clones mirrored traffic toward the configured sink.
func (vs *VSwitch) maybeMirror(p *packet.Packet, pre tables.PreActions, dir packet.Direction) {
	if !pre.ForDir(dir).Mirror {
		return
	}
	vs.Stats.Mirrored++
	if vs.mirrorSink == 0 {
		return
	}
	clone := p.Clone()
	clone.StripNezha()
	clone.Encap(vs.cfg.Addr, vs.mirrorSink)
	vs.fab.Send(vs.cfg.Addr, vs.mirrorSink, clone)
}

// applyNAT rewrites the TX destination per the pre-action and
// re-resolves the peer for the translated address.
func (vs *VSwitch) applyNAT(rules *tables.RuleSet, preTX tables.PreAction, p *packet.Packet, peer *uint32, nextHop *packet.IPv4, c *cost) {
	if !preTX.NAT {
		return
	}
	vs.Stats.NATRewrites++
	p.Tuple.DstIP = preTX.NATIP
	if preTX.NATPort != 0 {
		p.Tuple.DstPort = preTX.NATPort
	}
	p.InvalidateHashes()
	reroute(rules, preTX.NATIP, peer, nextHop, c)
}

// reroute resolves the peer for dst, charging the route lookup as
// slow-path work, and keeps the current peer when dst resolves to none.
func reroute(rules *tables.RuleSet, dst packet.IPv4, peer *uint32, nextHop *packet.IPv4, c *cost) {
	dp, dnh, n := rules.ResolvePeer(dst)
	c.add(prof.StageSlowpath, n)
	if dp != 0 {
		*peer, *nextHop = dp, dnh
	}
}

// --- Per-role stage bodies --------------------------------------------
//
// Each role's pre-CPU work (lookup, state, admission) is one plan
// function writing at most one act into *a; it returns false when the
// packet was consumed at plan time (dropped or rate-limited). key and
// hash are the packet's session key and its hash; c prices the packet
// (prof.go), and the act carries c's cycles. runBurstPipeline
// (burst.go) is the only caller: it plans a run in arrival order and
// hands the acts to runPlan.

// --- Monolithic datapath ---------------------------------------------

func (vs *VSwitch) planLocalTX(vn *vnicState, c *cost, p *packet.Packet, key packet.SessionKey, hash uint64, a *burstAct) bool {
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageLocalTx})
	}
	c.add(prof.StagePerByte, perByteCycles(p))
	c.add(prof.StageFastpath, nic.FastPathCycles+nic.ProcessPktCycles)
	e, pre, dropped := vs.lookupOrSlowPath(vn.rules, p, key, hash, c, true)
	if dropped {
		return false
	}
	// Install the rule-table-involved state (stats policy) locally —
	// trivial in the monolithic case, the whole point of notify
	// packets in the Nezha case.
	if vs.sessions.State(e).Policy != pre.TX.Stats {
		st := *vs.sessions.State(e)
		st.Policy = pre.TX.Stats
		_ = vs.sessions.SetState(e, st)
	}
	_ = vs.sessions.TouchState(e, packet.DirTX, p.Flags, p.PayloadLen, int64(vs.loop.Now()))
	st := *vs.sessions.State(e)
	if !FinalAllow(pre, st, packet.DirTX) {
		*a = burstAct{p: p, cycles: c.cycles, kind: actDropACL}
		return true
	}
	if !vs.qosAdmit(vn.id, pre.TX, p) {
		return false
	}
	vs.maybeMirror(p, pre, packet.DirTX)
	peer, nextHop := pre.TX.PeerVNIC, pre.TX.NextHop
	vs.applyNAT(vn.rules, pre.TX, p, &peer, &nextHop, c)
	if st.DecapIP != 0 {
		// Stateful decap: route the response to the recorded LB
		// address, not the packet's own destination (§5.2).
		reroute(vn.rules, st.DecapIP, &peer, &nextHop, c)
	}
	return vs.planForwardAct(p, peer, nextHop, c, a)
}

// planForwardAct resolves the peer's location now and records the
// forward (or the no-route drop) for execution at CPU completion — the
// forwarding tail of the monolithic and FE TX stages. It always fills
// *a.
func (vs *VSwitch) planForwardAct(p *packet.Packet, peer uint32, staticHop packet.IPv4, c *cost, a *burstAct) bool {
	if peer == 0 && staticHop == 0 {
		*a = burstAct{p: p, cycles: c.cycles, kind: actDropNoRoute}
		return true
	}
	addr, ok := vs.learner.Pick(peer, p.TupleHash())
	if !ok {
		addr = staticHop
	}
	if addr == 0 {
		*a = burstAct{p: p, cycles: c.cycles, kind: actDropNoRoute}
		return true
	}
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageGWPick, Flags: obs.HasTo, To: addr})
	}
	c.add(prof.StageEncap, nic.EncapCycles)
	*a = burstAct{p: p, cycles: c.cycles, kind: actForward, to: addr, peer: peer}
	return true
}

func (vs *VSwitch) planLocalRX(vn *vnicState, c *cost, p *packet.Packet, key packet.SessionKey, hash uint64, a *burstAct) bool {
	if !vs.rateAdmit(vn, p) {
		return false
	}
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageLocalRx})
	}
	c.add(prof.StagePerByte, perByteCycles(p))
	c.add(prof.StageFastpath, nic.FastPathCycles+nic.ProcessPktCycles)
	e, pre, dropped := vs.lookupOrSlowPath(vn.rules, p, key, hash, c, true)
	if dropped {
		return false
	}
	if vs.sessions.State(e).Policy != pre.RX.Stats {
		st := *vs.sessions.State(e)
		st.Policy = pre.RX.Stats
		_ = vs.sessions.SetState(e, st)
	}
	if vn.decap && !vs.sessions.State(e).Init && p.OuterSrc != 0 {
		st := *vs.sessions.State(e)
		st.DecapIP = p.OuterSrc
		_ = vs.sessions.SetState(e, st)
	}
	_ = vs.sessions.TouchState(e, packet.DirRX, p.Flags, p.PayloadLen, int64(vs.loop.Now()))
	st := *vs.sessions.State(e)
	if !FinalAllow(pre, st, packet.DirRX) {
		*a = burstAct{p: p, cycles: c.cycles, kind: actDropACL}
		return true
	}
	if !vs.qosAdmit(vn.id, pre.RX, p) {
		return false
	}
	vs.maybeMirror(p, pre, packet.DirRX)
	*a = burstAct{p: p, cycles: c.cycles, kind: actDeliver, vnic: p.VNIC}
	return true
}

func (vs *VSwitch) deliverToVM(vnic uint32, p *packet.Packet) {
	vs.Stats.Delivered++
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageDeliver})
	}
	lat := vs.loop.Now() - sim.Time(p.SentAt)
	if vs.slo != nil && p.SentAt > 0 {
		// The session-key hash is memo-served — the datapath already
		// computed it for the lookup, so the ledger adds no hashing.
		key, hash, _ := p.SessionKeyHashed()
		vs.slo.RecordDeliver(int64(vs.loop.Now()), vnic, p.Path, p.Dir, int64(lat), hash, key, p.SizeBytes)
	}
	if vs.deliverObs != nil {
		vs.deliverObs(vnic, p, lat)
	}
	if vs.deliver != nil {
		vs.deliver(vnic, p, lat)
	}
}

// --- BE datapath ------------------------------------------------------

// planBeTX relays a TX packet to an FE, carrying the locally held
// state in the packet header (red flow of Fig 5).
func (vs *VSwitch) planBeTX(vn *vnicState, c *cost, p *packet.Packet, key packet.SessionKey, hash uint64, a *burstAct) bool {
	now := int64(vs.loop.Now())
	c.add(prof.StagePerByte, perByteCycles(p))
	c.add(prof.StageFastpath, nic.FastPathCycles)
	c.add(prof.StageStateCarry, nic.StateCarryCycles)
	c.add(prof.StageEncap, nic.EncapCycles)
	e, err := vs.sessions.GetOrCreateH(key, hash, vn.id, now)
	if err != nil {
		vs.drop(p, DropNoMemory)
		return false
	}
	// Initialize/update state locally: first packet direction, FSM.
	// If the FE later denies the flow, this state ages out quickly
	// via the short SYN aging (§5.1, §7.3).
	_ = vs.sessions.TouchState(e, packet.DirTX, p.Flags, p.PayloadLen, now)
	fe := vn.fes[p.TupleHash()%uint64(len(vn.fes))]
	if vn.pinned != nil {
		if dedicated, ok := vn.pinned[key]; ok {
			fe = dedicated
		}
	}
	vs.attachStateView(p, vn.id, packet.DirTX, *vs.sessions.State(e))
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageBETx, EncapBytes: uint32(p.Nezha.WireSize())})
	}
	*a = burstAct{p: p, cycles: c.cycles, kind: actRelay, to: fe}
	return true
}

// planBeRX finishes processing an RX packet the FE forwarded with
// pre-actions in the header (blue flow of Fig 5).
func (vs *VSwitch) planBeRX(vn *vnicState, c *cost, p *packet.Packet, key packet.SessionKey, hash uint64, a *burstAct) bool {
	if !vs.rateAdmit(vn, p) {
		return false
	}
	// The FE already ran the lookup for this packet; its terminal
	// latency is accounted to the offloaded path, overriding the
	// fast/slow tag the FE's own lookup left behind.
	p.Path = packet.PathOffloaded
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageBERx})
	}
	now := int64(vs.loop.Now())
	c.add(prof.StagePerByte, perByteCycles(p))
	c.add(prof.StageFastpath, nic.FastPathCycles+nic.ProcessPktCycles)
	c.add(prof.StageStateCarry, nic.StateCarryCycles)
	pre, err := nezhaPre(p.Nezha)
	if err != nil {
		vs.drop(p, DropMalformed)
		return false
	}
	e, cerr := vs.sessions.GetOrCreateH(key, hash, vn.id, now)
	if cerr != nil {
		vs.drop(p, DropNoMemory)
		return false
	}
	// Rule-table-involved state arrives in-band with RX packets
	// (§3.2.2): install the stats policy the FE looked up without
	// verifying the old value.
	if vs.sessions.State(e).Policy != pre.RX.Stats {
		st := *vs.sessions.State(e)
		st.Policy = pre.RX.Stats
		_ = vs.sessions.SetState(e, st)
	}
	// Rule-table-not-involved state: stateful decap needs the
	// original outer source the FE preserved in the header.
	if vn.decap && !vs.sessions.State(e).Init && p.Nezha.OrigOuterSrc != 0 {
		st := *vs.sessions.State(e)
		st.DecapIP = p.Nezha.OrigOuterSrc
		_ = vs.sessions.SetState(e, st)
	}
	_ = vs.sessions.TouchState(e, packet.DirRX, p.Flags, p.PayloadLen, now)
	st := *vs.sessions.State(e)
	if !FinalAllow(pre, st, packet.DirRX) {
		*a = burstAct{p: p, cycles: c.cycles, kind: actDropACL}
		return true
	}
	if !vs.qosAdmit(vn.id, pre.RX, p) {
		return false
	}
	vs.maybeMirror(p, pre, packet.DirRX)
	*a = burstAct{p: p, cycles: c.cycles, kind: actDeliver, vnic: vn.id, strip: true}
	return true
}

// planBeNotify absorbs a designated notify packet updating rule-table-
// involved state (§3.2.2 TX workflow).
func (vs *VSwitch) planBeNotify(vn *vnicState, c *cost, p *packet.Packet, key packet.SessionKey, hash uint64, a *burstAct) bool {
	vs.Stats.NotifyRecv++
	if _, err := nezhaState(p.Nezha); err != nil {
		vs.drop(p, DropMalformed)
		return false
	}
	if _, cerr := vs.sessions.GetOrCreateH(key, hash, vn.id, int64(vs.loop.Now())); cerr != nil {
		vs.drop(p, DropNoMemory)
		return false
	}
	c.add(prof.StageNotify, nic.NotifyCycles)
	*a = burstAct{p: p, cycles: c.cycles, kind: actAbsorbNotify}
	return true
}

// absorbNotify is planBeNotify's completion: the packet is consumed and the
// policy it carries (validated at arrival, and still attached) lands on
// the session if that still exists.
func (vs *VSwitch) absorbNotify(p *packet.Packet) {
	vs.Stats.Absorbed++
	carried, _ := nezhaState(p.Nezha)
	key, _ := p.SessionKey()
	p.Release()
	cur := vs.sessions.Peek(key)
	if cur == nil {
		return
	}
	st := *vs.sessions.State(cur)
	st.Policy = carried.Policy
	_ = vs.sessions.SetState(cur, st)
}

// --- FE datapath ------------------------------------------------------

// planFeTX processes a TX packet at the frontend: cached-flow / rule
// lookup for pre-actions, final action against the carried state,
// then forwarding toward the peer.
func (vs *VSwitch) planFeTX(fe *feInstance, c *cost, p *packet.Packet, key packet.SessionKey, hash uint64, a *burstAct) bool {
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageFETx})
	}
	c.add(prof.StagePerByte, perByteCycles(p))
	c.add(prof.StageFastpath, nic.FastPathCycles+nic.ProcessPktCycles)
	c.add(prof.StageStateCarry, nic.StateCarryCycles)
	carried, err := nezhaState(p.Nezha)
	if err != nil {
		vs.drop(p, DropMalformed)
		return false
	}
	_, pre, _ := vs.lookupOrSlowPath(fe.rules, p, key, hash, c, false)

	// Rule-table-involved state for TX flows: notify the BE when the
	// freshly looked-up policy differs from what the packet carried
	// (§3.2.2 — notify packets are rare because they fire only on
	// this mismatch).
	if pre.TX.Stats != carried.Policy {
		vs.sendNotify(fe, p, pre.TX.Stats)
		c.add(prof.StageNotify, nic.NotifyCycles)
	}

	if !FinalAllow(pre, carried, packet.DirTX) {
		*a = burstAct{p: p, cycles: c.cycles, kind: actDropACL}
		return true
	}
	if !vs.qosAdmit(fe.vnic, pre.TX, p) {
		return false
	}
	vs.maybeMirror(p, pre, packet.DirTX)
	peer, nextHop := pre.TX.PeerVNIC, pre.TX.NextHop
	vs.applyNAT(fe.rules, pre.TX, p, &peer, &nextHop, c)
	if carried.DecapIP != 0 {
		reroute(fe.rules, carried.DecapIP, &peer, &nextHop, c)
	}
	p.StripNezha()
	return vs.planForwardAct(p, peer, nextHop, c, a)
}

// sendNotify emits a designated notify packet to the BE carrying the
// rule-table-derived state.
func (vs *VSwitch) sendNotify(fe *feInstance, orig *packet.Packet, policy tables.StatsPolicy) {
	vs.Stats.NotifySent++
	var st state.State
	st.InitFirst(orig.Nezha.Dir, int64(vs.loop.Now()))
	st.Policy = policy
	n := packet.GetStamped(int64(vs.loop.Now()), orig.ID, orig.VPC, orig.VNIC, orig.Tuple, orig.Dir, 0, 0)
	// A notify carries state exactly as a TX relay does; only the type
	// (which the wire size does not depend on) differs.
	vs.attachStateView(n, fe.vnic, orig.Nezha.Dir, st)
	n.Nezha.Type = packet.NezhaNotify
	n.Encap(vs.cfg.Addr, fe.beAddr)
	vs.fab.Send(vs.cfg.Addr, fe.beAddr, n)
}

// planFeRX processes an RX packet at the frontend: pre-action lookup,
// then forward to the BE with the pre-actions (and the information
// needed for state initialization) in the header.
func (vs *VSwitch) planFeRX(fe *feInstance, c *cost, p *packet.Packet, key packet.SessionKey, hash uint64, a *burstAct) bool {
	c.add(prof.StagePerByte, perByteCycles(p))
	c.add(prof.StageFastpath, nic.FastPathCycles)
	c.add(prof.StageStateCarry, nic.StateCarryCycles)
	c.add(prof.StageEncap, nic.EncapCycles)
	_, pre, _ := vs.lookupOrSlowPath(fe.rules, p, key, hash, c, false)
	// The relay replaces the outer source with the FE's own (§3.2.2) —
	// the original is preserved in the Nezha header.
	vs.attachPreView(p, fe.vnic, pre, p.OuterSrc)
	if vs.ob != nil {
		vs.hop(p, obs.Hop{Stage: obs.StageFERx, EncapBytes: uint32(p.Nezha.WireSize())})
	}
	*a = burstAct{p: p, cycles: c.cycles, kind: actRelay, to: fe.beAddr}
	return true
}
