package vswitch

// Per-core run-to-completion workers (DESIGN.md §15): the burst
// pipelines split each batch across cfg.Workers logical workers. An
// RSS-style hash over the normalized session key pins every flow to
// exactly one worker for its lifetime (packet.RSSWorker), so per-flow
// session state is worker-owned and same-flow packets keep their
// arrival order. Each worker then runs the full plan stage — lookup,
// state touch, admission — over its partition, run-to-completion,
// before the merged act list goes to the CPU model.
//
// Determinism is the contract, not concurrency: the sim loop is
// single-threaded, so workers run back to back (w = 0..N-1) and the
// speedup comes from the partition's cache shape, not parallelism.
// The planned acts merge back in arrival order (a slot array indexed
// by arrival position), so the CPU submission — and everything
// downstream: completion waves, fabric bursts, digests — is
// byte-identical at every worker count. The worker determinism suite
// pins this for W ∈ {1,2,4,8}.
//
// Packets whose plan stage has cross-flow side effects (slow-path rule
// walks that allocate memory, QoS buckets, mirrors, sampled traces)
// are not safe to plan out of arrival order. burstEligible detects
// them per packet; ineligible packets — and, transitively, every later
// packet of the same flow — defer to a sequential phase B that runs in
// arrival order, exactly like the legacy pipeline. On the established
// fast path that the datapath is sized for, phase B is empty.

import (
	"nezha/internal/flowcache"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/prof"
)

// The four batched pipelines, for plan dispatch.
const (
	pipeLocalTX uint8 = iota
	pipeLocalRX
	pipeBeTX
	pipeFeRX
)

// workerScratch is the per-burst working set of the worker pipeline.
// One set per vSwitch suffices: the sim loop is single-threaded and
// every buffer is fully consumed within one runBurstPipeline call.
type workerScratch struct {
	keys     []packet.SessionKey
	hashes   []uint64
	owner    []uint8
	deferred []bool
	slots    []burstAct
	defHash  []uint64
	seq      []int32 // arrival indices counting-sorted by owner
	cnt      []int32 // counting-sort buckets, sized to the worker count
}

func (sc *workerScratch) ensure(n int) {
	if cap(sc.keys) < n {
		sc.keys = make([]packet.SessionKey, n)
		sc.hashes = make([]uint64, n)
		sc.owner = make([]uint8, n)
		sc.deferred = make([]bool, n)
		sc.slots = make([]burstAct, n)
		sc.seq = make([]int32, n)
	}
	sc.keys = sc.keys[:n]
	sc.hashes = sc.hashes[:n]
	sc.owner = sc.owner[:n]
	sc.deferred = sc.deferred[:n]
	sc.slots = sc.slots[:n]
	sc.seq = sc.seq[:n]
}

// getActs takes a pooled act buffer. runPlan returns it to the pool
// when the burst's last CPU completion fires — the buffer is retained
// by the completion closure, so multiple bursts can be in flight with
// their own buffers.
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

// seqOnly reports burst-level conditions that force the whole run
// through the sequential plan order regardless of eligibility:
// variable-size state makes every state touch a memory-budget event
// (allocation order is observable), and a VM-level RX limiter makes
// every RX packet an admission event.
func (vs *VSwitch) seqOnly(pipe uint8, vn *vnicState) bool {
	if vs.cfg.VariableState {
		return true
	}
	return pipe == pipeLocalRX && vn.limiter != nil
}

// burstEligible reports whether one packet's plan stage is free of
// cross-flow side effects, making it safe to plan in worker order
// instead of arrival order. The checks mirror what each plan function
// would do: an established fast-path hit whose pre-actions are current
// and whose admission cannot consume shared budget. On success it
// returns the probed entry, which the plan stage reuses instead of
// probing the table a second time; nil means ineligible.
func (vs *VSwitch) burstEligible(pipe uint8, vn *vnicState, fe *feInstance, p *packet.Packet, key packet.SessionKey, hash uint64) *flowcache.Entry {
	// Sampled packets record ordered trace hops at plan time.
	if vs.ob != nil && vs.ob.tr.Sampled(p.ID) {
		return nil
	}
	e := vs.sessions.PeekH(key, hash)
	if e == nil {
		return nil
	}
	switch pipe {
	case pipeLocalTX:
		if !e.HasPre || e.PreVersion != vn.rules.Version() || !e.HasState {
			return nil
		}
		if e.Pre.TX.RateBps != 0 || e.Pre.TX.Mirror {
			return nil
		}
	case pipeLocalRX:
		if !e.HasPre || e.PreVersion != vn.rules.Version() || !e.HasState {
			return nil
		}
		if e.Pre.RX.RateBps != 0 || e.Pre.RX.Mirror {
			return nil
		}
	case pipeBeTX:
		// The BE plan creates missing entries and state (memory-budget
		// order matters); with both present it only fast-path touches.
		if !e.HasState {
			return nil
		}
	default: // pipeFeRX: stateless — current pre-actions suffice.
		if !e.HasPre || e.PreVersion != fe.rules.Version() {
			return nil
		}
	}
	return e
}

// planPacket runs one packet's plan stage, writing at most one act
// into *a. Returns false when the packet was consumed at plan time
// (dropped or rate-limited). hint, when non-nil, is the entry the
// eligibility probe already found for this packet — the plan stage
// reuses it (with LookupH's exact hit side effects) instead of
// probing the session table again.
func (vs *VSwitch) planPacket(pipe uint8, vn *vnicState, fe *feInstance, vp *prof.VNICProf, p *packet.Packet, key packet.SessionKey, hash uint64, hint *flowcache.Entry, a *burstAct) bool {
	switch pipe {
	case pipeLocalTX:
		return vs.planLocalTX(vn, vp, p, key, hash, hint, a)
	case pipeLocalRX:
		return vs.planLocalRX(vn, vp, p, key, hash, hint, a)
	case pipeBeTX:
		return vs.planBeTX(vn, vp, p, key, hash, hint, a)
	default:
		return vs.planFeRX(fe, vp, p, key, hash, hint, a)
	}
}

// runBurstPipeline plans a same-pipeline run of packets and submits
// the merged acts. With Workers <= 1 (or a run the worker split cannot
// keep deterministic) it plans sequentially in arrival order — the
// legacy burst pipeline, bit for bit.
func (vs *VSwitch) runBurstPipeline(pipe uint8, vn *vnicState, fe *feInstance, vp *prof.VNICProf, ps []*packet.Packet, remote bool) {
	n := len(ps)
	w := vs.cfg.Workers
	acts := vs.getActs(n)
	if w <= 1 || n < 2 || vs.seqOnly(pipe, vn) {
		var a burstAct
		for _, p := range ps {
			key, hash, _ := p.SessionKeyHashed()
			if vs.planPacket(pipe, vn, fe, vp, p, key, hash, nil, &a) {
				a.worker = 0
				acts = append(acts, a)
			}
		}
		vs.runPlan(acts, remote)
		return
	}

	sc := &vs.wk
	sc.ensure(n)
	for i, p := range ps {
		sc.keys[i], sc.hashes[i], _ = p.SessionKeyHashed()
		sc.owner[i] = uint8(packet.RSSWorker(sc.hashes[i], w))
		sc.deferred[i] = false
		sc.slots[i].kind = actNone
	}

	// Stable counting sort of arrival indices by owner: one pass builds
	// every worker's partition in arrival order, so phase A visits each
	// packet exactly once instead of scanning the run per worker.
	if cap(sc.cnt) < w {
		sc.cnt = make([]int32, w)
	}
	cnt := sc.cnt[:w]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, o := range sc.owner {
		cnt[o]++
	}
	sum := int32(0)
	for wi := range cnt {
		c := cnt[wi]
		cnt[wi] = sum
		sum += c
	}
	for i, o := range sc.owner {
		sc.seq[cnt[o]] = int32(i)
		cnt[o]++
	}

	// Phase A: workers in index order, each planning its partition in
	// arrival order. A packet that is not eligible defers — and poisons
	// its hash, so every later same-flow packet defers behind it (equal
	// hashes always share a worker, so a spurious collision match only
	// defers a packet that was free to defer anyway).
	defHash := sc.defHash[:0]
	for _, idx := range sc.seq {
		i := int(idx)
		p := ps[i]
		hint := vs.burstEligible(pipe, vn, fe, p, sc.keys[i], sc.hashes[i])
		if hint == nil || hashSeen(defHash, sc.hashes[i]) {
			defHash = append(defHash, sc.hashes[i])
			sc.deferred[i] = true
			if vs.workers != nil {
				vs.workers.ChargeDeferred(int(sc.owner[i]))
			}
			continue
		}
		if vs.planPacket(pipe, vn, fe, vp, p, sc.keys[i], sc.hashes[i], hint, &sc.slots[i]) {
			sc.slots[i].worker = int32(sc.owner[i])
		} else {
			sc.slots[i].kind = actNone
		}
	}

	// Phase B: deferred packets plan sequentially in arrival order,
	// exactly as the legacy pipeline would have. CPU accounting still
	// charges the owning worker.
	if len(defHash) > 0 {
		for i, p := range ps {
			if !sc.deferred[i] {
				continue
			}
			if vs.planPacket(pipe, vn, fe, vp, p, sc.keys[i], sc.hashes[i], nil, &sc.slots[i]) {
				sc.slots[i].worker = int32(sc.owner[i])
			} else {
				sc.slots[i].kind = actNone
			}
		}
	}
	sc.defHash = defHash[:0]

	// Merge: arrival order, so the CPU submission is identical to the
	// sequential plan and every downstream digest matches.
	for i := range sc.slots {
		if sc.slots[i].kind != actNone {
			acts = append(acts, sc.slots[i])
		}
	}
	vs.runPlan(acts, remote)
}

// hashSeen reports whether h is in the deferred-hash list. Linear
// scan: deferral is the exception, the list is nearly always empty.
func hashSeen(hs []uint64, h uint64) bool {
	for _, x := range hs {
		if x == h {
			return true
		}
	}
	return false
}

// --- Per-packet plan stages -------------------------------------------
//
// These are the loop bodies of the four legacy burst pipelines,
// extracted so the sequential and worker paths share one copy. Each
// mirrors its scalar counterpart in datapath.go stage for stage.

func (vs *VSwitch) planLocalTX(vn *vnicState, vp *prof.VNICProf, p *packet.Packet, key packet.SessionKey, hash uint64, hint *flowcache.Entry, a *burstAct) bool {
	if vs.ob != nil {
		vs.hop(p, "local-tx")
	}
	profCharge(vp, prof.DirTX, prof.StagePerByte, perByteCycles(p))
	profCharge(vp, prof.DirTX, prof.StageFastpath, nic.FastPathCycles+nic.ProcessPktCycles)
	cycles := perByteCycles(p) + nic.FastPathCycles + nic.ProcessPktCycles
	e, pre, dropped := vs.lookupOrSlowPathH(vn.rules, p, key, hash, hint, &cycles, true, vp, prof.DirTX)
	vn.cycles += cycles
	if dropped {
		return false
	}
	if e.State.Policy != pre.TX.Stats {
		st := e.State
		st.Policy = pre.TX.Stats
		_ = vs.sessions.SetState(e, st)
	}
	_ = vs.sessions.TouchState(e, packet.DirTX, p.Flags, p.PayloadLen, int64(vs.loop.Now()))
	st := e.State
	if !FinalAllow(pre, st, packet.DirTX) {
		*a = burstAct{p: p, cycles: cycles, kind: actDropACL}
		return true
	}
	if !vs.qosAdmit(vn.id, pre.TX, p) {
		return false
	}
	vs.maybeMirror(p, pre, packet.DirTX)
	peer, nextHop := pre.TX.PeerVNIC, pre.TX.NextHop
	vs.applyNAT(vn.rules, pre.TX, p, &peer, &nextHop, &cycles, vp)
	if st.DecapIP != 0 {
		dp, dnh, c := vn.rules.ResolvePeer(st.DecapIP)
		cycles += c
		profCharge(vp, prof.DirTX, prof.StageSlowpath, c)
		if dp != 0 {
			peer, nextHop = dp, dnh
		}
	}
	return vs.planForwardAct(p, peer, nextHop, cycles, vp, a)
}

func (vs *VSwitch) planLocalRX(vn *vnicState, vp *prof.VNICProf, p *packet.Packet, key packet.SessionKey, hash uint64, hint *flowcache.Entry, a *burstAct) bool {
	if !vs.rateAdmit(vn, p) {
		return false
	}
	if vs.ob != nil {
		vs.hop(p, "local-rx")
	}
	profCharge(vp, prof.DirRX, prof.StagePerByte, perByteCycles(p))
	profCharge(vp, prof.DirRX, prof.StageFastpath, nic.FastPathCycles+nic.ProcessPktCycles)
	cycles := perByteCycles(p) + nic.FastPathCycles + nic.ProcessPktCycles
	e, pre, dropped := vs.lookupOrSlowPathH(vn.rules, p, key, hash, hint, &cycles, true, vp, prof.DirRX)
	vn.cycles += cycles
	if dropped {
		return false
	}
	if e.State.Policy != pre.RX.Stats {
		st := e.State
		st.Policy = pre.RX.Stats
		_ = vs.sessions.SetState(e, st)
	}
	if vn.decap && !e.State.Init && p.OuterSrc != 0 {
		st := e.State
		st.DecapIP = p.OuterSrc
		_ = vs.sessions.SetState(e, st)
	}
	_ = vs.sessions.TouchState(e, packet.DirRX, p.Flags, p.PayloadLen, int64(vs.loop.Now()))
	st := e.State
	if !FinalAllow(pre, st, packet.DirRX) {
		*a = burstAct{p: p, cycles: cycles, kind: actDropACL}
		return true
	}
	if !vs.qosAdmit(vn.id, pre.RX, p) {
		return false
	}
	vs.maybeMirror(p, pre, packet.DirRX)
	*a = burstAct{p: p, cycles: cycles, kind: actDeliver, vnic: p.VNIC}
	return true
}

func (vs *VSwitch) planBeTX(vn *vnicState, vp *prof.VNICProf, p *packet.Packet, key packet.SessionKey, hash uint64, hint *flowcache.Entry, a *burstAct) bool {
	now := int64(vs.loop.Now())
	profCharge(vp, prof.DirTX, prof.StagePerByte, perByteCycles(p))
	profCharge(vp, prof.DirTX, prof.StageFastpath, nic.FastPathCycles)
	profCharge(vp, prof.DirTX, prof.StageStateCarry, nic.StateCarryCycles)
	profCharge(vp, prof.DirTX, prof.StageEncap, nic.EncapCycles)
	cycles := perByteCycles(p) + nic.FastPathCycles + nic.StateCarryCycles + nic.EncapCycles
	vn.cycles += cycles
	e := hint
	if e != nil {
		// GetOrCreateH's hit path only refreshes LastSeen; replicate it
		// on the entry the eligibility probe already found.
		e.LastSeen = now
	} else {
		var err error
		e, err = vs.sessions.GetOrCreateH(key, hash, vn.id, now)
		if err != nil {
			vs.drop(p, DropNoMemory)
			return false
		}
	}
	_ = vs.sessions.TouchState(e, packet.DirTX, p.Flags, p.PayloadLen, now)
	fe := vn.fes[p.TupleHash()%uint64(len(vn.fes))]
	if vn.pinned != nil {
		if dedicated, ok := vn.pinned[key]; ok {
			fe = dedicated
		}
	}
	vs.attachStateView(p, vn.id, packet.DirTX, e.State)
	if vs.ob != nil {
		vs.hopEncap(p, "be-tx", p.Nezha.WireSize())
	}
	*a = burstAct{p: p, cycles: cycles, kind: actRelay, to: fe}
	return true
}

func (vs *VSwitch) planFeRX(fe *feInstance, vp *prof.VNICProf, p *packet.Packet, key packet.SessionKey, hash uint64, hint *flowcache.Entry, a *burstAct) bool {
	profCharge(vp, prof.DirRX, prof.StagePerByte, perByteCycles(p))
	profCharge(vp, prof.DirRX, prof.StageFastpath, nic.FastPathCycles)
	profCharge(vp, prof.DirRX, prof.StageStateCarry, nic.StateCarryCycles)
	profCharge(vp, prof.DirRX, prof.StageEncap, nic.EncapCycles)
	cycles := perByteCycles(p) + nic.FastPathCycles + nic.StateCarryCycles + nic.EncapCycles
	_, pre, _ := vs.lookupOrSlowPathH(fe.rules, p, key, hash, hint, &cycles, false, vp, prof.DirRX)
	vs.attachPreView(p, fe.vnic, pre, p.OuterSrc)
	if vs.ob != nil {
		vs.hopEncap(p, "fe-rx", p.Nezha.WireSize())
	}
	*a = burstAct{p: p, cycles: cycles, kind: actRelay, to: fe.beAddr}
	return true
}

// planForwardAct resolves the peer's location now and records the
// forward (or the no-route drop) for execution at CPU completion — the
// forwarding tail of the burst plans and of scalar forwardOverlay. It
// always fills *a.
func (vs *VSwitch) planForwardAct(p *packet.Packet, peer uint32, staticHop packet.IPv4, cycles uint64, vp *prof.VNICProf, a *burstAct) bool {
	if peer == 0 && staticHop == 0 {
		*a = burstAct{p: p, cycles: cycles, kind: actDropNoRoute}
		return true
	}
	addr, ok := vs.learner.Pick(peer, p.TupleHash())
	if !ok {
		addr = staticHop
	}
	if addr == 0 {
		*a = burstAct{p: p, cycles: cycles, kind: actDropNoRoute}
		return true
	}
	if vs.ob != nil {
		vs.hopPick(p, addr)
	}
	cycles += nic.EncapCycles
	profCharge(vp, prof.DirTX, prof.StageEncap, nic.EncapCycles)
	*a = burstAct{p: p, cycles: cycles, kind: actForward, to: addr, peer: peer}
	return true
}
