package controller

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"nezha/internal/ctrlrpc"
	"nezha/internal/fabric"
	"nezha/internal/journal"
	"nezha/internal/packet"
	"nezha/internal/policy"
	"nezha/internal/sim"
)

// evKind names what an event reports. The groups: the periodic loops,
// monitor declarations, recovery's journal records, then the kinds
// addressed to one vNIC — operator and policy requests (step's error
// answers them), timers, RPC acks (err is the outcome) and recovery's
// query answers. Comments name the fields a kind uses besides vnic.
type evKind uint8

const (
	evNone evKind = iota
	evTick        // samples
	evRepair
	evFallbackCheck
	evNodeDown  // a
	evNodeUp    // a
	evLinkDown  // a: the BE, b: the FE it cannot reach
	evRecord    // rec
	evReplayed  // samples: cycle counters to re-baseline on
	evReconcile // flag: skip reconciliation (the negative control)
	evForceOffload
	evOffloadTo // addrs: the targets
	evForceFallback
	evScaleOut      // n
	evScaleIn       // n
	evDeadline      // epoch: the prepare phase's deadline
	evFinalize      // epoch: the offload's final stage
	evRetire        // addrs: a fallen-back pool's FEs
	evGrace         // a, epoch: a graceful removal's learning interval
	evInstallAck    // a, epoch: one prepare target
	evCommitAck     // epoch: a commit's BE leg
	evFlipAck       // epoch: a commit's gateway leg
	evPushAck       // epoch; a, flag: the FE the push drops, gracefully
	evPushBEAck     // epoch
	evRemoveAck     // a, epoch
	evAbortAck      // epoch, addrs: the stale FEs the abort covers
	evGatewayAnswer // rep, err
	evHomeAnswer    // rep, err; flag: a fallback's retire holds the vNIC
)

// event is one input to step. now is stamped by the driver.
type event struct {
	kind    evKind
	now     sim.Time
	vnic    uint32
	a, b    packet.IPv4
	epoch   uint64
	n       int
	flag    bool
	addrs   []packet.IPv4
	samples []sample
	rec     *journal.Record
	rep     *ctrlrpc.Reply
	err     error
}

// sample is one node's meter reading for a tick.
type sample struct {
	addr          packet.IPv4
	cpu, mem      float64
	local, remote uint64
}

// step applies one event to the controller's state and returns the
// effects it asks of the world, in issue order, and a request's error.
// It reads nothing but that state, the event and the vSwitch facts.
func (c *Controller) step(ev event) ([]effect, error) {
	c.now = ev.now
	v := c.vnics[ev.vnic]
	if ev.kind >= evForceOffload && v == nil {
		return c.fx, fmt.Errorf("controller: unknown vNIC %d", ev.vnic)
	}
	var err error
	switch ev.kind {
	case evTick:
		c.tick(ev.samples)
	case evRepair:
		c.repairTick()
	case evFallbackCheck:
		c.checkFallbacks()
	case evNodeDown:
		c.nodeDown(ev.a)
	case evNodeUp:
		c.nodeUp(ev.a)
	case evLinkDown:
		c.linkDown(ev.a, ev.b)
	case evRecord:
		c.replay(ev.rec)
	case evReplayed:
		c.replayed(ev.samples)
	case evReconcile:
		c.reconcile(ev.flag)
	case evForceOffload, evForceFallback, evScaleOut, evScaleIn:
		err = c.request(v, ev.kind, ev.n)
	case evOffloadTo:
		err = c.offloadTo(v, ev.addrs)
	case evDeadline:
		if tx := v.txnAt(ev.epoch); tx != nil {
			c.resolvePrepare(v, tx)
		}
	case evFinalize:
		c.send(v.Home, &ctrlrpc.Request{Op: ctrlrpc.OpOffloadFinalize, VNIC: v.VNIC, Epoch: ev.epoch}, event{})
	case evRetire:
		c.teardownFallbackFEs(v, ev.addrs)
		v.inProgress = false
	case evGrace:
		c.teardown(v, ev.a, ev.epoch, gwShrunk)
	case evInstallAck:
		c.prepareAck(v, ev.a, ev.epoch, ev.err)
	case evCommitAck:
		c.commitAck(v, v.txnAt(ev.epoch), ev.err)
	case evFlipAck:
		// The BE is dual-running, so whatever the gateway did, adopting
		// the commit is safe; a failed or unknown flip leaves it dirty.
		if tx := v.txnAt(ev.epoch); tx != nil {
			c.commit(v, tx, ev.err != nil)
		}
	case evPushAck:
		v.gwPushes--
		c.pushAcked(v, ev)
	case evPushBEAck:
		c.pushAcked(v, ev)
	case evRemoveAck:
		if n, ok := c.nodes[ev.a]; ok && ev.err == nil && n.pendingRemoval[v.VNIC] <= ev.epoch {
			delete(n.pendingRemoval, v.VNIC)
			c.journalRemoval(ev.a, v.VNIC, ev.epoch, true)
		}
	case evAbortAck:
		c.staleAborted(v, ev)
	case evGatewayAnswer:
		c.gatewayAnswer(v, ev.rep, ev.err)
	case evHomeAnswer:
		if ev.err == nil && ev.rep != nil && ev.rep.Epoch > v.epoch {
			v.epoch = ev.rep.Epoch
		}
		c.reconciled(v, ev.flag)
	}
	return c.fx, err
}

// txnAt returns v's transaction if it is the one opened at epoch.
func (v *vnicState) txnAt(epoch uint64) *txn {
	if v.txn != nil && v.txn.epoch == epoch {
		return v.txn
	}
	return nil
}

func (c *Controller) send(to packet.IPv4, req *ctrlrpc.Request, then event) {
	c.emit(effect{kind: fxCall, to: to, req: req, then: then})
}

func (c *Controller) after(d sim.Time, then event) {
	c.emit(effect{kind: fxTimer, after: d, then: then})
}

// note records an obs event.
func (c *Controller) note(name string, node packet.IPv4, vnic uint32, format string, args ...any) {
	c.emit(effect{kind: fxEvent, name: name, to: node, vnic: vnic, text: format, args: args})
}

// spanEnd closes a transaction span with its outcome.
func (c *Controller) spanEnd(v *vnicState, tx *txn, outcome string) {
	c.emit(effect{kind: fxSpan, name: tx.kind.String(), vnic: v.VNIC, epoch: tx.epoch, text: outcome})
}

// nodeAddrsInto returns registered node addresses ascending, over
// buf's storage, so decision order never depends on map iteration.
func (c *Controller) nodeAddrsInto(buf []packet.IPv4) []packet.IPv4 {
	buf = slices.Grow(buf[:0], len(c.nodes))
	for a := range c.nodes {
		buf = append(buf, a)
	}
	slices.Sort(buf)
	return buf
}

// sortedVNICs returns registered vNIC ids ascending.
func (c *Controller) sortedVNICs() []uint32 { return sortedIDs(c.vnics) }

// sortedIDs returns a vNIC-keyed map's keys ascending.
func sortedIDs[T any](m map[uint32]T) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// request runs an operator or policy request of kind on v: the
// offload, fallback and resize transactions.
func (c *Controller) request(v *vnicState, kind evKind, n int) error {
	switch kind {
	case evForceOffload:
		if !v.offloaded && !v.inProgress {
			return c.startOffload(v, nil)
		}
	case evForceFallback:
		if v.offloaded && !v.inProgress && v.txn == nil {
			c.startFallback(v)
		}
	case evScaleOut, evScaleIn:
		return c.resize(v, kind == evScaleOut, n)
	}
	return nil
}

// tick folds the samples (every live node, ascending) into the node
// table and decides: the policy engine when one is set, else the
// Fig 8 decision tree.
func (c *Controller) tick(samples []sample) {
	for _, s := range samples {
		n := c.nodes[s.addr]
		n.cpuUtil, n.memUtil = s.cpu, s.mem
		dl, dr := s.local-n.lastLocal, s.remote-n.lastRemote
		n.lastLocal, n.lastRemote = s.local, s.remote
		n.remoteShare = 0
		if dl+dr > 0 {
			n.remoteShare = float64(dr) / float64(dl+dr)
		}
	}
	if c.policy != nil {
		c.decide()
		return
	}
	for _, s := range samples {
		n := c.nodes[s.addr]
		util := max(n.cpuUtil, n.memUtil)
		if util <= scaleThreshold {
			continue
		}
		if n.remoteShare > 0.5 && len(n.fronted) > 0 {
			// Hot because of hosted-FE work: scale out the pools.
			c.scaleOutFrom(n)
			continue
		}
		// Hot because of local traffic: scale in (§4.3), offload.
		if len(n.fronted) > 0 {
			c.Stats.ScaleIns++
			c.evictFEHost(s.addr, n, false)
		}
		if util > offloadThreshold {
			c.offloadFrom(s.addr, n)
		}
	}
}

// offloadFrom offloads vNICs from a hot node, in descending order of
// the triggering resource, until the projection falls to safeLevel.
func (c *Controller) offloadFrom(addr packet.IPv4, n *nodeState) {
	memTriggered := n.memUtil > offloadThreshold && n.memUtil >= n.cpuUtil
	// VNICLoads comes in map order; ties go to the lower vNIC id.
	loads := n.view.VNICLoads()
	sort.Slice(loads, func(i, j int) bool {
		a, b := loads[i], loads[j]
		switch {
		case memTriggered && a.RuleBytes != b.RuleBytes:
			return a.RuleBytes > b.RuleBytes
		case !memTriggered && a.Cycles != b.Cycles:
			return a.Cycles > b.Cycles
		}
		return a.VNIC < b.VNIC
	})
	util := n.cpuUtil
	if memTriggered {
		util = n.memUtil
	}
	totalCycles := uint64(0)
	for _, l := range loads {
		totalCycles += l.Cycles
	}
	for _, l := range loads {
		if util <= safeLevel {
			break
		}
		v, ok := c.vnics[l.VNIC]
		if !ok || v.offloaded || v.inProgress || v.txn != nil || v.Home != addr {
			continue
		}
		if err := c.startOffload(v, nil); err != nil {
			continue
		}
		// Project the relief: CPU relief ∝ the vNIC's cycle share;
		// memory relief ∝ its rule bytes.
		if memTriggered {
			util -= float64(l.RuleBytes) / float64(1<<30)
		} else if totalCycles > 0 {
			util -= n.cpuUtil * float64(l.Cycles) / float64(totalCycles) * 0.85
		}
	}
}

// decide steps the policy engine and runs each decision as the
// request it names; the decided vNICs' cooldowns are journaled after.
func (c *Controller) decide() {
	eng := c.policy
	ds := eng.Step(c.now, c.loads(), true)
	for _, d := range ds {
		err := c.request(c.vnics[d.VNIC], policyRequest[d.Action], d.Delta)
		if err != nil {
			eng.Stats.Rejected++
		} else {
			eng.Stats.Applied++
		}
		c.note("policy", 0, d.VNIC, "%s err=%v", d.String(), err)
	}
	if c.wal {
		for _, d := range ds {
			if r, ok := eng.Record(d.VNIC); ok {
				c.journalRecord(r)
			}
		}
	}
}

// policyRequest is the request each policy action runs.
var policyRequest = [...]evKind{
	policy.ActOffload:  evForceOffload,
	policy.ActFallback: evForceFallback,
	policy.ActScaleOut: evScaleOut,
	policy.ActScaleIn:  evScaleIn,
}

// loads is the policy engine's input, ascending by vNIC: each
// registered vNIC's relocatable cycles summed over every node's ledger,
// and its pool with the mean utilization its live FEs sampled.
func (c *Controller) loads() []policy.Load {
	ids := c.sortedVNICs()
	out := make([]policy.Load, len(ids))
	at := make(map[uint32]*policy.Load, len(ids))
	for i, id := range ids {
		v := c.vnics[id]
		l := &out[i]
		l.VNIC, l.Offloaded, l.Pool, l.PoolUtil = id, v.offloaded, len(v.fes), -1
		var sum float64
		var live int
		for _, fa := range v.fes {
			if n, ok := c.nodes[fa]; ok && !n.down {
				sum += n.cpuUtil
				live++
			}
		}
		if live > 0 {
			l.PoolUtil = sum / float64(live)
		}
		at[id] = l
	}
	for _, n := range c.nodes {
		n.view.Relocatable(func(vnic uint32, rule, sess uint64) {
			if l := at[vnic]; l != nil {
				l.Rule += rule
				l.Sess += sess
			}
		})
	}
	return out
}

// offloadTo validates an operator-chosen FE set (§7.2) and offloads
// the vNIC onto exactly those targets.
func (c *Controller) offloadTo(v *vnicState, targets []packet.IPv4) error {
	if v.offloaded || v.inProgress || v.txn != nil {
		return fmt.Errorf("controller: vNIC %d already offloaded or in progress", v.VNIC)
	}
	if len(targets) == 0 {
		return fmt.Errorf("controller: empty target set")
	}
	for _, a := range targets {
		if n, ok := c.nodes[a]; !ok || n.down {
			return fmt.Errorf("controller: target %v unavailable", a)
		}
		if a == v.Home {
			return fmt.Errorf("controller: home cannot front itself")
		}
	}
	return c.startOffload(v, targets)
}

func (c *Controller) pushDelay() sim.Time {
	s := c.rng.LogNormal(configPushMu, configPushSigma)
	return sim.Time(s * float64(sim.Second))
}

// selectFEs picks count idle vSwitches, preferring the BE's ToR and
// low, similar utilization (§4.2.1, Appendix B.1).
func (c *Controller) selectFEs(home packet.IPv4, count int, exclude map[packet.IPv4]bool) []packet.IPv4 {
	homeToR := -1
	if hn, ok := c.nodes[home]; ok {
		homeToR = hn.view.ToR()
	}
	type cand struct {
		addr  packet.IPv4
		tor   int
		util  float64
		vnics int
	}
	bad := c.badLinks[home]
	var cands []cand
	for addr, n := range c.nodes {
		if addr == home || n.down || exclude[addr] {
			continue
		}
		if when, isBad := bad[addr]; isBad && c.now-when < badLinkTTL {
			continue
		}
		if util := max(n.cpuUtil, n.memUtil); util <= idleBar {
			cands = append(cands, cand{addr, n.view.ToR(), util, n.view.NumVNICs()})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		si, sj := cands[i].tor == homeToR, cands[j].tor == homeToR
		if si != sj {
			return si // same-ToR first
		}
		// Prefer truly idle machines: fewer resident vNICs means less
		// local traffic to collide with later.
		if cands[i].vnics != cands[j].vnics {
			return cands[i].vnics < cands[j].vnics
		}
		if cands[i].util != cands[j].util {
			return cands[i].util < cands[j].util
		}
		return cands[i].addr < cands[j].addr
	})
	if len(cands) > count {
		cands = cands[:count]
	}
	out := make([]packet.IPv4, len(cands))
	for i, cd := range cands {
		out[i] = cd.addr
	}
	return out
}

// floorOf is the FE count below which a pool is considered short:
// MinFEs normally, 1 for operator-pinned pools (which must stay
// routable but are never grown beyond the operator's choice).
func (c *Controller) floorOf(v *vnicState) int {
	if v.pinned {
		return 1
	}
	return c.cfg.MinFEs
}

// quorum is the number of acked prepare targets an offload needs.
func (c *Controller) quorum(targets int) int {
	q := int(math.Ceil(c.cfg.PrepareQuorumFrac * float64(targets)))
	return min(max(q, 1), targets)
}

// startOffload runs the §4.2.1 workflow as a two-phase transaction.
// targets, when non-nil, bypasses FE selection (§7.2).
func (c *Controller) startOffload(v *vnicState, targets []packet.IPv4) error {
	if v.txn != nil {
		return ErrBusy
	}
	if c.now < v.retryAt {
		return ErrCoolingDown
	}
	if _, ok := c.nodes[v.Home]; !ok {
		return fmt.Errorf("controller: vNIC %d home %v not registered", v.VNIC, v.Home)
	}
	feAddrs := targets
	if feAddrs == nil {
		feAddrs = c.selectFEs(v.Home, c.cfg.InitialFEs, nil)
	}
	if len(feAddrs) == 0 {
		return ErrNoIdleNodes
	}
	v.inProgress = true
	v.pinned = targets != nil
	c.prepare(v, txnOffload, feAddrs)
	return nil
}

// openTxn reserves a fresh epoch for a transaction on v, journals its
// intent and opens its span — all before any RPC of it leaves.
func (c *Controller) openTxn(v *vnicState, kind txnKind, targets []packet.IPv4) *txn {
	v.epoch++
	tx := &txn{
		kind:    kind,
		epoch:   v.epoch,
		targets: targets,
		pinned:  v.pinned,
		acked:   make(map[packet.IPv4]bool),
		failed:  make(map[packet.IPv4]bool),
		t0:      c.now,
	}
	v.txn = tx
	if c.wal {
		c.journalRecord(intentRecord(v, tx))
	}
	c.emit(effect{kind: fxSpan, name: kind.String(), vnic: v.VNIC, epoch: tx.epoch})
	return tx
}

// prepare installs v's rule tables on every target over acked RPCs;
// the transaction resolves once all targets settle or the deadline
// fires.
func (c *Controller) prepare(v *vnicState, kind txnKind, targets []packet.IPv4) {
	tx := c.openTxn(v, kind, targets)
	c.emit(effect{kind: fxHook, vnic: v.VNIC, addrs: targets})
	if kind == txnOffload && c.cfg.UnsafeDirectCommit {
		c.unsafeCommitOffload(v, tx)
		return
	}
	for _, fa := range targets {
		c.send(fa, c.installReq(v, tx.epoch), event{kind: evInstallAck, vnic: v.VNIC, a: fa, epoch: tx.epoch})
	}
	c.after(prepareDeadline, event{kind: evDeadline, vnic: v.VNIC, epoch: tx.epoch})
}

// installReq builds the InstallFE request that gives an FE v's tables.
func (c *Controller) installReq(v *vnicState, epoch uint64) *ctrlrpc.Request {
	return &ctrlrpc.Request{
		Op: ctrlrpc.OpInstallFE, VNIC: v.VNIC, Epoch: epoch,
		Rules: v.MakeRules(), BE: v.Home, Decap: v.Decap,
		ApplyDelay: c.pushDelay(),
	}
}

// prepareAck records one prepare target's outcome. An ack after
// resolution is a straggler: an install that took hold outside the
// committed set is torn back down.
func (c *Controller) prepareAck(v *vnicState, fa packet.IPv4, epoch uint64, err error) {
	tx := v.txnAt(epoch)
	if tx == nil || tx.resolved {
		if err == nil && (tx == nil || !slices.Contains(tx.committed, fa)) {
			c.rollbackFE(v, fa, epoch)
		}
		return
	}
	if err != nil {
		tx.failed[fa] = true
	} else {
		tx.acked[fa] = true
	}
	if tx.settled() {
		c.resolvePrepare(v, tx)
	}
}

// failTxnTarget marks a prepare target reported dead or unreachable:
// even if its install acked, the transaction must not commit to it.
func (c *Controller) failTxnTarget(v *vnicState, fa packet.IPv4) {
	tx := v.txn
	if tx == nil || tx.resolved || !slices.Contains(tx.targets, fa) {
		return
	}
	tx.failed[fa] = true
	if tx.settled() {
		c.resolvePrepare(v, tx)
	}
}

// resolvePrepare closes the prepare phase: an offload needs the
// prepare quorum, a scale-out any acked target.
func (c *Controller) resolvePrepare(v *vnicState, tx *txn) {
	if tx.resolved {
		return
	}
	tx.resolved = true
	c.emit(effect{kind: fxCancel, vnic: v.VNIC})
	good := make([]packet.IPv4, 0, len(tx.targets))
	for _, fa := range tx.targets {
		if !tx.acked[fa] || tx.failed[fa] {
			continue
		}
		if n, ok := c.nodes[fa]; !ok || n.down {
			continue
		}
		good = append(good, fa)
	}
	need := 1
	if tx.kind == txnOffload {
		need = c.quorum(len(tx.targets))
	}
	if len(good) < need {
		c.abort(v, tx, false)
		return
	}
	c.commitTxn(v, tx, good)
}

// commitTxn starts the commit phase every transaction shares, over
// good, the acked prepare targets: the BE leg (OffloadStart, the grown
// FE set, or FallbackStart with the rule tables), then on its ack the
// gateway flip. Only after both does the controller adopt the change.
func (c *Controller) commitTxn(v *vnicState, tx *txn, good []packet.IPv4) {
	req := &ctrlrpc.Request{VNIC: v.VNIC, Epoch: tx.epoch}
	switch tx.kind {
	case txnOffload:
		req.Op, tx.set = ctrlrpc.OpOffloadStart, good
	case txnScaleOut:
		req.Op, tx.set = ctrlrpc.OpSetFEs, mergeAddrs(v.fes, good)
		if len(tx.set) == len(v.fes) {
			c.spanEnd(v, tx, "noop")
			v.txn = nil
			c.journalResolve(v.VNIC, tx.epoch, true, v.fes)
			return
		}
	default:
		req.Op, tx.set = ctrlrpc.OpFallbackStart, []packet.IPv4{v.Home}
		req.Rules, req.ApplyDelay = v.MakeRules(), c.pushDelay()
	}
	tx.committed = good
	if req.Op != ctrlrpc.OpFallbackStart {
		req.FEs = tx.set
	}
	c.send(v.Home, req, event{kind: evCommitAck, vnic: v.VNIC, epoch: tx.epoch})
}

// commitAck handles the BE leg's outcome. A failed scale-out leg
// commits dirty (every member holds acked rules, so the superset is
// safe); a failed offload or fallback leg aborts.
func (c *Controller) commitAck(v *vnicState, tx *txn, err error) {
	switch {
	case tx == nil:
	case err == nil:
		c.send(c.cfg.GatewayAddr, &ctrlrpc.Request{
			Op: ctrlrpc.OpGatewaySet, VNIC: v.VNIC, Epoch: tx.epoch, FEs: tx.set,
		}, event{kind: evFlipAck, vnic: v.VNIC, epoch: tx.epoch})
	case tx.kind == txnScaleOut:
		c.commit(v, tx, true)
	default:
		tx.committed = nil
		c.abort(v, tx, tx.kind == txnOffload && errors.Is(err, ctrlrpc.ErrTimeout))
	}
}

// commit closes tx as committed. dirty marks a gateway or BE leg that
// failed or never answered: the repair loop re-pushes at a fresh
// epoch. A recovered transaction adopts what the gateway holds and
// leaves the re-push to its reconciliation.
func (c *Controller) commit(v *vnicState, tx *txn, dirty bool) {
	if v.txn == tx {
		v.txn = nil
	}
	v.pinned = tx.pinned
	outcome := "committed"
	if dirty {
		outcome = "committed-dirty"
	}
	switch {
	case tx.kind == txnFallback:
		if !tx.recovered {
			c.spanEnd(v, tx, outcome)
			c.note("txn-commit", v.Home, v.VNIC, "kind=fallback epoch=%d dirty=%v", tx.epoch, dirty)
		}
		if !c.commitFallback(v, tx.epoch, dirty) {
			v.inProgress = false
		}
	case tx.recovered:
		c.adopt(v, tx.kind, tx.epoch, nil, tx.set)
	case tx.kind == txnOffload:
		c.spanEnd(v, tx, outcome)
		c.note("txn-commit", v.Home, v.VNIC, "kind=offload epoch=%d fes=%d dirty=%v", tx.epoch, len(tx.committed), dirty)
		v.inProgress = false
		v.dirty = dirty
		c.Stats.FEsAdded += uint64(c.adopt(v, txnOffload, tx.epoch, nil, tx.committed))
		if len(v.fes) < c.floorOf(v) {
			// A quorum commit short of the floor is degraded from the start.
			c.enterDegraded(v)
		}
		c.OffloadCompletion.Observe((c.now + fabric.LearnInterval - tx.t0).Millis())
		// When dirty the gateway may still route at the home: the BE
		// stays dual-running until the repair loop lands a clean push.
		if !dirty {
			c.finalizeLater(v, tx.epoch)
		}
		c.pruneDown(v)
	default:
		// Adopt onto the pool as it is now, not the set the commit
		// pushed: an FE removed while the commit RPCs were in flight
		// stays out. Its shrink pushed a newer set that lacks the new
		// members, so the endpoints need a re-push.
		if dirty = dirty || v.epoch != tx.epoch; dirty {
			v.dirty = true
			outcome = "committed-dirty"
		}
		added := c.adopt(v, txnScaleOut, tx.epoch, v.fes, tx.committed)
		c.Stats.FEsAdded += uint64(added)
		c.spanEnd(v, tx, outcome)
		c.note("txn-commit", v.Home, v.VNIC, "kind=scaleout epoch=%d added=%d dirty=%v", tx.epoch, added, dirty)
		c.pruneDown(v)
	}
}

// abort closes tx uncommitted: the pool keeps its membership, prepare
// targets lose their installs, and an offload cools down. beUnknown
// marks an offload whose BE may believe it is offloaded (OffloadStart
// timed out, or a recovered intent's flip never landed): its installs
// join staleFEs and go only after the BE acks an abort.
func (c *Controller) abort(v *vnicState, tx *txn, beUnknown bool) {
	c.Stats.Aborts++
	if !tx.recovered {
		outcome := "aborted"
		if beUnknown {
			outcome = "aborted-be-unknown"
		}
		c.spanEnd(v, tx, outcome)
		c.note("txn-abort", v.Home, v.VNIC, "kind=%v epoch=%d be_unknown=%v", tx.kind, tx.epoch, beUnknown)
		if tx.kind != txnScaleOut {
			v.inProgress = false
		}
	}
	if v.txn == tx {
		v.txn = nil
	}
	if tx.kind == txnOffload {
		v.retryAt = c.now + offloadRetryCooldown
	}
	c.journalResolve(v.VNIC, tx.epoch, false, nil)
	switch {
	case tx.kind == txnFallback:
		// The FE pool still serves; the periodic check retries.
	case beUnknown:
		v.staleFEs = mergeAddrs(v.staleFEs, tx.targets)
		c.journalPlacement(v)
		c.reconcileStale(v)
	default:
		if tx.kind == txnOffload {
			c.journalPlacement(v)
		}
		// Targets whose install state is unknown (timeout) are included:
		// RemoveFE of an absent instance is a no-op.
		for _, fa := range tx.targets {
			c.rollbackFE(v, fa, tx.epoch)
		}
		if !tx.recovered && v.offloaded && len(v.fes) < c.floorOf(v) {
			c.enterDegraded(v)
		}
	}
}

// finalizeLater runs the offload's final stage after the learning
// interval: the BE deletes its tables.
func (c *Controller) finalizeLater(v *vnicState, epoch uint64) {
	c.after(fabric.LearnInterval+rttAllowance, event{kind: evFinalize, vnic: v.VNIC, epoch: epoch})
}

// adopt, the one place a pool grows, commits base ∪ fes as v's pool at
// epoch: adopted FEs are fronted again and lose any parked removal, and
// a pool back at its floor leaves the degraded state. It returns how
// many FEs joined.
func (c *Controller) adopt(v *vnicState, kind txnKind, epoch uint64, base, fes []packet.IPv4) int {
	v.offloaded = true
	v.fes = mergeAddrs(base, fes)
	c.journalResolve(v.VNIC, epoch, true, v.fes)
	c.journalPlacement(v)
	for _, fa := range fes {
		if n, ok := c.nodes[fa]; ok {
			n.fronted[v.VNIC] = true
			if ep, ok := n.pendingRemoval[v.VNIC]; ok {
				delete(n.pendingRemoval, v.VNIC)
				c.journalRemoval(fa, v.VNIC, ep, true)
			}
		}
	}
	if kind == txnOffload {
		c.Stats.Offloads++
	} else {
		c.Stats.ScaleOuts++
	}
	if len(v.fes) >= c.floorOf(v) {
		c.exitDegraded(v)
	}
	return len(v.fes) - len(base)
}

// unsafeCommitOffload is the negative control: fire-and-forget
// installs with the BE and gateway flipped at once.
func (c *Controller) unsafeCommitOffload(v *vnicState, tx *txn) {
	c.spanEnd(v, tx, "unsafe-commit")
	c.note("unsafe-commit", v.Home, v.VNIC, "epoch=%d fes=%d", tx.epoch, len(tx.targets))
	for _, fa := range tx.targets {
		c.send(fa, c.installReq(v, tx.epoch), event{})
	}
	c.send(v.Home, &ctrlrpc.Request{Op: ctrlrpc.OpOffloadStart, VNIC: v.VNIC, Epoch: tx.epoch, FEs: tx.targets}, event{})
	c.send(c.cfg.GatewayAddr, &ctrlrpc.Request{Op: ctrlrpc.OpGatewaySet, VNIC: v.VNIC, Epoch: tx.epoch, FEs: tx.targets}, event{})
	tx.resolved = true
	v.txn = nil
	v.inProgress = false
	c.Stats.FEsAdded += uint64(c.adopt(v, txnOffload, tx.epoch, nil, tx.targets))
	c.finalizeLater(v, tx.epoch)
}

// rollbackFE removes one FE install of an aborted transaction.
func (c *Controller) rollbackFE(v *vnicState, fa packet.IPv4, epoch uint64) {
	c.Stats.Rollbacks++
	c.note("txn-rollback", fa, v.VNIC, "epoch=%d", epoch)
	c.teardown(v, fa, epoch, rollback)
}

// teardownCause is what a caller knows about the gateway when it asks
// for an FE's tables to go; teardown's verdict depends on it.
type teardownCause int

const (
	// gwShrunk: the gateway acked a set without the FE — a confirmed
	// pool shrink, or a fallback's flip home.
	gwShrunk teardownCause = iota
	// gwUnknown: the shrink was never pushed, or its push failed, so
	// the gateway may still steer traffic at the FE.
	gwUnknown
	// rollback: the FE is a prepare target no commit adopted.
	rollback
	// retry: the repair loop re-sends a parked removal.
	retry
)

// teardown is the one owner of FE-table removal: every path that wants
// fa's tables for v gone calls it, and it alone decides whether the
// RemoveFE goes out now, parks in fa's pendingRemoval for the repair
// loop, or is skipped. The rules:
//   - an FE that is a member of v's pool again keeps its tables;
//   - a retry waits, parked, until v's gateway view has converged;
//   - a removal the gateway may still be steering at parks: one whose
//     shrink is unconfirmed, or a rollback while v's gateway view is
//     unconverged (a member dropped a moment ago may still be routed);
//   - anything else is sent at epoch, the epoch of the change that
//     dropped fa, so the FE's epoch fence spares a later re-install.
//
// A sent removal stays parked until fa acks it (evRemoveAck), so the
// repair loop retries nodes that were unreachable.
func (c *Controller) teardown(v *vnicState, fa packet.IPv4, epoch uint64, cause teardownCause) {
	if slices.Contains(v.fes, fa) || cause == retry && v.unconverged() {
		return
	}
	if n, ok := c.nodes[fa]; ok {
		delete(n.fronted, v.VNIC)
		if n.park(v.VNIC, epoch) {
			c.journalRemoval(fa, v.VNIC, epoch, false)
		}
	}
	if cause == gwUnknown || cause == rollback && (v.dirty || v.gwPushes > 0) {
		return
	}
	c.send(fa, &ctrlrpc.Request{Op: ctrlrpc.OpRemoveFE, VNIC: v.VNIC, Epoch: epoch},
		event{kind: evRemoveAck, vnic: v.VNIC, a: fa, epoch: epoch})
}

// park records that the node owes a removal of vnic's tables at epoch,
// keeping the highest epoch; it reports whether the record changed.
func (n *nodeState) park(vnic uint32, epoch uint64) bool {
	if old, has := n.pendingRemoval[vnic]; has && old >= epoch {
		return false
	}
	n.pendingRemoval[vnic] = epoch
	return true
}

// unconverged reports whether the gateway may still steer v's traffic
// somewhere its committed pool does not: a push failed (dirty) or is in
// flight, a transaction or workflow is mid-way, or an emptied pool's
// shrink was deliberately never pushed.
func (v *vnicState) unconverged() bool {
	return v.dirty || v.txn != nil || v.inProgress || v.gwPushes > 0 ||
		(v.offloaded && len(v.fes) == 0)
}

// pushConfig propagates v's committed pool to the gateway and the BE
// at a fresh epoch; a failed leg leaves it dirty for the repair loop.
// drop, when set, is an FE the push removes: its teardown waits for the
// gateway's ack, plus the learning interval when graceful.
func (c *Controller) pushConfig(v *vnicState, drop packet.IPv4, graceful bool) {
	if v.offloaded && len(v.fes) == 0 {
		// An emptied pool has no pushable state (see removeFromPool);
		// the repair loop replenishes it or runs the acked fallback.
		v.dirty = true
		return
	}
	v.epoch++
	v.dirty = false
	c.journalPlacement(v)
	set := []packet.IPv4{v.Home}
	if v.offloaded {
		set = append([]packet.IPv4(nil), v.fes...)
	}
	v.gwPushes++
	c.send(c.cfg.GatewayAddr, &ctrlrpc.Request{Op: ctrlrpc.OpGatewaySet, VNIC: v.VNIC, Epoch: v.epoch, FEs: set},
		event{kind: evPushAck, vnic: v.VNIC, epoch: v.epoch, a: drop, flag: graceful})
	if hn, ok := c.nodes[v.Home]; v.offloaded && ok && !hn.down {
		c.send(v.Home, &ctrlrpc.Request{Op: ctrlrpc.OpSetFEs, VNIC: v.VNIC, Epoch: v.epoch, FEs: set},
			event{kind: evPushBEAck, vnic: v.VNIC, epoch: v.epoch})
	}
}

// pushAcked settles one leg of a config push. The gateway leg of a
// shrink tears the dropped FE down at the shrink's own epoch: the vNIC
// may have moved on since, and even re-adopted it.
func (c *Controller) pushAcked(v *vnicState, ev event) {
	if ev.err != nil && v.epoch == ev.epoch {
		v.dirty = true
	}
	if ev.kind != evPushAck || ev.a == 0 {
		return
	}
	switch n, ok := c.nodes[ev.a]; {
	case ev.err != nil:
		c.teardown(v, ev.a, ev.epoch, gwUnknown)
	case ev.flag && !(ok && n.down):
		// A crashed victim skips the grace: RemoveFE cannot apply,
		// and the parked removal is retried on its revival.
		c.after(fabric.LearnInterval+rttAllowance, event{kind: evGrace, vnic: v.VNIC, a: ev.a, epoch: ev.epoch})
	default:
		c.teardown(v, ev.a, ev.epoch, gwShrunk)
	}
}

// removeFromPool drops fa from v's pool and pushes the shrunk config.
// Reports whether fa was a member.
func (c *Controller) removeFromPool(v *vnicState, fa packet.IPv4, graceful bool) bool {
	before := len(v.fes)
	v.fes = slices.DeleteFunc(v.fes, func(a packet.IPv4) bool { return a == fa })
	if len(v.fes) == before {
		return false
	}
	if n, ok := c.nodes[fa]; ok {
		delete(n.fronted, v.VNIC)
	}
	if v.offloaded && len(v.fes) == 0 {
		// The pool just emptied. An empty gateway set routes at
		// nothing, and flipping home is unsafe until the BE re-acks its
		// tables, so the gateway keeps its entry, fa keeps its tables
		// (the removal parks), and the pool is degraded for the repair
		// loop.
		c.enterDegraded(v)
		c.teardown(v, fa, v.epoch, gwUnknown)
		c.journalPlacement(v)
		return true
	}
	c.pushConfig(v, fa, graceful)
	return true
}

// pruneDown sweeps members declared down while a commit was in flight
// and replenishes toward the floor.
func (c *Controller) pruneDown(v *vnicState) {
	if !v.offloaded {
		return
	}
	for _, fa := range append([]packet.IPv4(nil), v.fes...) {
		if n, ok := c.nodes[fa]; ok && n.down {
			c.removeFromPool(v, fa, false)
		}
	}
	if len(v.fes) < c.floorOf(v) {
		c.scaleOutOpts(v, c.floorOf(v)-len(v.fes), true)
	}
}

// enterDegraded flags a pool stuck below MinFEs.
func (c *Controller) enterDegraded(v *vnicState) {
	if v.degraded {
		return
	}
	v.degraded = true
	c.Stats.DegradedEnters++
	c.note("degraded-enter", v.Home, v.VNIC, "fes=%d floor=%d", len(v.fes), c.floorOf(v))
}

func (c *Controller) exitDegraded(v *vnicState) {
	if !v.degraded {
		return
	}
	v.degraded = false
	c.Stats.DegradedExits++
	c.note("degraded-exit", v.Home, v.VNIC, "fes=%d", len(v.fes))
}

// reconcileStale asks the BE to abort the offloads whose outcome it
// may not know; its ack makes the stale installs safe to tear down.
func (c *Controller) reconcileStale(v *vnicState) {
	if len(v.staleFEs) == 0 {
		return
	}
	if hn, ok := c.nodes[v.Home]; !ok || hn.down {
		return // retried on NodeUp / next repair tick
	}
	c.send(v.Home, &ctrlrpc.Request{Op: ctrlrpc.OpOffloadAbort, VNIC: v.VNIC, Epoch: v.epoch},
		event{kind: evAbortAck, vnic: v.VNIC, epoch: v.epoch, addrs: append([]packet.IPv4(nil), v.staleFEs...)})
}

// staleAborted tears down the FEs an acked abort covered. A newer
// offload that won the race owns the pool: its commit absorbed the
// stale set or re-installed it at a higher epoch.
func (c *Controller) staleAborted(v *vnicState, ev event) {
	if ev.err != nil {
		return
	}
	if v.offloaded || v.txn != nil {
		v.staleFEs = nil
	} else {
		for _, fa := range ev.addrs {
			c.rollbackFE(v, fa, ev.epoch)
		}
		v.staleFEs = slices.DeleteFunc(v.staleFEs, func(a packet.IPv4) bool { return slices.Contains(ev.addrs, a) })
	}
	c.journalPlacement(v)
}

// repairTick re-pushes dirty config, replenishes degraded pools,
// finishes deferred fallback cleanups, resolves unknown-BE aborts, and
// retries pending FE removals.
func (c *Controller) repairTick() {
	for _, vnic := range c.sortedVNICs() {
		v := c.vnics[vnic]
		if v.txn != nil {
			continue
		}
		c.reconcileStale(v)
		if v.inProgress || v.gwPushes > 0 {
			continue // repairing would race a pending ack's verdict
		}
		switch {
		case v.offloaded && len(v.fes) == 0:
			// Emptied pool: replenish it, or else fall back home.
			c.enterDegraded(v)
			c.Stats.RepairRuns++
			if !c.scaleOutOpts(v, c.floorOf(v), true) {
				c.startFallback(v)
			}
		case v.dirty:
			c.Stats.RepairRuns++
			c.pushConfig(v, 0, false)
		case v.offloaded && len(v.fes) < c.floorOf(v):
			c.enterDegraded(v)
			c.Stats.RepairRuns++
			c.scaleOutOpts(v, c.floorOf(v)-len(v.fes), true)
		case v.offloaded:
			c.exitDegraded(v)
		case len(v.fes) > 0:
			// A dirty fallback's deferred FE cleanup, now that the
			// gateway points home.
			c.exitDegraded(v)
			c.retireFEs(v)
		default:
			c.exitDegraded(v)
		}
	}
	for _, addr := range c.nodeAddrsInto(nil) {
		if n := c.nodes[addr]; !n.down {
			c.retryPendingRemovals(addr, n)
		}
	}
}

// retryPendingRemovals re-sends a reachable node's parked teardowns
// (teardown's retry rule holds them until the gateway view converged).
func (c *Controller) retryPendingRemovals(addr packet.IPv4, n *nodeState) {
	for _, id := range sortedIDs(n.pendingRemoval) {
		if v, ok := c.vnics[id]; ok {
			c.teardown(v, addr, n.pendingRemoval[id], retry)
		}
	}
}

// scaleOutFrom relieves an FE-hosting node by doubling the pools it
// fronts (Fig 11 scales 4 → 8), subject to the scale cooldown.
func (c *Controller) scaleOutFrom(n *nodeState) {
	for _, vnic := range sortedIDs(n.fronted) {
		if v, ok := c.vnics[vnic]; ok && v.offloaded {
			c.scaleOutOpts(v, len(v.fes), false)
		}
	}
}

// scaleOutOpts runs the scale-out two-phase transaction (§4.3). The
// repair loop and failover replenishment bypass the cooldown. Reports
// whether a transaction was started.
func (c *Controller) scaleOutOpts(v *vnicState, count int, bypassCooldown bool) bool {
	count = max(count, 1)
	if !v.offloaded || v.txn != nil || v.inProgress {
		return false
	}
	if !bypassCooldown && v.lastScale > 0 && c.now-v.lastScale < scaleCooldown {
		return false
	}
	exclude := map[packet.IPv4]bool{}
	for _, fa := range v.fes {
		exclude[fa] = true
	}
	newFEs := c.selectFEs(v.Home, count, exclude)
	if len(newFEs) == 0 {
		if len(v.fes) < c.floorOf(v) {
			c.enterDegraded(v)
		}
		return false
	}
	v.lastScale = c.now
	c.prepare(v, txnScaleOut, newFEs)
	return true
}

// evictFEHost removes a node from every FE pool it serves, replacing
// it below the floor (§4.4); immediate skips the grace (failover).
func (c *Controller) evictFEHost(addr packet.IPv4, n *nodeState, immediate bool) {
	for _, vnic := range sortedIDs(n.fronted) {
		v, ok := c.vnics[vnic]
		if !ok {
			delete(n.fronted, vnic)
			continue
		}
		c.removeFromPool(v, addr, !immediate)
		if v.offloaded && len(v.fes) < c.floorOf(v) {
			c.scaleOutOpts(v, c.floorOf(v)-len(v.fes), true)
		}
	}
}

// resize is the ScaleOut / ScaleIn request. Its caller owns pacing, so
// a scale-out bypasses the cooldown; a scale-in removes the most
// recently added FEs, never below the floor, gracefully.
func (c *Controller) resize(v *vnicState, grow bool, n int) error {
	if !v.offloaded {
		return ErrNotOffloaded
	}
	if v.txn != nil || v.inProgress {
		return ErrBusy
	}
	if grow {
		if !c.scaleOutOpts(v, n, true) {
			return ErrNoIdleNodes
		}
		return nil
	}
	if n = min(n, len(v.fes)-c.floorOf(v)); n <= 0 {
		return nil
	}
	removed := 0
	for _, fa := range append([]packet.IPv4(nil), v.fes[len(v.fes)-n:]...) {
		if c.removeFromPool(v, fa, true) {
			removed++
		}
	}
	if removed > 0 {
		c.Stats.ScaleIns++
	}
	return nil
}

// nodeDown handles the monitor's crash declaration for an FE host
// (§4.4). In-flight transactions targeting the node are failed so they
// never commit to it.
func (c *Controller) nodeDown(addr packet.IPv4) {
	n, ok := c.nodes[addr]
	if !ok || n.down {
		return
	}
	n.down = true
	c.journalRecord(journal.Record{Kind: journal.KindNode, Node: addr, Down: true})
	c.Stats.Failovers++
	c.statMu.Lock()
	c.failoverAt[addr] = c.now
	c.statMu.Unlock()
	c.note("node-down", addr, 0, "fronted=%d", len(n.fronted))
	c.evictFEHost(addr, n, true)
	for _, vnic := range c.sortedVNICs() {
		c.failTxnTarget(c.vnics[vnic], addr)
	}
}

// linkDown handles a BE-reported FE connectivity failure (§C.1): the
// FE leaves the pools of vNICs homed at `home` only, and fails their
// in-flight prepares.
func (c *Controller) linkDown(home, fe packet.IPv4) {
	if c.badLinks[home] == nil {
		c.badLinks[home] = make(map[packet.IPv4]sim.Time)
	}
	c.badLinks[home][fe] = c.now
	c.note("link-down", fe, 0, "home=%v", home)
	for _, vnic := range c.sortedVNICs() {
		v := c.vnics[vnic]
		if v.Home != home {
			continue
		}
		c.failTxnTarget(v, fe)
		// Graceful: the FE is alive, and other senders may steer there
		// until the shrink propagates.
		if v.offloaded && c.removeFromPool(v, fe, true) && len(v.fes) < c.floorOf(v) {
			c.scaleOutOpts(v, c.floorOf(v)-len(v.fes), false)
		}
	}
}

// nodeUp marks a node healthy again and reconciles: pools homed there
// re-push their config, unknown-BE aborts resolve, and pending FE
// removals on the node are retried.
func (c *Controller) nodeUp(addr packet.IPv4) {
	n, ok := c.nodes[addr]
	if !ok {
		return
	}
	n.down = false
	c.journalRecord(journal.Record{Kind: journal.KindNode, Node: addr})
	c.note("node-up", addr, 0, "")
	for _, vnic := range c.sortedVNICs() {
		v := c.vnics[vnic]
		if v.Home != addr || v.txn != nil {
			continue
		}
		c.reconcileStale(v)
		if v.offloaded && !v.inProgress {
			c.pushConfig(v, 0, false) // the revived BE's config may be stale
		}
	}
	c.retryPendingRemovals(addr, n)
}

// checkFallbacks returns offloaded vNICs to local processing when the
// home vSwitch could absorb them below the safe level (§4.2.2).
func (c *Controller) checkFallbacks() {
	for _, vnic := range c.sortedVNICs() {
		v := c.vnics[vnic]
		if !v.offloaded || v.inProgress || v.txn != nil {
			continue
		}
		hn, ok := c.nodes[v.Home]
		if !ok || hn.down {
			continue
		}
		extra := 0.0 // what the vNIC consumes remotely
		for _, fa := range v.fes {
			fn, ok := c.nodes[fa]
			if !ok || len(fn.fronted) == 0 {
				continue
			}
			extra += fn.cpuUtil * fn.remoteShare / float64(len(fn.fronted))
		}
		if hn.cpuUtil+extra < safeLevel && hn.memUtil < safeLevel {
			c.startFallback(v)
		}
	}
}

// startFallback runs the reverse workflow (§4.2.2) as a transaction
// with no prepare phase. A failed BE leg aborts with the pool
// untouched; a failed gateway flip commits dirty, and the FEs keep
// their tables until the repair loop lands the flip.
func (c *Controller) startFallback(v *vnicState) {
	if _, ok := c.nodes[v.Home]; !ok || v.txn != nil || v.inProgress {
		return
	}
	v.inProgress = true
	c.commitTxn(v, c.openTxn(v, txnFallback, nil), nil)
}

// commitFallback records a committed fallback. Unless dirty the old
// FEs are retired, and it reports true: their deferred teardown owns
// the vNIC until it runs.
func (c *Controller) commitFallback(v *vnicState, epoch uint64, dirty bool) bool {
	v.offloaded = false
	c.Stats.Fallbacks++
	c.journalResolve(v.VNIC, epoch, true, nil)
	if dirty {
		v.dirty = true
		c.journalPlacement(v)
		return false
	}
	c.retireFEs(v)
	return true
}

// retireFEs empties a fallen-back vNIC's pool and tears the old FEs
// down after the learning interval; v stays inProgress until then.
func (c *Controller) retireFEs(v *vnicState) {
	v.inProgress = true
	fes := v.fes
	v.fes = nil
	c.journalPlacement(v)
	c.after(fabric.LearnInterval+rttAllowance, event{kind: evRetire, vnic: v.VNIC, addrs: fes})
}

// teardownFallbackFEs finishes a fallback at the BE and the old FEs.
func (c *Controller) teardownFallbackFEs(v *vnicState, fes []packet.IPv4) {
	if hn, ok := c.nodes[v.Home]; ok && !hn.down {
		c.send(v.Home, &ctrlrpc.Request{Op: ctrlrpc.OpFallbackFinalize, VNIC: v.VNIC, Epoch: v.epoch}, event{})
	}
	for _, fa := range fes {
		c.teardown(v, fa, v.epoch, gwShrunk)
	}
}

// mergeAddrs unions two address lists, preserving a's order.
func mergeAddrs(a, b []packet.IPv4) []packet.IPv4 {
	out := append([]packet.IPv4(nil), a...)
	for _, x := range b {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}
