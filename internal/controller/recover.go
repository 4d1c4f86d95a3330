// Controller crash-recovery: the journaling hooks, the crash model,
// and the recovery path that rebuilds the control plane from
// snapshot+log and reconciles it against the live world.
//
// The crash model mirrors a real process death. Crash abandons every
// in-flight continuation (the transport drops its pending calls and
// discards acks, scheduled closures are generation-fenced), wipes the
// in-memory world, and leaves only the journal's Store — the disk —
// intact. Recover replays the journal, restarts the loops, drains the
// monitor declarations that arrived during the outage, and then
// settles every prepared-but-unresolved two-phase transaction by
// asking the gateway what actually happened: a gateway entry at (or
// past) the intent's epoch means the commit landed and the acked FE
// subset it holds is adopted and re-pushed; anything less means the
// flip never happened and the prepared installs are rolled back
// through the same unknown-BE abort path a live abort uses.
package controller

import (
	"errors"
	"slices"

	"nezha/internal/ctrlrpc"
	"nezha/internal/journal"
	"nezha/internal/packet"
	"nezha/internal/sim"
)

// monEvent is a monitor declaration buffered while the controller is
// down; Recover replays them in arrival order.
type monEvent struct {
	kind int
	a, b packet.IPv4
}

const (
	evNodeDown = iota
	evNodeUp
	evLinkDown
)

// --- Generation-fenced scheduling and RPC ----------------------------

// schedule wraps loop.Schedule with a crash fence: closures captured
// by a dead incarnation (or scheduled while down) never run against
// the recovered controller's state.
func (c *Controller) schedule(d sim.Time, fn func()) sim.EventRef {
	if c.down {
		return sim.EventRef{}
	}
	gen := c.gen
	return c.loop.Schedule(d, func() {
		if c.down || c.gen != gen {
			return
		}
		fn()
	})
}

// call is the fenced rpc.Call: no-ops while down, and the done
// callback is dropped if the controller crashed since the call left.
func (c *Controller) call(to packet.IPv4, req *ctrlrpc.Request, done func(error)) {
	if c.down {
		return
	}
	if done == nil {
		c.rpc.Call(to, req, nil)
		return
	}
	gen := c.gen
	c.rpc.Call(to, req, func(err error) {
		if c.down || c.gen != gen {
			return
		}
		done(err)
	})
}

// query is the fenced rpc.Query.
func (c *Controller) query(to packet.IPv4, req *ctrlrpc.Request, done func(*ctrlrpc.Reply, error)) {
	if c.down {
		return
	}
	gen := c.gen
	c.rpc.Query(to, req, func(rep *ctrlrpc.Reply, err error) {
		if c.down || c.gen != gen {
			return
		}
		done(rep, err)
	})
}

// --- Journaling hooks -------------------------------------------------

// AttachJournal wires the write-ahead log. Call it before Start; vNICs
// already registered are seeded so replay has a baseline even if no
// later mutation touches them. The controller registers a compactor so
// periodic snapshots keep the journal's footprint bounded.
func (c *Controller) AttachJournal(j *journal.Journal) {
	c.journal = j
	j.AddCompactor(c.exportState)
	for _, id := range c.sortedVNICs() {
		c.journalPlacement(c.vnics[id])
	}
}

func (c *Controller) journalAppend(r journal.Record) {
	if c.journal == nil {
		return
	}
	// Errors are counted in the journal's stats; a sick disk must not
	// take the control plane down with it.
	_ = c.journal.Append(r)
}

func placementRecord(v *vnicState) journal.Record {
	return journal.Record{
		Kind: journal.KindPlacement, VNIC: v.VNIC, Epoch: v.epoch,
		Offloaded: v.offloaded, Pinned: v.pinned,
		FEs:     append([]packet.IPv4(nil), v.fes...),
		Stale:   append([]packet.IPv4(nil), v.staleFEs...),
		RetryAt: int64(v.retryAt), LastScale: int64(v.lastScale),
	}
}

func txnRecordKind(k txnKind) uint8 {
	switch k {
	case txnOffload:
		return journal.TxnOffload
	case txnScaleOut:
		return journal.TxnScaleOut
	default:
		return journal.TxnFallback
	}
}

func intentRecord(v *vnicState, tx *txn) journal.Record {
	return journal.Record{
		Kind: journal.KindIntent, VNIC: v.VNIC, Epoch: tx.epoch,
		Txn: txnRecordKind(tx.kind), Pinned: v.pinned,
		FEs: append([]packet.IPv4(nil), tx.targets...),
	}
}

func (c *Controller) journalPlacement(v *vnicState) {
	if c.journal == nil {
		return
	}
	c.journalAppend(placementRecord(v))
}

func (c *Controller) journalIntent(v *vnicState, tx *txn) {
	if c.journal == nil {
		return
	}
	c.journalAppend(intentRecord(v, tx))
}

func (c *Controller) journalResolve(vnic uint32, epoch uint64, committed bool, fes []packet.IPv4) {
	c.journalAppend(journal.Record{
		Kind: journal.KindResolve, VNIC: vnic, Epoch: epoch,
		Committed: committed, FEs: append([]packet.IPv4(nil), fes...),
	})
}

func (c *Controller) journalNode(addr packet.IPv4, down bool) {
	c.journalAppend(journal.Record{Kind: journal.KindNode, Node: addr, Down: down})
}

func (c *Controller) journalRemoval(node packet.IPv4, vnic uint32, epoch uint64, done bool) {
	c.journalAppend(journal.Record{Kind: journal.KindRemoval, Node: node, VNIC: vnic, Epoch: epoch, Done: done})
}

// clearRemoval drops a parked removal (the FE is a committed pool
// member again) and journals the closure.
func (c *Controller) clearRemoval(n *nodeState, addr packet.IPv4, vnic uint32) {
	if ep, ok := n.pendingRemoval[vnic]; ok {
		delete(n.pendingRemoval, vnic)
		c.journalRemoval(addr, vnic, ep, true)
	}
}

// exportState is the journal compactor: the minimal record set that
// replays to the controller's current durable state.
func (c *Controller) exportState() []journal.Record {
	var out []journal.Record
	for _, id := range c.sortedVNICs() {
		v := c.vnics[id]
		out = append(out, placementRecord(v))
		if tx := v.txn; tx != nil && !tx.resolved {
			out = append(out, intentRecord(v, tx))
		}
	}
	for _, addr := range c.sortedNodeAddrs() {
		n := c.nodes[addr]
		if n.down {
			out = append(out, journal.Record{Kind: journal.KindNode, Node: addr, Down: true})
		}
		for _, id := range sortedIDs(n.pendingRemoval) {
			out = append(out, journal.Record{Kind: journal.KindRemoval, Node: addr, VNIC: id, Epoch: n.pendingRemoval[id]})
		}
	}
	return out
}

// --- Crash ------------------------------------------------------------

// Crash models the controller process dying: loops stop, the RPC
// transport abandons every in-flight call and drops arriving acks, and
// all in-memory state is forgotten. Telemetry objects (stats counters,
// histograms, obs) survive — they model off-box collection. The
// journal's Store is the disk; Recover rebuilds from it.
func (c *Controller) Crash() {
	if c.down {
		return
	}
	c.down = true
	c.gen++
	c.Stop()
	c.rpc.SetDown(true)
	c.ob.Event(c.loop.Now(), "ctrl-down", 0, 0, "gen=%d", c.gen)
	for id, v := range c.vnics {
		c.vnics[id] = &vnicState{VNICInfo: v.VNICInfo}
	}
	for _, n := range c.nodes {
		n.fronted = make(map[uint32]bool)
		n.pendingRemoval = make(map[uint32]uint64)
		n.down = false
		n.cpuUtil, n.memUtil, n.remoteShare = 0, 0, 0
		n.lastLocal, n.lastRemote = 0, 0
	}
	c.badLinks = make(map[packet.IPv4]map[packet.IPv4]sim.Time)
	c.bufferedEvents = nil
	c.recoverWait = 0
}

// ControllerUp reports process liveness; the policy loop backs its
// ticks off while this is false.
func (c *Controller) ControllerUp() bool { return !c.down }

// Recoveries counts completed Recover calls.
func (c *Controller) Recoveries() uint64 {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.recoveries
}

// LastRecovery reports the most recent recovery's start and end times.
// end is zero (and ok still true) while reconciliation is in flight.
func (c *Controller) LastRecovery() (start, end sim.Time, ok bool) {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.recoverStart, c.recoveredAt, c.recoveries > 0
}

// DupSideEffects sums duplicate side-effect applications observed by
// every agent — journal replay must never re-run an op the dead
// incarnation already landed, so a chaos invariant pins this at zero.
// A sum does not depend on map order, so the walk sorts nothing.
func (c *Controller) DupSideEffects() uint64 {
	total := c.gwAgent.Stats.DupSideEffects
	for _, n := range c.nodes {
		total += n.agent.Stats.DupSideEffects
	}
	return total
}

// --- Recovery ---------------------------------------------------------

// RecoverOpts tunes Recover.
type RecoverOpts struct {
	// SkipReconcile replays the journal but skips the live-world
	// reconciliation, blindly rolling back every open intent instead of
	// asking the gateway whether it committed. This is the negative
	// control: a commit that landed at the gateway before the crash
	// gets its FE tables torn out from under live routing, which the
	// chaos no-blackhole invariant must catch.
	SkipReconcile bool
}

// openIntent is a prepared-but-unresolved transaction found at replay.
type openIntent struct {
	kind    txnKind
	epoch   uint64
	targets []packet.IPv4
	pinned  bool
}

// Recover rebuilds a crashed controller: replay the journal into fresh
// state, restart the loops, drain buffered monitor declarations, and
// reconcile every vNIC against the gateway and its home BE over acked
// RPCs. Committed-but-unjournaled flips are adopted and re-pushed at a
// fresh epoch; uncommitted prepares are rolled back. Recovery is
// complete (LastRecovery's end stamped) when every vNIC's chain has
// settled.
func (c *Controller) Recover(opts RecoverOpts) error {
	if !c.down {
		return errors.New("controller: Recover called on a live controller")
	}
	if c.journal == nil {
		return errors.New("controller: no journal attached")
	}
	now := c.loop.Now()
	c.statMu.Lock()
	c.recoveries++
	c.recoverStart = now
	c.recoveredAt = 0
	c.statMu.Unlock()
	recs, err := c.journal.Replay()
	if err != nil {
		return err
	}
	c.down = false
	c.rpc.SetDown(false)
	c.ob.Event(now, "ctrl-recover", 0, 0, "records=%d journal_bytes=%d", len(recs), c.journal.SizeBytes())
	open := c.applyReplay(recs)
	c.Start()
	buffered := c.bufferedEvents
	c.bufferedEvents = nil
	for _, ev := range buffered {
		switch ev.kind {
		case evNodeDown:
			c.NodeDown(ev.a)
		case evNodeUp:
			c.NodeUp(ev.a)
		case evLinkDown:
			c.LinkDown(ev.a, ev.b)
		}
	}
	if opts.SkipReconcile {
		for _, id := range c.sortedVNICs() {
			oi, ok := open[id]
			if !ok {
				continue
			}
			for _, fa := range oi.targets {
				c.rollbackFE(c.vnics[id], fa, oi.epoch)
			}
		}
		c.finishRecovery()
		return nil
	}
	for _, id := range c.sortedVNICs() {
		c.reconcileVNIC(c.vnics[id], open[id])
	}
	if c.recoverWait == 0 {
		c.finishRecovery()
	}
	return nil
}

// applyReplay folds journal records into the (freshly wiped) world and
// returns the per-vNIC open intents left unresolved at crash time.
func (c *Controller) applyReplay(recs []journal.Record) map[uint32]*openIntent {
	open := make(map[uint32]*openIntent)
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case journal.KindPlacement:
			v, ok := c.vnics[r.VNIC]
			if !ok {
				continue
			}
			v.offloaded = r.Offloaded
			v.pinned = r.Pinned
			v.fes = append([]packet.IPv4(nil), r.FEs...)
			v.staleFEs = append([]packet.IPv4(nil), r.Stale...)
			v.retryAt = sim.Time(r.RetryAt)
			v.lastScale = sim.Time(r.LastScale)
			if r.Epoch > v.epoch {
				v.epoch = r.Epoch
			}
		case journal.KindIntent:
			v, ok := c.vnics[r.VNIC]
			if !ok {
				continue
			}
			if r.Epoch > v.epoch {
				v.epoch = r.Epoch
			}
			kind := txnOffload
			switch r.Txn {
			case journal.TxnScaleOut:
				kind = txnScaleOut
			case journal.TxnFallback:
				kind = txnFallback
			}
			open[r.VNIC] = &openIntent{
				kind: kind, epoch: r.Epoch,
				targets: append([]packet.IPv4(nil), r.FEs...),
				pinned:  r.Pinned,
			}
		case journal.KindResolve:
			if oi, ok := open[r.VNIC]; ok && oi.epoch == r.Epoch {
				delete(open, r.VNIC)
			}
		case journal.KindNode:
			if n, ok := c.nodes[r.Node]; ok {
				n.down = r.Down
			}
		case journal.KindRemoval:
			n, ok := c.nodes[r.Node]
			if !ok {
				continue
			}
			if r.Done {
				if n.pendingRemoval[r.VNIC] <= r.Epoch {
					delete(n.pendingRemoval, r.VNIC)
				}
			} else {
				n.park(r.VNIC, r.Epoch)
			}
		}
		// KindPolicy records belong to the policy engine's Restore.
	}
	for _, id := range c.sortedVNICs() {
		v := c.vnics[id]
		v.degraded = false // recomputed by the repair loop
		if v.offloaded {
			for _, fa := range v.fes {
				if n, ok := c.nodes[fa]; ok {
					n.fronted[id] = true
				}
			}
		} else if len(v.fes) > 0 {
			// A fallback that committed dirty pre-crash: the gateway may
			// still steer at the old FEs (dirtiness is not journaled).
			// Force a home re-push before the deferred cleanup can tear
			// their tables down.
			v.dirty = true
		}
	}
	// Re-baseline the cycle counters so the first post-recovery tick
	// does not read the entire pre-crash history as one window.
	for _, addr := range c.sortedNodeAddrs() {
		n := c.nodes[addr]
		n.lastLocal, n.lastRemote = n.vs.CyclesLocal(), n.vs.CyclesRemote()
	}
	return open
}

// reconcileVNIC settles one vNIC against the live world: the gateway
// query resolves any open intent and folds the installed epoch, the
// home-BE query folds its epoch, and committed state is re-pushed at a
// fresh epoch so every endpoint converges on the recovered view.
func (c *Controller) reconcileVNIC(v *vnicState, oi *openIntent) {
	c.recoverWait++
	v.inProgress = true
	c.query(c.gwAgent.Addr(), &ctrlrpc.Request{Op: ctrlrpc.OpQueryGateway, VNIC: v.VNIC}, func(rep *ctrlrpc.Reply, err error) {
		keep := false
		if oi != nil {
			keep = c.resolveRecovered(v, oi, rep, err)
		} else if err == nil && rep != nil && rep.Epoch > v.epoch {
			v.epoch = rep.Epoch
		}
		hn, hok := c.nodes[v.Home]
		if !hok || hn.down {
			c.finishVNICRecovery(v, keep)
			return
		}
		c.query(v.Home, &ctrlrpc.Request{Op: ctrlrpc.OpQueryVNIC, VNIC: v.VNIC}, func(rep2 *ctrlrpc.Reply, err2 error) {
			if err2 == nil && rep2 != nil && rep2.Epoch > v.epoch {
				v.epoch = rep2.Epoch
			}
			c.finishVNICRecovery(v, keep)
		})
	})
}

// resolveRecovered completes or aborts one open intent using gateway
// evidence: an installed epoch at or past the intent's means the
// commit landed (the gateway's FE list is exactly the acked-good
// subset the dead incarnation committed). Returns whether the vNIC
// must stay inProgress (a deferred fallback teardown owns it).
func (c *Controller) resolveRecovered(v *vnicState, oi *openIntent, rep *ctrlrpc.Reply, err error) bool {
	committed := err == nil && rep != nil && rep.Epoch >= oi.epoch
	if rep != nil && rep.Epoch > v.epoch {
		v.epoch = rep.Epoch
	}
	c.ob.Event(c.loop.Now(), "recover-intent", v.Home, v.VNIC,
		"kind=%d epoch=%d committed=%v", oi.kind, oi.epoch, committed)
	switch oi.kind {
	case txnOffload, txnScaleOut:
		if committed {
			if oi.kind == txnOffload {
				v.pinned = oi.pinned
			}
			c.adopt(v, oi.kind, oi.epoch, nil, rep.Addrs)
			return false
		}
		c.Stats.Aborts++
		c.journalResolve(v.VNIC, oi.epoch, false, nil)
		if oi.kind == txnScaleOut {
			// Pool membership is unchanged; teardown spares any target
			// that is a committed member.
			for _, fa := range oi.targets {
				c.rollbackFE(v, fa, oi.epoch)
			}
			return false
		}
		// Aborted offload: the BE may have applied OffloadStart before
		// the crash, so the installs go through the unknown-BE path —
		// parked as stale and torn down only after the BE acks an abort.
		v.retryAt = c.loop.Now() + offloadRetryCooldown
		v.staleFEs = mergeAddrs(v.staleFEs, oi.targets)
		c.journalPlacement(v)
		c.reconcileStale(v)
		return false
	default: // txnFallback
		if !committed {
			// The gateway still steers at the pool; the BE may hold
			// reinstalled tables — safe dual state, vNIC stays offloaded.
			c.Stats.Aborts++
			c.journalResolve(v.VNIC, oi.epoch, false, nil)
			return false
		}
		return c.commitFallback(v, oi.epoch, false)
	}
}

// finishVNICRecovery closes one vNIC's chain: committed (or
// force-dirtied) state is re-pushed at a fresh epoch — strictly above
// anything the dead incarnation installed, thanks to the epoch folds —
// and the recovery completes when the last chain settles.
func (c *Controller) finishVNICRecovery(v *vnicState, keepInProgress bool) {
	if !keepInProgress {
		v.inProgress = false
	}
	if v.offloaded {
		c.pushConfig(v)
		c.pruneDown(v)
	} else if v.dirty {
		c.pushConfig(v)
	}
	c.recoverDone()
}

func (c *Controller) recoverDone() {
	c.recoverWait--
	if c.recoverWait == 0 {
		c.finishRecovery()
	}
}

func (c *Controller) finishRecovery() {
	now := c.loop.Now()
	c.statMu.Lock()
	c.recoveredAt = now
	start := c.recoverStart
	c.statMu.Unlock()
	c.ob.Event(now, "ctrl-recovered", 0, 0, "took_ms=%.1f", (now - start).Millis())
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
