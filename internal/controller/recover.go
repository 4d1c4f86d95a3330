// Crash recovery is replay into step. Recover feeds the journal to
// step a record at a time: placements, node health and parked removals
// overwrite state, and an intent with no resolve becomes a transaction
// of the vNIC again, held in recovered. Then every vNIC asks the gateway
// what it holds, and the answer has three values:
//   - known committed (its epoch reached the intent's): the recovered
//     transaction commits, adopting the acked-good subset it holds;
//   - known not committed: it aborts — an offload's installs park as
//     stale until the BE acks an abort;
//   - unknown (the query timed out): nothing is decided and the vNIC
//     asks again. Rollback and adopt are defined only on a known answer.
//
// A home-BE query folds its epoch in, and the committed state is
// re-pushed at a fresh epoch. Recovery is complete when every vNIC has.
package controller

import (
	"slices"

	"nezha/internal/ctrlrpc"
	"nezha/internal/journal"
	"nezha/internal/packet"
	"nezha/internal/sim"
)

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

// --- Journal records ----------------------------------------------------

func placementRecord(v *vnicState) journal.Record {
	return journal.Record{
		Kind: journal.KindPlacement, VNIC: v.VNIC, Epoch: v.epoch,
		Offloaded: v.offloaded, Pinned: v.pinned,
		FEs:     append([]packet.IPv4(nil), v.fes...),
		Stale:   append([]packet.IPv4(nil), v.staleFEs...),
		RetryAt: int64(v.retryAt), LastScale: int64(v.lastScale),
	}
}

// journalTxn is each txnKind's journal code.
var journalTxn = [...]uint8{journal.TxnOffload, journal.TxnScaleOut, journal.TxnFallback}

func intentRecord(v *vnicState, tx *txn) journal.Record {
	return journal.Record{
		Kind: journal.KindIntent, VNIC: v.VNIC, Epoch: tx.epoch,
		Txn: journalTxn[tx.kind], Pinned: tx.pinned,
		FEs: append([]packet.IPv4(nil), tx.targets...),
	}
}

// journalRecord emits r when a journal is attached.
func (c *Controller) journalRecord(r journal.Record) {
	if c.wal {
		c.emit(effect{kind: fxJournal, rec: r})
	}
}

// journalPlacement journals v's placement, building the record only
// when a journal is attached.
func (c *Controller) journalPlacement(v *vnicState) {
	if c.wal {
		c.journalRecord(placementRecord(v))
	}
}

func (c *Controller) journalResolve(vnic uint32, epoch uint64, committed bool, fes []packet.IPv4) {
	c.journalRecord(journal.Record{Kind: journal.KindResolve, VNIC: vnic, Epoch: epoch, Committed: committed, FEs: slices.Clone(fes)})
}

func (c *Controller) journalRemoval(node packet.IPv4, vnic uint32, epoch uint64, done bool) {
	c.journalRecord(journal.Record{Kind: journal.KindRemoval, Node: node, VNIC: vnic, Epoch: epoch, Done: done})
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
	for _, addr := range c.nodeAddrsInto(nil) {
		n := c.nodes[addr]
		if n.down {
			out = append(out, journal.Record{Kind: journal.KindNode, Node: addr, Down: true})
		}
		for _, id := range sortedIDs(n.pendingRemoval) {
			out = append(out, journal.Record{Kind: journal.KindRemoval, Node: addr, VNIC: id, Epoch: n.pendingRemoval[id]})
		}
	}
	if c.policy != nil {
		out = append(out, c.policy.Export()...)
	}
	return out
}

// --- Crash and replay ------------------------------------------------------

// wipe forgets everything a crash loses: placements, transactions,
// node health and meters, bad links, the policy engine's tracks.
func (c *Controller) wipe() {
	if c.policy != nil {
		c.policy.Forget()
	}
	for id, v := range c.vnics {
		c.vnics[id] = &vnicState{VNICInfo: v.VNICInfo}
	}
	for _, n := range c.nodes {
		*n = *newNode(n.view)
	}
	c.badLinks = make(map[packet.IPv4]map[packet.IPv4]sim.Time)
	c.recoverWait = 0
}

// replay folds one journal record into the wiped world. Records that
// cannot describe this world are ignored: an intent or placement for
// an unknown vNIC or naming an unknown node, a node or removal record
// for an unknown node, a placement whose epoch regresses the vNIC's, a
// policy record when no policy engine is set.
func (c *Controller) replay(r *journal.Record) {
	v := c.vnics[r.VNIC]
	if v != nil && !(c.known(r.FEs) && c.known(r.Stale)) {
		v = nil
	}
	switch r.Kind {
	case journal.KindPlacement:
		if v == nil || r.Epoch < v.epoch {
			return
		}
		v.offloaded = r.Offloaded
		v.pinned = r.Pinned
		v.fes = append([]packet.IPv4(nil), r.FEs...)
		v.staleFEs = append([]packet.IPv4(nil), r.Stale...)
		v.retryAt = sim.Time(r.RetryAt)
		v.lastScale = sim.Time(r.LastScale)
		v.epoch = r.Epoch
	case journal.KindIntent:
		if v == nil {
			return
		}
		v.epoch = max(v.epoch, r.Epoch)
		kind := txnKind(max(0, slices.Index(journalTxn[:], r.Txn))) // unknown codes: offload
		// Its prepare phase died with the old incarnation: resolved, so
		// no ack or deadline touches it.
		v.recovered = &txn{
			kind: kind, epoch: r.Epoch, pinned: r.Pinned,
			targets:  append([]packet.IPv4(nil), r.FEs...),
			resolved: true, recovered: true,
		}
	case journal.KindResolve:
		if v != nil && v.recovered != nil && v.recovered.epoch == r.Epoch {
			v.recovered = nil
		}
	case journal.KindNode:
		if n, ok := c.nodes[r.Node]; ok {
			n.down = r.Down
		}
	case journal.KindRemoval:
		n, ok := c.nodes[r.Node]
		switch {
		case !ok:
		case !r.Done:
			n.park(r.VNIC, r.Epoch)
		case n.pendingRemoval[r.VNIC] <= r.Epoch:
			delete(n.pendingRemoval, r.VNIC)
		}
	case journal.KindPolicy:
		if v != nil && c.policy != nil {
			c.policy.Restore(r)
		}
	}
}

// known reports whether every address names a registered node.
func (c *Controller) known(addrs []packet.IPv4) bool {
	for _, a := range addrs {
		if c.nodes[a] == nil {
			return false
		}
	}
	return true
}

// replayed derives what the journal does not hold: fronted maps from
// the pools, and a re-baseline of the cycle counters — the nodes' and
// the policy engine's — so the first tick does not read the whole
// pre-crash history as one window.
func (c *Controller) replayed(samples []sample) {
	for _, id := range c.sortedVNICs() {
		v := c.vnics[id]
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
	for _, s := range samples {
		if n, ok := c.nodes[s.addr]; ok {
			n.lastLocal, n.lastRemote = s.local, s.remote
		}
	}
	if c.policy != nil {
		c.policy.Rebase(c.now, c.loads())
	}
}

// --- Reconciliation -------------------------------------------------------

// reconcile starts every vNIC's reconciliation: held (inProgress) until
// it re-pushed, it asks the gateway first. skip is the negative
// control: recovered transactions are rolled back blind.
func (c *Controller) reconcile(skip bool) {
	for _, id := range c.sortedVNICs() {
		v := c.vnics[id]
		if !skip {
			c.recoverWait++
			v.inProgress = true
			c.queryGateway(v)
		} else if tx := v.recovered; tx != nil {
			v.recovered = nil
			for _, fa := range tx.targets {
				c.rollbackFE(v, fa, tx.epoch)
			}
		}
	}
	if c.recoverWait == 0 {
		c.finishRecovery()
	}
}

func (c *Controller) queryGateway(v *vnicState) {
	c.emit(effect{kind: fxQuery, to: c.cfg.GatewayAddr,
		req: &ctrlrpc.Request{Op: ctrlrpc.OpQueryGateway, VNIC: v.VNIC}, then: event{kind: evGatewayAnswer, vnic: v.VNIC}})
}

// gatewayAnswer settles v's recovered transaction, if any, on a known
// answer and asks again on an unknown one; then the home BE is asked
// for its epoch.
func (c *Controller) gatewayAnswer(v *vnicState, rep *ctrlrpc.Reply, err error) {
	keep := false
	if tx := v.recovered; tx != nil {
		if err != nil || rep == nil {
			c.queryGateway(v)
			return
		}
		v.recovered = nil
		committed := rep.Epoch >= tx.epoch
		v.epoch = max(v.epoch, rep.Epoch)
		c.note("recover-intent", v.Home, v.VNIC, "kind=%d epoch=%d committed=%v", tx.kind, tx.epoch, committed)
		if committed {
			// The gateway's FE list is exactly the acked-good subset the
			// dead incarnation committed. A fallback's retire holds the
			// vNIC past its reconciliation.
			tx.set = rep.Addrs
			c.commit(v, tx, false)
			keep = tx.kind == txnFallback
		} else {
			c.abort(v, tx, tx.kind == txnOffload)
		}
	} else if err == nil && rep != nil {
		v.epoch = max(v.epoch, rep.Epoch)
	}
	if hn, ok := c.nodes[v.Home]; !ok || hn.down {
		c.reconciled(v, keep)
		return
	}
	c.emit(effect{kind: fxQuery, to: v.Home, req: &ctrlrpc.Request{Op: ctrlrpc.OpQueryVNIC, VNIC: v.VNIC},
		then: event{kind: evHomeAnswer, vnic: v.VNIC, flag: keep}})
}

// reconciled closes one vNIC's reconciliation: committed (or
// force-dirtied) state is re-pushed at a fresh epoch — strictly above
// anything the dead incarnation installed, thanks to the epoch folds —
// and the recovery completes when the last vNIC settles.
func (c *Controller) reconciled(v *vnicState, keep bool) {
	if !keep {
		v.inProgress = false
	}
	if v.offloaded {
		c.pushConfig(v, 0, false)
		c.pruneDown(v)
	} else if v.dirty {
		c.pushConfig(v, 0, false)
	}
	if c.recoverWait--; c.recoverWait == 0 {
		c.finishRecovery()
	}
}

func (c *Controller) finishRecovery() {
	c.statMu.Lock()
	c.recoveredAt = c.now
	start := c.recoverStart
	c.statMu.Unlock()
	c.note("ctrl-recovered", 0, 0, "took_ms=%.1f", (c.now - start).Millis())
}
