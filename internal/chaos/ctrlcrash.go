package chaos

import (
	"fmt"

	"nezha/internal/controller"
	"nezha/internal/packet"
	"nezha/internal/sim"
)

// This file extends the fault engine to the one component PRs 1-2 left
// outside the failure domain: the controller itself. A crash episode
// kills the controller process (Controller.Crash — loops stop, RPC
// abandoned, memory wiped) and revives it after the outage through
// Controller.Recover, which replays the journal and reconciles against
// the live world. While the controller is down, agents keep serving
// the last committed config and the monitor's declarations buffer —
// exactly the window the crash-recovery invariants below watch.

// ctrlOutage records one controller crash/revive episode for the
// recovery-bound invariant and the failover-bound deadline adjustment.
type ctrlOutage struct {
	start    sim.Time
	reviveAt sim.Time
	// recoverErr is a Recover() failure at revive time (nil otherwise).
	recoverErr error
	// revived flips when the revive event has run.
	revived bool
	// judged marks episodes the recovery-bound invariant has evaluated.
	judged bool
}

// SetCtrlReviveHook installs a callback run at revive time, immediately
// before Controller.Recover. The scenario harness uses it to rebuild
// the policy loop's half of the crashed process: restore the engine's
// cooldown state from the journal and hand the loop a freshly primed
// attribution reader.
func (e *Engine) SetCtrlReviveHook(fn func(now sim.Time)) { e.ctrlReviveHook = fn }

// ArmControllerCrash schedules one controller crash at time at, with
// revive-and-recover after outage. opts passes through to Recover —
// campaigns set SkipReconcile for the negative control that must trip
// the no-blackhole invariant.
func (e *Engine) ArmControllerCrash(at, outage sim.Time, opts controller.RecoverOpts) {
	if e.sys.Ctrl == nil {
		return
	}
	e.sys.Loop.Schedule(at-e.sys.Loop.Now(), func() {
		e.crashCtrl(outage, opts)
	})
}

// ArmControllerCrashOnPrepare arms a one-shot controller crash aimed at
// the recovery path's hardest window: the gap between journaling a txn
// intent and resolving it. On the first prepare the controller starts,
// the crash lands after a short random delay — across seeds this
// samples both sides of the commit point, so recovery must sometimes
// roll the prepare back and sometimes adopt a gateway flip the dead
// incarnation never heard the ack for.
//
// Uses the controller's single prepare-hook slot; do not combine with
// ArmMidPushKill in one campaign.
func (e *Engine) ArmControllerCrashOnPrepare(outage sim.Time, opts controller.RecoverOpts) {
	ctrl := e.sys.Ctrl
	if ctrl == nil {
		return
	}
	armed := true
	ctrl.SetPrepareHook(func(vnic uint32, targets []packet.IPv4) {
		if !armed {
			return
		}
		armed = false
		delay := sim.Time(e.rng.Float64() * float64(50*sim.Millisecond))
		e.sys.Loop.Schedule(delay, func() {
			e.crashCtrl(outage, opts)
		})
	})
}

// ArmControllerCrashAtCommitGap crashes the controller in the exact
// window where a crash is least forgivable: the gateway has installed
// vnic's new epoch but the controller has not yet journaled the
// resolve (the gateway-flip ack is still on the wire). A loop observer
// watches for the gateway epoch moving past its starting point while
// the controller still considers the vNIC un-offloaded — precisely the
// commit gap — and schedules the crash at zero delay, which the event
// loop runs before the in-flight ack can land. Recovery then holds an
// open intent whose commit DID reach the world: reconciliation must
// adopt it, and the SkipReconcile negative control, which blindly
// rolls it back, must blackhole the gateway's live route.
func (e *Engine) ArmControllerCrashAtCommitGap(vnic uint32, outage sim.Time, opts controller.RecoverOpts) {
	ctrl, gw := e.sys.Ctrl, e.sys.GW
	if ctrl == nil || gw == nil {
		return
	}
	base := gw.Epoch(vnic)
	armed := true
	e.sys.Loop.Observe(func(now sim.Time) {
		if !armed || !ctrl.ControllerUp() {
			return
		}
		if gw.Epoch(vnic) > base && !ctrl.Offloaded(vnic) {
			armed = false
			// Observers must not mutate the world directly; a zero-delay
			// event still beats the gateway ack (scheduled a fabric
			// latency ahead).
			e.sys.Loop.Schedule(0, func() {
				e.crashCtrl(outage, opts)
			})
		}
	})
}

// crashCtrl executes one crash/revive episode.
func (e *Engine) crashCtrl(outage sim.Time, opts controller.RecoverOpts) {
	ctrl := e.sys.Ctrl
	if ctrl == nil || !ctrl.ControllerUp() {
		return // overlapping schedule; the first episode governs
	}
	now := e.sys.Loop.Now()
	e.ob.Event(now, "chaos-ctrl-crash", 0, 0, "outage=%v skip_reconcile=%v", outage, opts.SkipReconcile)
	ctrl.Crash()
	o := &ctrlOutage{start: now, reviveAt: now + outage}
	e.ctrlOutages = append(e.ctrlOutages, o)
	e.sys.Loop.Schedule(outage, func() {
		if e.ctrlReviveHook != nil {
			e.ctrlReviveHook(e.sys.Loop.Now())
		}
		o.recoverErr = ctrl.Recover(opts)
		o.revived = true
	})
}

// ctrlDeadline stretches a failover-bound deadline past any controller
// outage that overlaps it: declarations buffered while the controller
// is down are only drained at recovery, so the rebalance half of the
// bound restarts from the recovery's end. The second return is true
// while an overlapping recovery is still in flight (judgment must
// wait).
func (e *Engine) ctrlDeadline(start, deadline sim.Time, window sim.Time) (sim.Time, bool) {
	for _, o := range e.ctrlOutages {
		if o.start > deadline {
			continue // outage began after the bound already expired
		}
		_, end, ok := e.sys.Ctrl.LastRecovery()
		if !o.revived || !ok || end == 0 {
			return deadline, true // recovery in flight: not judgeable yet
		}
		if end >= start && end+window > deadline {
			deadline = end + window
		}
	}
	return deadline, false
}

// --- Crash-recovery invariants ----------------------------------------

type ctrlEpochMonotonic struct {
	sys  System
	last map[uint32]uint64
}

// CtrlEpochMonotonic checks that a vNIC's config epoch, as the
// controller reports it, never moves backward — including across a
// crash/recover cycle. The journal is written before any RPC that
// could install an epoch, so replay must always land at or above
// anything the dead incarnation pushed; a regression means a mutation
// reached the world unjournaled. Checks are suspended while the
// controller is down (Crash wipes the in-memory epochs; the durable
// ones are the journal's business until Recover replays them).
func CtrlEpochMonotonic(sys System) Invariant {
	return &ctrlEpochMonotonic{sys: sys, last: make(map[uint32]uint64)}
}

func (c *ctrlEpochMonotonic) Name() string { return "ctrl-epoch-monotonic" }

func (c *ctrlEpochMonotonic) Check(now sim.Time) error {
	if !c.sys.Ctrl.ControllerUp() {
		return nil
	}
	var err error
	c.sys.GW.Range(func(vnic uint32, addrs []packet.IPv4, epoch uint64) bool {
		cur := c.sys.Ctrl.Epoch(vnic)
		if last := c.last[vnic]; cur < last {
			err = fmt.Errorf("controller epoch for vNIC %d regressed from %d to %d (recovery lost a journaled epoch)",
				vnic, last, cur)
			return false
		}
		c.last[vnic] = cur
		return true
	})
	return err
}

type noDuplicateReplay struct{ sys System }

// NoDuplicateReplay checks that journal replay re-runs no side effect
// the dead incarnation already landed: every agent fingerprints the
// (op, vNIC, epoch) of each applied mutation against the request ID
// that first applied it, and a second application under a different ID
// is a duplicate. Recovery must converge by re-pushing at FRESH
// epochs, never by blindly re-issuing journaled operations.
func NoDuplicateReplay(sys System) Invariant { return &noDuplicateReplay{sys} }

func (c *noDuplicateReplay) Name() string { return "no-duplicate-replay" }

func (c *noDuplicateReplay) Check(now sim.Time) error {
	if n := c.sys.Ctrl.DupSideEffects(); n > 0 {
		return fmt.Errorf("%d duplicate side effect(s) applied across agents (journal replay re-ran committed work)", n)
	}
	return nil
}

// recoveryBound is the allowance for a revived controller to finish
// recovery: journal replay plus live-world reconciliation.
const recoveryBound = 5 * sim.Second

type ctrlRecoveryBound struct{ eng *Engine }

// CtrlRecoveryBound checks that every controller revival completes its
// recovery — journal replay, buffered-event drain, and per-vNIC
// reconciliation — within recoveryBound of the revive, and that
// Recover itself did not error.
func CtrlRecoveryBound(e *Engine) Invariant { return &ctrlRecoveryBound{eng: e} }

func (c *ctrlRecoveryBound) Name() string { return "ctrl-recovery-bound" }

func (c *ctrlRecoveryBound) Check(now sim.Time) error {
	for _, o := range c.eng.ctrlOutages {
		if o.judged {
			continue
		}
		if o.revived && o.recoverErr != nil {
			o.judged = true
			return fmt.Errorf("controller recovery at %v failed: %v", o.reviveAt, o.recoverErr)
		}
		deadline := o.reviveAt + recoveryBound
		if now < deadline {
			continue
		}
		o.judged = true
		_, end, ok := c.eng.sys.Ctrl.LastRecovery()
		if !o.revived || !ok || end == 0 || end > deadline {
			return fmt.Errorf("controller crashed at %v, revived at %v, but recovery had not completed by %v (bound %v)",
				o.start, o.reviveAt, deadline, recoveryBound)
		}
	}
	return nil
}
