package controller

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"nezha/internal/ctrlrpc"
	"nezha/internal/journal"
	"nezha/internal/packet"
	"nezha/internal/policy"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

// These tests drive step directly: no event loop, fabric or agents.
// The test plays the world, answering the calls, queries and timers
// step asks for.

// idleSwitch is a vSwitch as step sees it: same ToR, nothing resident.
type idleSwitch struct{}

func (idleSwitch) ToR() int                                 { return 0 }
func (idleSwitch) NumVNICs() int                            { return 0 }
func (idleSwitch) VNICLoads() []vswitch.VNICLoad            { return nil }
func (idleSwitch) Relocatable(func(uint32, uint64, uint64)) {}

// world is a step-only controller and the effects it asked for that
// the test has not answered yet.
type world struct {
	t       *testing.T
	c       *Controller
	now     sim.Time
	out     []effect         // the last step's effects
	pending []effect         // unanswered calls, queries and timers
	wal     []journal.Record // every record journaled, in order
}

// home is vNIC 42's BE; the FE candidates are 10.0.0.2 and up, picked
// in address order.
var home = ip(10, 0, 0, 1)

func fe(i byte) packet.IPv4 { return ip(10, 0, 0, 1+i) }

func newWorld(t *testing.T, nodes int, cfg Config) *world {
	c := newState(cfg, 1)
	c.wal = true
	for i := 1; i <= nodes; i++ {
		c.nodes[ip(10, 0, 0, byte(i))] = newNode(idleSwitch{})
	}
	c.vnics[42] = &vnicState{VNICInfo: VNICInfo{VNIC: 42, Home: home, MakeRules: mkRules(42)}}
	return &world{t: t, c: c}
}

func (w *world) v() *vnicState { return w.c.vnics[42] }

// do runs one event through step and files the effects that expect an
// answer.
func (w *world) do(ev event) error {
	ev.now = w.now
	fx, err := w.c.step(ev)
	w.out = append(w.out[:0], fx...)
	w.c.fx = w.c.fx[:0]
	for _, e := range w.out {
		switch {
		case e.kind == fxJournal:
			w.wal = append(w.wal, e.rec)
		case e.kind == fxCancel:
			w.pending = slices.DeleteFunc(w.pending, func(p effect) bool {
				return p.kind == fxTimer && p.then.kind == evDeadline && p.then.vnic == e.vnic
			})
		case e.kind == fxQuery, e.kind == fxTimer, e.kind == fxCall && e.then.kind != evNone:
			w.pending = append(w.pending, e)
		}
	}
	return err
}

// take removes and returns the first pending call or query of op to
// `to` (any address when 0).
func (w *world) take(op ctrlrpc.Op, to packet.IPv4) event {
	w.t.Helper()
	for i, e := range w.pending {
		if e.req != nil && e.req.Op == op && (to == 0 || e.to == to) {
			w.pending = slices.Delete(w.pending, i, i+1)
			return e.then
		}
	}
	w.t.Fatalf("no pending %v to %v; pending %v", op, to, w.pendingOps())
	return event{}
}

func (w *world) pendingOps() []string {
	var out []string
	for _, e := range w.pending {
		if e.req != nil {
			out = append(out, fmt.Sprintf("%v→%v", e.req.Op, e.to))
		} else {
			out = append(out, fmt.Sprintf("timer %d", e.then.kind))
		}
	}
	return out
}

// ack answers the first pending call of op to `to`.
func (w *world) ack(op ctrlrpc.Op, to packet.IPv4, err error) {
	w.t.Helper()
	then := w.take(op, to)
	then.err = err
	w.do(then)
}

// answer replies to the first pending query of op.
func (w *world) answer(op ctrlrpc.Op, rep *ctrlrpc.Reply, err error) {
	w.t.Helper()
	then := w.take(op, 0)
	then.rep, then.err = rep, err
	w.do(then)
}

// ackAll acks every pending call of op, in issue order.
func (w *world) ackAll(op ctrlrpc.Op) {
	for slices.ContainsFunc(w.pending, func(e effect) bool { return e.req != nil && e.req.Op == op }) {
		w.ack(op, 0, nil)
	}
}

// fire expires the first pending timer of kind.
func (w *world) fire(kind evKind) {
	w.t.Helper()
	for i, e := range w.pending {
		if e.kind == fxTimer && e.then.kind == kind {
			w.pending = slices.Delete(w.pending, i, i+1)
			w.do(e.then)
			return
		}
	}
	w.t.Fatalf("no pending timer %d", kind)
}

// sent returns the last step's calls of op to `to` (any when 0).
func (w *world) sent(op ctrlrpc.Op, to packet.IPv4) []*ctrlrpc.Request {
	var out []*ctrlrpc.Request
	for _, e := range w.out {
		if e.kind == fxCall && e.req.Op == op && (to == 0 || e.to == to) {
			out = append(out, e.req)
		}
	}
	return out
}

// offload runs vNIC 42's offload to commit with every answer a success.
func (w *world) offload() {
	w.t.Helper()
	if err := w.do(event{kind: evForceOffload, vnic: 42}); err != nil {
		w.t.Fatal(err)
	}
	w.ackAll(ctrlrpc.OpInstallFE)
	w.ack(ctrlrpc.OpOffloadStart, home, nil)
	w.ack(ctrlrpc.OpGatewaySet, 0, nil)
	if !w.v().offloaded {
		w.t.Fatalf("precondition: offload did not commit; pending %v", w.pendingOps())
	}
}

var errNack = fmt.Errorf("nack")

// ledgerSwitch is an idle vSwitch whose ledger has charged vNIC 42
// *rule slow-path cycles.
type ledgerSwitch struct {
	idleSwitch
	rule *uint64
}

func (s ledgerSwitch) Relocatable(fn func(uint32, uint64, uint64)) { fn(42, *s.rule, 0) }

// hot and cold are a 500 ms window's slow-path cycles at 1.0 and 0.02
// of withPolicy's 1 MHz BE budget.
const hot, cold = 500_000, 10_000

// withPolicy hands the world's decisions to an engine on a 1 MHz BE
// budget: offload at 0.7, fallback at 0.2, each sustained two windows,
// flips 5 s apart. It returns vNIC 42's ledger counter.
func (w *world) withPolicy() *uint64 {
	w.c.SetPolicy(policy.Config{
		Windows: 4, BECapacityHz: 1e6, FECapacityHz: 1e6, TargetUtil: 0.5,
		OffloadHigh: 0.7, FallbackLow: 0.2, MinFEs: 4, MaxFEs: 4,
		SustainWindows: 2, FlipCooldown: 5 * sim.Second, ScaleCooldown: sim.Second,
	})
	rule := new(uint64)
	w.c.nodes[home].view = ledgerSwitch{rule: rule}
	return rule
}

// policyTick closes a 500 ms window in which vNIC 42 burned cycles.
func (w *world) policyTick(rule *uint64, cycles uint64) {
	w.now += 500 * sim.Millisecond
	*rule += cycles
	w.do(event{kind: evTick})
}

// decided returns the engine's decisions of action a.
func (w *world) decided(a policy.Action) []policy.Decision {
	var out []policy.Decision
	for _, d := range w.c.Policy().Decisions() {
		if d.Action == a {
			out = append(out, d)
		}
	}
	return out
}

// loadedSwitch is a hot vSwitch as step sees it: its VNICLoads, in
// the order given.
type loadedSwitch struct{ loads []vswitch.VNICLoad }

func (loadedSwitch) ToR() int                                 { return 0 }
func (s loadedSwitch) NumVNICs() int                          { return len(s.loads) }
func (s loadedSwitch) VNICLoads() []vswitch.VNICLoad          { return slices.Clone(s.loads) }
func (loadedSwitch) Relocatable(func(uint32, uint64, uint64)) {}

// TestOffloadOrderBreaksTiesByVNIC gives a hot node three vNICs tied
// on the triggering resource, listed in two orders: the offloads the
// tick starts, and their order, must not depend on the listing. Each
// started vNIC's projected relief leaves room for exactly two.
func TestOffloadOrderBreaksTiesByVNIC(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cpu, mem float64
		load     vswitch.VNICLoad
	}{
		{"cpu", 0.9, 0.1, vswitch.VNICLoad{Cycles: 1000, RuleBytes: 1 << 20}},
		{"memory", 0.1, 0.9, vswitch.VNICLoad{Cycles: 1000, RuleBytes: 1 << 28}},
	} {
		var first []uint32
		for _, ids := range [][]uint32{{41, 42, 43}, {43, 42, 41}} {
			w := newWorld(t, 7, Config{})
			var loads []vswitch.VNICLoad
			for _, id := range ids {
				l := tc.load
				l.VNIC = id
				loads = append(loads, l)
				w.c.vnics[id] = &vnicState{VNICInfo: VNICInfo{VNIC: id, Home: home, MakeRules: mkRules(id)}}
			}
			w.c.nodes[home].view = loadedSwitch{loads}
			w.do(event{kind: evTick, samples: []sample{{addr: home, cpu: tc.cpu, mem: tc.mem}}})
			var started []uint32
			for _, req := range w.sent(ctrlrpc.OpInstallFE, 0) {
				if !slices.Contains(started, req.VNIC) {
					started = append(started, req.VNIC)
				}
			}
			if !slices.Equal(started, []uint32{41, 42}) {
				t.Errorf("%s trigger, loads listed %v: started offloads of %v, want [41 42]", tc.name, ids, started)
			}
			if first != nil && !slices.Equal(started, first) {
				t.Errorf("%s trigger: listing %v started %v, the first listing %v", tc.name, ids, started, first)
			}
			first = started
		}
	}
}

// TestStepTable drives each §8 teardown rule, the transaction closes and
// the three recovery answers as event sequences through step.
func TestStepTable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		cfg   Config
		run   func(t *testing.T, w *world)
	}{
		{"rule 1: a member again keeps its tables", 7, Config{}, func(t *testing.T, w *world) {
			w.offload()
			// The BE loses FE 1: a graceful removal. Its push acks, and
			// the teardown waits out the learning interval.
			w.do(event{kind: evLinkDown, a: home, b: fe(1)})
			w.ack(ctrlrpc.OpGatewaySet, 0, nil)
			w.ackAll(ctrlrpc.OpInstallFE) // the replenishing scale-out
			w.ack(ctrlrpc.OpSetFEs, home, nil)
			w.ack(ctrlrpc.OpSetFEs, home, nil)
			w.ack(ctrlrpc.OpGatewaySet, 0, nil)
			// Past the bad-link TTL, a scale-out picks FE 1 again.
			w.now += badLinkTTL + sim.Second
			if err := w.do(event{kind: evScaleOut, vnic: 42, n: 1}); err != nil {
				t.Fatal(err)
			}
			w.ack(ctrlrpc.OpInstallFE, fe(1), nil)
			w.ack(ctrlrpc.OpSetFEs, home, nil)
			w.ack(ctrlrpc.OpGatewaySet, 0, nil)
			if !slices.Contains(w.v().fes, fe(1)) {
				t.Fatalf("precondition: FE 1 not re-adopted: %v", w.v().fes)
			}
			w.fire(evGrace)
			if got := w.sent(ctrlrpc.OpRemoveFE, fe(1)); len(got) != 0 {
				t.Fatalf("tables of a member torn down: %v", got)
			}
		}},
		{"rule 2: a retry waits for the gateway view", 8, Config{InitialFEs: 5, MinFEs: 4}, func(t *testing.T, w *world) {
			w.offload()
			w.do(event{kind: evLinkDown, a: home, b: fe(1)})
			w.ack(ctrlrpc.OpGatewaySet, 0, ctrlrpc.ErrTimeout) // parks FE 1
			w.do(event{kind: evRepair})                        // re-pushes the dirty pool
			if got := w.sent(ctrlrpc.OpRemoveFE, fe(1)); len(got) != 0 {
				t.Fatal("parked removal retried while the re-push is in flight")
			}
			w.ack(ctrlrpc.OpGatewaySet, 0, nil)
			w.do(event{kind: evRepair})
			if got := w.sent(ctrlrpc.OpRemoveFE, fe(1)); len(got) != 1 {
				t.Fatal("parked removal not retried once the gateway converged")
			}
		}},
		{"rule 3: an unconfirmed shrink parks", 8, Config{InitialFEs: 5, MinFEs: 4}, func(t *testing.T, w *world) {
			w.offload()
			w.do(event{kind: evLinkDown, a: home, b: fe(1)})
			shrink := w.v().epoch
			w.ack(ctrlrpc.OpGatewaySet, 0, ctrlrpc.ErrTimeout)
			if got := w.sent(ctrlrpc.OpRemoveFE, 0); len(got) != 0 {
				t.Fatal("removal sent although the gateway may still steer at the FE")
			}
			if ep, ok := w.c.nodes[fe(1)].pendingRemoval[42]; !ok || ep != shrink {
				t.Fatalf("removal not parked at the shrink's epoch %d: %v", shrink, w.c.nodes[fe(1)].pendingRemoval)
			}
			if !slices.ContainsFunc(w.out, func(e effect) bool { return e.kind == fxJournal && e.rec.Kind == journal.KindRemoval }) {
				t.Fatal("parked removal not journaled")
			}
		}},
		{"rule 4: a removal carries its shrink's epoch", 8, Config{InitialFEs: 5, MinFEs: 4}, func(t *testing.T, w *world) {
			w.offload()
			w.do(event{kind: evLinkDown, a: home, b: fe(1)})
			shrink := w.v().epoch
			w.do(event{kind: evNodeUp, a: home}) // a newer push overtakes the ack
			w.ack(ctrlrpc.OpGatewaySet, 0, nil)
			w.fire(evGrace)
			got := w.sent(ctrlrpc.OpRemoveFE, fe(1))
			if len(got) != 1 || got[0].Epoch != shrink || w.v().epoch == shrink {
				t.Fatalf("removal %v, want one at the shrink's epoch %d (vNIC at %d)", got, shrink, w.v().epoch)
			}
		}},
		{"prepare quorum met", 6, Config{PrepareQuorumFrac: 0.5}, func(t *testing.T, w *world) {
			w.do(event{kind: evForceOffload, vnic: 42})
			w.ack(ctrlrpc.OpInstallFE, 0, nil)
			w.ack(ctrlrpc.OpInstallFE, 0, errNack)
			w.ack(ctrlrpc.OpInstallFE, 0, nil)
			w.ack(ctrlrpc.OpInstallFE, 0, errNack)
			if got := w.sent(ctrlrpc.OpOffloadStart, home); len(got) != 1 || len(got[0].FEs) != 2 {
				t.Fatalf("commit %v, want OffloadStart with the 2 acked FEs", got)
			}
		}},
		{"prepare quorum missed", 6, Config{PrepareQuorumFrac: 0.5}, func(t *testing.T, w *world) {
			w.do(event{kind: evForceOffload, vnic: 42})
			w.ack(ctrlrpc.OpInstallFE, 0, nil)
			w.fire(evDeadline)
			if w.v().txn != nil || w.c.Stats.Aborts != 1 || len(w.sent(ctrlrpc.OpRemoveFE, 0)) != 4 {
				t.Fatalf("txn=%v aborts=%d removes=%d, want an abort rolling back all 4 targets",
					w.v().txn, w.c.Stats.Aborts, len(w.sent(ctrlrpc.OpRemoveFE, 0)))
			}
			if w.v().retryAt != w.now+offloadRetryCooldown {
				t.Fatal("aborted offload not cooling down")
			}
		}},
		{"BE-rejected scale-out commits dirty", 8, Config{}, func(t *testing.T, w *world) {
			w.offload()
			w.do(event{kind: evScaleOut, vnic: 42, n: 2})
			w.ackAll(ctrlrpc.OpInstallFE)
			w.ack(ctrlrpc.OpSetFEs, home, errNack)
			assertCommittedDirty(t, w, 6)
			if got := w.sent(ctrlrpc.OpGatewaySet, 0); len(got) != 0 {
				t.Fatal("gateway flipped after the BE rejected the set")
			}
		}},
		{"gateway-failed offload commits dirty", 6, Config{}, func(t *testing.T, w *world) {
			w.do(event{kind: evForceOffload, vnic: 42})
			w.ackAll(ctrlrpc.OpInstallFE)
			w.ack(ctrlrpc.OpOffloadStart, home, nil)
			w.ack(ctrlrpc.OpGatewaySet, 0, ctrlrpc.ErrTimeout)
			assertCommittedDirty(t, w, 4)
			if slices.ContainsFunc(w.pending, func(e effect) bool { return e.then.kind == evFinalize }) {
				t.Fatal("final stage armed while the gateway may still route at the BE")
			}
		}},
		{"scale-out commit keeps a concurrent removal", 8, Config{}, func(t *testing.T, w *world) {
			w.offload()
			w.do(event{kind: evScaleOut, vnic: 42, n: 2})
			w.ackAll(ctrlrpc.OpInstallFE)
			w.do(event{kind: evLinkDown, a: home, b: fe(1)}) // races the commit
			w.ack(ctrlrpc.OpSetFEs, home, nil)
			w.ack(ctrlrpc.OpGatewaySet, 0, nil)
			w.ack(ctrlrpc.OpGatewaySet, 0, nil)
			v := w.v()
			if v.txn != nil || slices.Contains(v.fes, fe(1)) || len(v.fes) != 5 || !v.dirty {
				t.Fatalf("pool %v dirty=%v, want the 5 FEs without FE 1, dirty for a re-push", v.fes, v.dirty)
			}
		}},
		{"recovery: gateway committed", 6, Config{}, func(t *testing.T, w *world) {
			recoverOpenOffload(w)
			w.answer(ctrlrpc.OpQueryGateway, &ctrlrpc.Reply{Epoch: 2, Addrs: []packet.IPv4{fe(1), fe(2)}}, nil)
			w.answer(ctrlrpc.OpQueryVNIC, &ctrlrpc.Reply{Epoch: 2}, nil)
			v := w.v()
			// The pool is adopted as the gateway holds it, and a fresh
			// scale-out replenishes it toward the floor.
			if !v.offloaded || !slices.Equal(v.fes, []packet.IPv4{fe(1), fe(2)}) || v.recovered != nil || v.txn == nil {
				t.Fatalf("offloaded=%v fes=%v txn=%+v, want the gateway's pool adopted", v.offloaded, v.fes, v.txn)
			}
			if got := w.sent(ctrlrpc.OpGatewaySet, 0); len(got) != 1 || got[0].Epoch != 3 {
				t.Fatalf("re-push %v, want one at a fresh epoch 3", got)
			}
			if _, end, _ := w.c.LastRecovery(); end != w.now {
				t.Fatal("recovery not complete")
			}
		}},
		{"recovery: gateway not committed", 6, Config{}, func(t *testing.T, w *world) {
			recoverOpenOffload(w)
			w.answer(ctrlrpc.OpQueryGateway, &ctrlrpc.Reply{Epoch: 1, Addrs: []packet.IPv4{home}}, nil)
			v := w.v()
			if v.offloaded || v.recovered != nil || len(v.staleFEs) != 4 || w.c.Stats.Aborts != 1 {
				t.Fatalf("offloaded=%v recovered=%v stale=%v, want an unknown-BE abort", v.offloaded, v.recovered, v.staleFEs)
			}
			if len(w.sent(ctrlrpc.OpOffloadAbort, home)) != 1 {
				t.Fatal("BE not asked to abort before the stale installs go")
			}
		}},
		{"recovery: gateway unknown asks again", 6, Config{}, func(t *testing.T, w *world) {
			recoverOpenOffload(w)
			w.answer(ctrlrpc.OpQueryGateway, nil, ctrlrpc.ErrTimeout)
			v := w.v()
			if v.recovered == nil || w.c.Stats.Aborts != 0 || len(v.staleFEs) != 0 {
				t.Fatalf("recovered=%v aborts=%d: a timed-out query decided the intent", v.recovered, w.c.Stats.Aborts)
			}
			if slices.ContainsFunc(w.out, func(e effect) bool { return e.kind == fxJournal }) {
				t.Fatal("a timed-out query journaled a resolution")
			}
			w.answer(ctrlrpc.OpQueryGateway, &ctrlrpc.Reply{Epoch: 2, Addrs: []packet.IPv4{fe(1)}}, nil)
			if !v.offloaded {
				t.Fatal("re-asked query's known answer not applied")
			}
		}},
		{"policy: a sustained hot load offloads", 7, Config{}, func(t *testing.T, w *world) {
			rule := w.withPolicy()
			w.policyTick(rule, hot)
			if got := w.sent(ctrlrpc.OpInstallFE, 0); len(got) != 0 || w.v().txn != nil {
				t.Fatalf("one hot window started an offload: %v", got)
			}
			w.policyTick(rule, hot)
			if got := w.sent(ctrlrpc.OpInstallFE, 0); len(got) != 4 || w.v().txn == nil || w.v().txn.kind != txnOffload {
				t.Fatalf("installs %v txn %+v, want the offload transaction preparing 4 FEs", got, w.v().txn)
			}
			if st := w.c.Policy().Stats; st.Steps != 2 || st.Applied != 1 || st.Rejected != 0 {
				t.Fatalf("engine stats %+v, want 2 steps and 1 applied decision", st)
			}
			// The intent is journaled before the installs leave, the
			// decision is noted, and the engine's cooldown follows.
			kinds := []string{}
			for _, e := range w.out {
				switch {
				case e.kind == fxJournal:
					kinds = append(kinds, e.rec.Kind.String())
				case e.kind == fxCall && e.req.Op == ctrlrpc.OpInstallFE && !slices.Contains(kinds, "install"):
					kinds = append(kinds, "install")
				case e.kind == fxEvent && e.name == "policy":
					kinds = append(kinds, "note")
				}
			}
			if want := []string{"intent", "install", "note", "policy"}; !slices.Equal(kinds, want) {
				t.Fatalf("effects %v, want %v", kinds, want)
			}
			w.ackAll(ctrlrpc.OpInstallFE)
			w.ack(ctrlrpc.OpOffloadStart, home, nil)
			w.ack(ctrlrpc.OpGatewaySet, 0, nil)
			if !w.v().offloaded || len(w.v().fes) != 4 {
				t.Fatalf("policy offload did not commit: fes %v", w.v().fes)
			}
		}},
		{"policy: a flip cooldown survives a crash", 7, Config{}, func(t *testing.T, w *world) {
			// crashCold offloads through the policy at 1 s, crashes and
			// replays the journal — without its policy records unless
			// keep — then feeds cold windows from 1.5 s to 4 s, inside the
			// flip cooldown, and returns the fallbacks decided.
			crashCold := func(w *world, keep bool) (*uint64, []policy.Decision) {
				rule := w.withPolicy()
				w.policyTick(rule, hot)
				w.policyTick(rule, hot)
				w.ackAll(ctrlrpc.OpInstallFE)
				w.ack(ctrlrpc.OpOffloadStart, home, nil)
				w.ack(ctrlrpc.OpGatewaySet, 0, nil)
				recs := slices.DeleteFunc(slices.Clone(w.wal), func(r journal.Record) bool {
					return !keep && r.Kind == journal.KindPolicy
				})
				w.c.wipe()
				for i := range recs {
					w.do(event{kind: evRecord, rec: &recs[i]})
				}
				w.do(event{kind: evReplayed})
				for range 6 {
					w.policyTick(rule, cold)
				}
				return rule, w.decided(policy.ActFallback)
			}
			if _, fell := crashCold(newWorld(t, 7, w.c.cfg), false); len(fell) == 0 {
				t.Fatal("without its policy records the recovered engine also held: the check is vacuous")
			}
			rule, fell := crashCold(w, true)
			if len(fell) != 0 {
				t.Fatalf("fallback at %v, inside the replayed flip cooldown (until 6 s)", fell[0].At)
			}
			for range 4 { // past the cooldown the sustained cold trigger lands
				w.policyTick(rule, cold)
			}
			if fell = w.decided(policy.ActFallback); len(fell) != 1 || fell[0].At < 6*sim.Second {
				t.Fatalf("fallbacks %v, want one once the cooldown ends at 6 s", fell)
			}
		}},
		{"two unknown-BE aborts keep both stale sets", 10, Config{}, func(t *testing.T, w *world) {
			w.do(event{kind: evForceOffload, vnic: 42})
			first := append([]packet.IPv4(nil), w.v().txn.targets...)
			w.ackAll(ctrlrpc.OpInstallFE)
			w.ack(ctrlrpc.OpOffloadStart, home, ctrlrpc.ErrTimeout)
			w.now += offloadRetryCooldown
			second := []packet.IPv4{fe(5), fe(6), fe(7), fe(8)}
			if err := w.do(event{kind: evOffloadTo, vnic: 42, addrs: second}); err != nil {
				t.Fatal(err)
			}
			w.ackAll(ctrlrpc.OpInstallFE)
			w.ack(ctrlrpc.OpOffloadStart, home, ctrlrpc.ErrTimeout)
			want := append(first, second...)
			if !slices.Equal(w.v().staleFEs, want) {
				t.Fatalf("stale %v, want both aborts' targets %v", w.v().staleFEs, want)
			}
			w.ack(ctrlrpc.OpOffloadAbort, home, errNack) // the first abort missed
			w.ack(ctrlrpc.OpOffloadAbort, home, nil)
			removed := map[packet.IPv4]bool{}
			for _, e := range w.out {
				if e.kind == fxCall && e.req.Op == ctrlrpc.OpRemoveFE {
					removed[e.to] = true
				}
			}
			for _, a := range want {
				if !removed[a] {
					t.Errorf("stale FE %v never torn down", a)
				}
			}
			if len(w.v().staleFEs) != 0 {
				t.Fatalf("stale set %v left after the BE acked the abort", w.v().staleFEs)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.InitialFEs == 0 {
				cfg.InitialFEs, cfg.MinFEs = 4, 4
			}
			tc.run(t, newWorld(t, tc.nodes, cfg))
		})
	}
}

func assertCommittedDirty(t *testing.T, w *world, fes int) {
	t.Helper()
	v := w.v()
	if v.txn != nil || !v.offloaded || !v.dirty || len(v.fes) != fes {
		t.Fatalf("txn=%v offloaded=%v dirty=%v fes=%v, want committed-dirty with %d FEs", v.txn, v.offloaded, v.dirty, v.fes, fes)
	}
	if !slices.ContainsFunc(w.out, func(e effect) bool { return e.kind == fxSpan && e.text == "committed-dirty" }) {
		t.Fatal("span not closed committed-dirty")
	}
}

// recoverOpenOffload replays a journal whose offload of vNIC 42 (epoch
// 2, FEs 1-4) was prepared but never resolved, and starts the
// reconciliation.
func recoverOpenOffload(w *world) {
	recs := []journal.Record{
		{Kind: journal.KindPlacement, VNIC: 42, Epoch: 1},
		{Kind: journal.KindIntent, VNIC: 42, Epoch: 2, Txn: journal.TxnOffload, FEs: []packet.IPv4{fe(1), fe(2), fe(3), fe(4)}},
	}
	for i := range recs {
		w.do(event{kind: evRecord, rec: &recs[i]})
	}
	w.do(event{kind: evReplayed})
	w.do(event{kind: evReconcile})
}

// FuzzJournalRecover replays arbitrary record streams into step and
// answers recovery's queries; nothing may panic, impossible records
// are ignored, and once every answer is known recovery completes with
// every pool drawn from registered nodes. jsonl is a journal dump (the
// seed is a real TestControllerCrashSoak campaign's); raw encodes
// further records six bytes each, and the answers.
func FuzzJournalRecover(f *testing.F) {
	soak, err := os.ReadFile("testdata/crash-soak-seed18.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(soak, []byte{})
	f.Add(soak, []byte{1, 4, 9, 2, 0, 0xff, 0, 0})
	f.Add([]byte{}, []byte{2, 3, 7, 0, 5, 0x0f, 1, 3, 7, 1, 5, 0x1f, 3, 3, 7, 0, 0, 1})
	f.Fuzz(fuzzRecover)
}

func fuzzRecover(t *testing.T, jsonl, raw []byte) {
	c := newState(DefaultConfig(), 1)
	c.wal = true
	var addrs []packet.IPv4
	for i := 1; i <= 24; i++ {
		a := packet.MakeIP(10, 1, 0, byte(i))
		addrs = append(addrs, a)
		c.nodes[a] = newNode(idleSwitch{})
	}
	for _, id := range []uint32{1, 2, 3, 100} {
		c.vnics[id] = &vnicState{VNICInfo: VNICInfo{VNIC: id, Home: addrs[id%24], MakeRules: mkRules(id)}}
	}
	var recs []journal.Record
	for sc := bufio.NewScanner(bytes.NewReader(jsonl)); sc.Scan(); {
		var r journal.Record
		if json.Unmarshal(sc.Bytes(), &r) == nil {
			recs = append(recs, r)
		}
	}
	for ; len(raw) >= 6; raw = raw[6:] {
		recs = append(recs, rawRecord(raw, addrs))
	}
	var fx []effect
	do := func(ev event) {
		out, _ := c.step(ev)
		fx = append(fx, out...)
		c.fx = c.fx[:0]
	}
	for i := range recs {
		do(event{kind: evRecord, rec: &recs[i]})
	}
	do(event{kind: evReplayed})
	do(event{kind: evReconcile})
	// Answer queries until none is left: raw's tail picks unknown,
	// committed or not for the gateway while it lasts, then "not".
	for round := 0; round < 64; round++ {
		var queries []effect
		for _, e := range fx {
			if e.kind == fxQuery {
				queries = append(queries, e)
			}
		}
		if len(queries) == 0 {
			break
		}
		fx = fx[:0]
		for _, q := range queries {
			ev := q.then
			ev.rep = &ctrlrpc.Reply{Epoch: uint64(round)}
			if q.req.Op == ctrlrpc.OpQueryGateway {
				pick := byte(2)
				if len(raw) > 0 {
					pick, raw = raw[0]%3, raw[1:]
				}
				switch pick {
				case 0:
					ev.rep, ev.err = nil, ctrlrpc.ErrTimeout
				case 1:
					ev.rep = &ctrlrpc.Reply{Epoch: 1 << 40, Addrs: addrs[:3]}
				}
			}
			do(ev)
		}
	}
	if _, end, _ := c.LastRecovery(); end != c.now || c.recoverWait != 0 {
		t.Fatalf("recovery incomplete: %d vNICs still reconciling", c.recoverWait)
	}
	for id, v := range c.vnics {
		if v.recovered != nil {
			t.Fatalf("vNIC %d: recovered intent never closed", id)
		}
		for _, a := range v.fes {
			if c.nodes[a] == nil {
				t.Fatalf("vNIC %d: pool member %v is no registered node", id, a)
			}
		}
	}
	// The recovered world keeps running.
	do(event{kind: evRepair})
	do(event{kind: evFallbackCheck})
}

// rawRecord decodes six fuzz bytes into a record: kind, vNIC (one of
// the four, or an unknown one), epoch, transaction kind, node (one of
// the 24, or an unknown one), and flags that also pick the FE list.
func rawRecord(b []byte, addrs []packet.IPv4) journal.Record {
	vnics := []uint32{1, 2, 3, 100, 7}
	node := packet.MakeIP(10, 9, 9, 9)
	if int(b[4]) < len(addrs) {
		node = addrs[b[4]]
	}
	r := journal.Record{
		Kind: journal.Kind(b[0] % 7), VNIC: vnics[int(b[1])%len(vnics)], Epoch: uint64(b[2]),
		Txn: b[3] % 4, Node: node,
		Offloaded: b[5]&1 != 0, Pinned: b[5]&2 != 0, Done: b[5]&4 != 0, Down: b[5]&8 != 0, Committed: b[5]&16 != 0,
	}
	for i := 0; i < int(b[5]>>5); i++ {
		r.FEs = append(r.FEs, addrs[(int(b[4])+i)%len(addrs)])
	}
	if b[5]&16 != 0 {
		r.Stale = append(r.Stale, node)
	}
	return r
}
