package ctrlrpc

import (
	"errors"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

func ip(a, b, c, d byte) packet.IPv4 { return packet.MakeIP(a, b, c, d) }

type rig struct {
	loop  *sim.Loop
	fab   *fabric.Fabric
	gw    *fabric.Gateway
	t     *Transport
	vs    *vswitch.VSwitch
	agent *Agent
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{loop: sim.NewLoop(7)}
	r.fab = fabric.New(r.loop)
	r.gw = fabric.NewGateway(r.loop)
	r.t = NewTransport(r.loop, r.fab, sim.NewRand(11), ip(10, 0, 0, 253))
	r.vs = vswitch.New(r.loop, r.fab, r.gw, vswitch.Config{Addr: ip(10, 0, 0, 1)})
	r.agent = NewAgent(r.loop, r.fab, r.t, r.vs)
	return r
}

func mkRules(vnic uint32) *tables.RuleSet { return tables.NewRuleSet(vnic, 1) }

func TestCallAckRoundTrip(t *testing.T) {
	r := newRig(t)
	var got error
	called := false
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpInstallFE, VNIC: 7, Epoch: 1, Rules: mkRules(7), BE: ip(10, 0, 0, 2),
	}, func(err error) { got = err; called = true })
	r.loop.Run(2 * sim.Second)
	if !called {
		t.Fatal("done never invoked")
	}
	if got != nil {
		t.Fatalf("done(%v), want nil", got)
	}
	if !r.vs.HostsFE(7) {
		t.Fatal("FE instance not installed at the agent's vSwitch")
	}
	if r.t.Stats.Acked != 1 || r.t.Stats.Sent != 1 || r.t.Stats.Retries != 0 {
		t.Fatalf("transport stats = %+v, want one clean acked send", r.t.Stats)
	}
	if r.agent.Stats.Applied != 1 || r.agent.Stats.Duplicates != 0 {
		t.Fatalf("agent stats = %+v, want one apply, no duplicates", r.agent.Stats)
	}
}

func TestNackPropagatesReceiverError(t *testing.T) {
	r := newRig(t)
	// OpSetFEs against a vNIC the vSwitch does not host nacks.
	var got error
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpSetFEs, VNIC: 99, Epoch: 1, FEs: []packet.IPv4{ip(10, 0, 0, 2)},
	}, func(err error) { got = err })
	r.loop.Run(2 * sim.Second)
	if got == nil {
		t.Fatal("want the receiver's error, got nil")
	}
	if r.t.Stats.Nacked != 1 {
		t.Fatalf("Nacked = %d, want 1", r.t.Stats.Nacked)
	}
}

// dropFirst builds a fault injector dropping the first n packets that
// match, counting accounted chaos losses.
func dropFirst(n *int, match func(from, to packet.IPv4, p *packet.Packet) bool) fabric.FaultInjector {
	return func(from, to packet.IPv4, p *packet.Packet) fabric.FaultVerdict {
		if *n > 0 && match(from, to, p) {
			*n--
			return fabric.FaultVerdict{Drop: true}
		}
		return fabric.FaultVerdict{}
	}
}

func TestLostRequestIsRetried(t *testing.T) {
	r := newRig(t)
	drops := 2
	r.fab.SetFaultInjector(dropFirst(&drops, func(from, to packet.IPv4, p *packet.Packet) bool {
		return to == r.vs.Addr() // request direction only
	}))
	var got error
	called := false
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpInstallFE, VNIC: 7, Epoch: 1, Rules: mkRules(7), BE: ip(10, 0, 0, 2),
	}, func(err error) { got = err; called = true })
	r.loop.Run(10 * sim.Second)
	if !called || got != nil {
		t.Fatalf("done(%v) called=%v, want nil after retries", got, called)
	}
	if r.t.Stats.Retries < 2 {
		t.Fatalf("Retries = %d, want >= 2 (two request packets dropped)", r.t.Stats.Retries)
	}
	if r.agent.Stats.Applied != 1 {
		t.Fatalf("Applied = %d, want exactly 1", r.agent.Stats.Applied)
	}
	if !r.vs.HostsFE(7) {
		t.Fatal("FE instance not installed after retry")
	}
}

func TestPartitionExhaustsAttempts(t *testing.T) {
	r := newRig(t)
	r.fab.Partition(r.t.Addr(), r.vs.Addr())
	var got error
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpInstallFE, VNIC: 7, Epoch: 1, Rules: mkRules(7), BE: ip(10, 0, 0, 2),
	}, func(err error) { got = err })
	r.loop.Run(30 * sim.Second)
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("done(%v), want ErrTimeout", got)
	}
	if r.t.Stats.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", r.t.Stats.Expired)
	}
	if r.t.Stats.Sent != 4 {
		t.Fatalf("Sent = %d, want MaxAttempts (4)", r.t.Stats.Sent)
	}
	if r.vs.HostsFE(7) {
		t.Fatal("partitioned vSwitch should never have applied the request")
	}
}

func TestLostAckDeduplicates(t *testing.T) {
	r := newRig(t)
	drops := 1
	r.fab.SetFaultInjector(dropFirst(&drops, func(from, to packet.IPv4, p *packet.Packet) bool {
		return from == r.vs.Addr() // ack direction only
	}))
	var got error
	called := false
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpInstallFE, VNIC: 7, Epoch: 1, Rules: mkRules(7), BE: ip(10, 0, 0, 2),
	}, func(err error) { got = err; called = true })
	r.loop.Run(10 * sim.Second)
	if !called || got != nil {
		t.Fatalf("done(%v) called=%v, want nil via the duplicate's re-ack", got, called)
	}
	// The retransmit must be deduplicated, not re-applied.
	if r.agent.Stats.Applied != 1 {
		t.Fatalf("Applied = %d, want exactly 1 (idempotent dedup)", r.agent.Stats.Applied)
	}
	if r.agent.Stats.Duplicates == 0 {
		t.Fatal("retransmit never hit the dedup path")
	}
}

func TestCrashForgetsInFlightApply(t *testing.T) {
	r := newRig(t)
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpInstallFE, VNIC: 7, Epoch: 1, Rules: mkRules(7), BE: ip(10, 0, 0, 2),
		ApplyDelay: 100 * sim.Millisecond,
	}, nil)
	// Crash while the apply is pending, revive before the retransmit.
	r.loop.Schedule(50*sim.Millisecond, r.vs.Crash)
	r.loop.Schedule(300*sim.Millisecond, r.vs.Revive)
	r.loop.Run(10 * sim.Second)
	if r.agent.Stats.Crashed != 1 {
		t.Fatalf("Crashed = %d, want 1 (apply abandoned mid-programming)", r.agent.Stats.Crashed)
	}
	if !r.vs.HostsFE(7) {
		t.Fatal("post-revival retransmit should have applied cleanly")
	}
	if r.agent.Stats.Applied != 1 {
		t.Fatalf("Applied = %d, want 1", r.agent.Stats.Applied)
	}
}

func TestVSwitchRejectsStaleEpochs(t *testing.T) {
	r := newRig(t)
	be := ip(10, 0, 0, 2)
	if err := r.vs.InstallFEEpoch(mkRules(7), be, false, 5); err != nil {
		t.Fatal(err)
	}
	// A straggling rollback from an older transaction must not tear
	// down the newer install.
	r.vs.RemoveFEEpoch(7, 4)
	if !r.vs.HostsFE(7) {
		t.Fatal("RemoveFE at an older epoch tore down a newer install")
	}
	// Same-epoch re-install (idempotent retry) is accepted.
	if err := r.vs.InstallFEEpoch(mkRules(7), be, false, 5); err != nil {
		t.Fatalf("same-epoch re-install rejected: %v", err)
	}
	if err := r.vs.InstallFEEpoch(mkRules(7), be, false, 3); err == nil {
		t.Fatal("older-epoch install accepted")
	}
	// BE-side FE-set pushes follow the same discipline.
	if err := r.vs.AddVNIC(tables.NewRuleSet(9, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := r.vs.SetFEsEpoch(9, []packet.IPv4{be}, 7); err != nil {
		t.Fatal(err)
	}
	if err := r.vs.SetFEsEpoch(9, nil, 6); err == nil {
		t.Fatal("stale FE-set push accepted")
	}
	if got := r.vs.FESetEpoch(9); got != 7 {
		t.Fatalf("FESetEpoch = %d, want 7", got)
	}
	if err := r.vs.OffloadStartEpoch(9, []packet.IPv4{be}, 6); err == nil {
		t.Fatal("stale OffloadStart accepted")
	}
}

func TestGatewayAgentEpochDiscipline(t *testing.T) {
	r := newRig(t)
	ga := NewGatewayAgent(r.loop, r.fab, r.t, r.gw, ip(10, 0, 0, 252))
	a, b := ip(10, 0, 0, 1), ip(10, 0, 0, 2)
	push := func(epoch uint64, fes ...packet.IPv4) error {
		var got error
		r.t.Call(ga.Addr(), &Request{Op: OpGatewaySet, VNIC: 7, Epoch: epoch, FEs: fes},
			func(err error) { got = err })
		r.loop.Run(r.loop.Now() + 2*sim.Second)
		return got
	}
	if err := push(5, a); err != nil {
		t.Fatal(err)
	}
	if err := push(4, b); !errors.Is(err, fabric.ErrStaleEpoch) {
		t.Fatalf("stale push err = %v, want ErrStaleEpoch", err)
	}
	if addrs, _ := r.gw.Lookup(7); len(addrs) != 1 || addrs[0] != a {
		t.Fatalf("stale push mutated the table: %v", addrs)
	}
	// Equal epoch re-applies (an idempotent retry that lost a race).
	if err := push(5, b); err != nil {
		t.Fatalf("same-epoch re-apply rejected: %v", err)
	}
	if got := r.gw.Epoch(7); got != 5 {
		t.Fatalf("gateway epoch = %d, want 5", got)
	}
}

// TestQueryVNICReply round-trips a read-only state query: the reply
// must describe the installed FE instance and the home-side config.
func TestQueryVNICReply(t *testing.T) {
	r := newRig(t)
	// Install an FE instance at the vSwitch first.
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpInstallFE, VNIC: 7, Epoch: 5, Rules: mkRules(7), BE: ip(10, 0, 0, 2),
	}, nil)
	r.loop.Run(2 * sim.Second)

	var rep *Reply
	r.t.Query(r.vs.Addr(), &Request{Op: OpQueryVNIC, VNIC: 7}, func(got *Reply, err error) {
		if err != nil {
			t.Fatalf("query failed: %v", err)
		}
		rep = got
	})
	r.loop.Run(r.loop.Now() + 2*sim.Second)
	if rep == nil {
		t.Fatal("query reply never arrived")
	}
	if !rep.HasFE || rep.FEEpoch != 5 {
		t.Fatalf("reply = %+v, want hosted FE at epoch 5", rep)
	}
	if rep.Resident {
		t.Fatalf("reply = %+v: vNIC is not resident at this vSwitch", rep)
	}
}

// TestQueryGatewayReply checks the gateway agent answers entry queries
// with epoch + addresses.
func TestQueryGatewayReply(t *testing.T) {
	r := newRig(t)
	ga := NewGatewayAgent(r.loop, r.fab, r.t, r.gw, ip(10, 0, 0, 250))
	home := ip(10, 0, 0, 1)
	if err := r.gw.SetEpoch(77, 3, home); err != nil {
		t.Fatal(err)
	}
	var rep *Reply
	r.t.Query(ga.Addr(), &Request{Op: OpQueryGateway, VNIC: 77}, func(got *Reply, err error) {
		if err != nil {
			t.Fatalf("query failed: %v", err)
		}
		rep = got
	})
	r.loop.Run(2 * sim.Second)
	if rep == nil {
		t.Fatal("query reply never arrived")
	}
	if !rep.Resident || rep.Epoch != 3 || len(rep.Addrs) != 1 || rep.Addrs[0] != home {
		t.Fatalf("reply = %+v, want epoch 3 at %v", rep, home)
	}
}

// TestSetDownAbandonsInFlight pins the crash semantics: going down
// forgets in-flight calls (their callbacks never fire, like a dead
// process's continuations) and discards acks arriving meanwhile.
func TestSetDownAbandonsInFlight(t *testing.T) {
	r := newRig(t)
	fired := false
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpInstallFE, VNIC: 7, Epoch: 1, Rules: mkRules(7), BE: ip(10, 0, 0, 2),
		ApplyDelay: 100 * sim.Millisecond,
	}, func(error) { fired = true })
	// Crash before the apply completes.
	r.loop.Run(10 * sim.Millisecond)
	r.t.SetDown(true)
	r.loop.Run(r.loop.Now() + 2*sim.Second)
	if fired {
		t.Fatal("done fired across a crash")
	}
	if r.t.Stats.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1", r.t.Stats.Abandoned)
	}
	if r.t.Stats.DownDrops == 0 {
		t.Fatal("the agent's ack should have been discarded while down")
	}
	// The apply itself still happened at the agent: the receiver keeps
	// serving its last instruction regardless of the caller's death.
	if !r.vs.HostsFE(7) {
		t.Fatal("agent-side apply must survive the caller crash")
	}
	// Revive: new calls work again.
	r.t.SetDown(false)
	var got error
	called := false
	r.t.Call(r.vs.Addr(), &Request{
		Op: OpSetFEs, VNIC: 7, Epoch: 2, FEs: []packet.IPv4{ip(10, 0, 0, 2)},
	}, func(err error) { got = err; called = true })
	r.loop.Run(r.loop.Now() + 2*sim.Second)
	if !called {
		t.Fatal("post-revival call never completed")
	}
	_ = got
}
