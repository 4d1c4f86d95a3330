package controller

import (
	"errors"
	"slices"

	"nezha/internal/ctrlrpc"
	"nezha/internal/fabric"
	"nezha/internal/journal"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/policy"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

// fxKind names what an effect asks of the world.
type fxKind uint8

const (
	fxCall    fxKind = iota + 1 // rpc.Call(to, req); then, unless evNone, gets the outcome
	fxQuery                     // rpc.Query(to, req); then gets the reply
	fxTimer                     // deliver then after `after`
	fxCancel                    // cancel vnic's prepare-deadline timer
	fxJournal                   // append rec
	fxEvent                     // obs event name at (to, vnic): text formatted with args
	fxSpan                      // obs span name for (vnic, epoch): opened, or closed with outcome text
	fxHook                      // the prepare hook, with vnic and addrs
)

// effect is one action step asks of the world; the driver carries it
// out.
type effect struct {
	kind       fxKind
	to         packet.IPv4
	req        *ctrlrpc.Request
	after      sim.Time
	then       event
	rec        journal.Record
	name, text string
	args       []any
	vnic       uint32
	epoch      uint64
	addrs      []packet.IPv4
}

// emit appends one effect to the current step's list. A journal record
// is carried out at once, with everything queued before it: compaction
// exports the controller's state from inside Append, so the record
// must land before step changes that state further. Without a driver
// (a step test) effects only accumulate.
func (c *Controller) emit(e effect) {
	c.fx = append(c.fx, e)
	if e.kind == fxJournal && c.loop != nil {
		c.flush()
	}
}

// flush carries out the queued effects in order and empties the list,
// keeping its storage for the next step.
func (c *Controller) flush() {
	for i := range c.fx {
		c.exec(&c.fx[i])
	}
	c.fx = c.fx[:0]
}

// exec is the only code in the package that calls rpc.Call, rpc.Query,
// loop.Schedule or journal.Append. Acks and timers carry the crash
// generation they were issued in; those of a dead incarnation are
// dropped.
func (c *Controller) exec(e *effect) {
	switch e.kind {
	case fxCall:
		if e.then.kind == evNone {
			c.rpc.Call(e.to, e.req, nil)
			return
		}
		then, gen := e.then, c.gen
		c.rpc.Call(e.to, e.req, func(err error) {
			if !c.down && c.gen == gen {
				then.err = err
				c.deliver(then)
			}
		})
	case fxQuery:
		then, gen := e.then, c.gen
		c.rpc.Query(e.to, e.req, func(rep *ctrlrpc.Reply, err error) {
			if !c.down && c.gen == gen {
				then.rep, then.err = rep, err
				c.deliver(then)
			}
		})
	case fxTimer:
		then, gen := e.then, c.gen
		ref := c.loop.Schedule(e.after, func() {
			if !c.down && c.gen == gen {
				c.deliver(then)
			}
		})
		if then.kind == evDeadline {
			c.deadlines[then.vnic] = ref
		}
	case fxCancel:
		c.deadlines[e.vnic].Cancel()
		delete(c.deadlines, e.vnic)
	case fxJournal:
		// Errors are counted in the journal's stats; a sick disk must
		// not take the control plane down with it.
		_ = c.journal.Append(e.rec)
	case fxEvent:
		c.ob.Event(c.loop.Now(), e.name, e.to, e.vnic, e.text, e.args...)
	case fxSpan:
		if c.ob != nil && e.text == "" {
			c.ob.Spans.Begin(e.name, e.vnic, e.epoch, c.loop.Now())
		} else if c.ob != nil {
			c.ob.Spans.End(e.name, e.vnic, e.epoch, c.loop.Now(), e.text)
		}
	case fxHook:
		if c.prepareHook != nil {
			c.prepareHook(e.vnic, e.addrs)
		}
	}
}

// deliver runs one event through step and carries out its effects.
// During an outage a monitor declaration queues for Recover and a
// request is refused (acks and timers are fenced before they get here).
func (c *Controller) deliver(ev event) error {
	if c.down {
		if ev.kind == evNodeDown || ev.kind == evNodeUp || ev.kind == evLinkDown {
			c.queued = append(c.queued, ev)
			return nil
		}
		return errDown
	}
	ev.now = c.loop.Now()
	_, err := c.step(ev)
	c.flush()
	return err
}

// sample reads every live node's meters for a tick, ascending by
// address; rebase reads only the cycle counters, of every node.
func (c *Controller) sample(rebase bool) []sample {
	c.addrs = c.nodeAddrsInto(c.addrs)
	c.samples = slices.Grow(c.samples[:0], len(c.addrs))
	for _, a := range c.addrs {
		p := c.ports[a]
		s := sample{addr: a, local: p.vs.CyclesLocal(), remote: p.vs.CyclesRemote()}
		if !rebase {
			if c.nodes[a].down {
				continue
			}
			s.cpu, s.mem = p.meter.Sample(), p.vs.MemUtilization()
		}
		c.samples = append(c.samples, s)
	}
	return c.samples
}

// New builds a controller. The fabric carries its config RPCs: the
// transport and the gateway's management agent register themselves at
// cfg.RPCAddr and cfg.GatewayAddr.
func New(loop *sim.Loop, fab *fabric.Fabric, gw *fabric.Gateway, cfg Config) *Controller {
	c := newState(cfg, int64(loop.Rand().Uint64()))
	c.loop, c.fab, c.gw = loop, fab, gw
	c.ports = make(map[packet.IPv4]port)
	c.deadlines = make(map[uint32]sim.EventRef)
	c.rpc = ctrlrpc.NewTransport(loop, fab, sim.NewRand(int64(loop.Rand().Uint64())), c.cfg.RPCAddr)
	c.gwAgent = ctrlrpc.NewGatewayAgent(loop, fab, c.rpc, gw, c.cfg.GatewayAddr)
	return c
}

// RegisterNode adds a vSwitch to the managed fleet and attaches its
// control-RPC agent.
func (c *Controller) RegisterNode(vs *vswitch.VSwitch) {
	c.nodes[vs.Addr()] = newNode(vs)
	c.ports[vs.Addr()] = port{
		vs:    vs,
		agent: ctrlrpc.NewAgent(c.loop, c.fab, c.rpc, vs),
		meter: nic.NewUtilMeter(vs.CPU()),
	}
}

// RegisterVNIC makes a vNIC manageable (installed at its home and in
// the gateway, whose epoch its counter picks up).
func (c *Controller) RegisterVNIC(info VNICInfo) {
	v := &vnicState{VNICInfo: info, epoch: c.gw.Epoch(info.VNIC)}
	c.vnics[info.VNIC] = v
	c.journalPlacement(v)
	c.flush()
}

// SetPolicy hands the offload, fallback and scaling decisions to a
// policy engine built from cfg, which the tick steps every report
// interval in place of the Fig 8 tree and its fallback check. Call it
// before EnableObs and Start.
func (c *Controller) SetPolicy(cfg policy.Config) { c.policy = policy.New(cfg) }

// Policy returns the policy engine SetPolicy installed, or nil.
func (c *Controller) Policy() *policy.Engine { return c.policy }

// Start begins the periodic monitoring/decision loop and the
// degraded-pool repair loop.
func (c *Controller) Start() {
	c.ticker = c.loop.Every(reportInterval, func() {
		c.deliver(event{kind: evTick, samples: c.sample(false)})
		if c.tickHook != nil {
			c.tickHook()
		}
	})
	c.repairTicker = c.loop.Every(repairInterval, func() { c.deliver(event{kind: evRepair}) })
	if c.policy == nil {
		c.fbTick = c.loop.Every(fallbackCheckInterval, func() { c.deliver(event{kind: evFallbackCheck}) })
	}
}

// Stop halts the decision, repair, and fallback loops.
func (c *Controller) Stop() {
	for _, t := range []*sim.Ticker{c.ticker, c.repairTicker, c.fbTick} {
		if t != nil {
			t.Stop()
		}
	}
}

// SetTickHook installs an observer run after each tick's step, once
// its effects are carried out. The policy scenario harness records its
// load and pool traces through it.
func (c *Controller) SetTickHook(fn func()) { c.tickHook = fn }

// SetPrepareHook installs an observer fired when a prepare phase
// starts, with the vNIC and its target FEs. The chaos engine uses it
// to kill or partition targets mid-push. The driver calls it while
// carrying out a step's effects, so it must not call the controller;
// it may schedule events that do.
func (c *Controller) SetPrepareHook(fn func(vnic uint32, targets []packet.IPv4)) {
	c.prepareHook = fn
}

// RPCAddr returns the controller transport's fabric address.
func (c *Controller) RPCAddr() packet.IPv4 { return c.rpc.Addr() }

// RPCStats returns a copy of the transport's counters.
func (c *Controller) RPCStats() ctrlrpc.Stats { return c.rpc.Stats }

// --- Journal, crash and recovery ---------------------------------------

// AttachJournal wires the write-ahead log before Start: registered
// vNICs are seeded as a replay baseline, and exportState compacts it.
func (c *Controller) AttachJournal(j *journal.Journal) {
	c.journal, c.wal = j, true
	j.AddCompactor(c.exportState)
	for _, id := range c.sortedVNICs() {
		c.journalPlacement(c.vnics[id])
	}
	c.flush()
}

// Crash models the process dying: loops stop, the RPC transport
// abandons its calls and drops acks, acks and timers already issued are
// fenced off by the generation, and all in-memory state is forgotten
// except off-box telemetry. The journal's Store is the disk.
func (c *Controller) Crash() {
	if c.down {
		return
	}
	c.down = true
	c.gen++
	c.Stop()
	c.rpc.SetDown(true)
	c.ob.Event(c.loop.Now(), "ctrl-down", 0, 0, "gen=%d", c.gen)
	c.wipe()
	c.queued = nil
	clear(c.deadlines)
}

// Recover replays the journal into step, restarts the loops, delivers
// the declarations queued during the outage, and reconciles every vNIC
// with the world (recover.go; LastRecovery stamps the end).
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
	for i := range recs {
		c.deliver(event{kind: evRecord, rec: &recs[i]})
	}
	c.deliver(event{kind: evReplayed, samples: c.sample(true)})
	c.Start()
	queued := c.queued
	c.queued = nil
	for _, ev := range queued {
		c.deliver(ev)
	}
	c.deliver(event{kind: evReconcile, flag: opts.SkipReconcile})
	return nil
}

// ControllerUp reports process liveness: false from Crash until
// Recover.
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
	for _, p := range c.ports {
		total += p.agent.Stats.DupSideEffects
	}
	return total
}
