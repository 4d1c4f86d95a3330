package main

import (
	"errors"
	"fmt"

	"nezha/internal/cluster"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

// offloaded_steady is the paper's steady state with production
// telemetry on: under one ToR, one BE, four FEs and four client
// switches; the server vNIC is offloaded statically (no controller);
// 8 192 established flows carry 64-packet bursts server→clients and
// 16-packet bursts from each client→server every 100 virtual µs, every
// 50th packet a SYN on a fresh flow; obs (sampling 0.01), prof and slo
// are all attached.
//
// Why: it uses the vswitch layer in its other two roles (BE and FE
// instead of monolithic), is the only workload where Nezha-header
// views, the state and pre-action codecs, Learner.Pick over an FE list
// and the extra hop run per packet, and is where the obs/prof/slo hooks
// sit on the hot path.
const (
	offFEs        = 4
	offClients    = 4
	offServers    = 1 + offFEs + offClients
	offFlowsPer   = 2048 // established flows per client
	offBEBurst    = 64
	offCliBurst   = 16
	offTick       = offBEBurst + offClients*offCliBurst
	offPackets    = 2_000_000
	offFreshEvery = 50 // every 50th packet opens a fresh flow
	offDenyEvery  = 8  // every 8th fresh client flow aims at the denied port
	offDenyPort   = 81
	offCores      = 8
	offCoreHz     = 2_000_000_000
	offSample     = 0.01
	offDualRun    = 300 * sim.Millisecond
	offTwinPkts   = 50_000
	offServerVNIC = 100
)

var offServerIP = packet.MakeIP(10, 0, 100, 1)

func offClientIP(i int) packet.IPv4 { return packet.MakeIP(10, 0, byte(1+i), 1) }

// offServerRules routes to every client, counts packets per flow (the
// rule-table-involved state whose first TX packet makes the FE notify
// the BE) and denies inbound connections to one port, so the twin
// check compares a verdict that depends on session state.
func offServerRules() *tables.RuleSet {
	rs := tables.NewRuleSet(offServerVNIC, pktVPC)
	for i := 0; i < offClients; i++ {
		rs.Route.Add(tables.MakePrefix(offClientIP(i), 24), packet.IPv4(uint32(i+1)))
	}
	rs.Stats = tables.NewStatsPolicy(tables.StatsPackets)
	rs.ACL.Add(tables.ACLRule{
		Priority: 1,
		Dst:      tables.MakePrefix(offServerIP, 32),
		DstPorts: tables.PortRange{Lo: offDenyPort, Hi: offDenyPort},
		Verdict:  tables.VerdictDeny,
	})
	return rs
}

// offFlow is established flow j of client i, client→server.
func offFlow(i, j int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: offClientIP(i), DstIP: offServerIP,
		SrcPort: uint16(1024 + j), DstPort: 80, Proto: packet.ProtoTCP,
	}
}

// offWorkload draws over one client's flows; every client uses them.
type offWorkload struct{ zipfDraws }

func (*offWorkload) name() string { return "offloaded_steady" }

func (*offWorkload) probeInputs() probeInputs {
	flows := make([]packet.FiveTuple, 0, offClients*offFlowsPer)
	for i := 0; i < offClients; i++ {
		for j := 0; j < offFlowsPer; j++ {
			flows = append(flows, offFlow(i, j).Reverse())
		}
	}
	return probeInputs{rules: offServerRules, flows: flows, vnic: offServerVNIC, vpc: pktVPC,
		burst: offBEBurst, payload: fastPayload, feList: offFEs}
}

// offWorld is one built topology: offloaded, or the monolithic twin.
type offWorld struct {
	c       *cluster.Cluster
	be      *vswitch.VSwitch
	clients []*vswitch.VSwitch
	sinks   []*sink // [0] at the BE, then one per client
	lat     *latHist
	gen     *pktGen
	burst   []*packet.Packet
	draws   []uint16
	pos     int    // cursor into draws
	n       uint64 // packets injected by tick, for the every-50th rule
	fresh   uint32 // fresh flows opened
	tr      *tracer
}

func buildOffWorld(seed int64, offload, telemetry bool, tr *tracer, draws []uint16) (*offWorld, error) {
	opts := cluster.Options{
		Servers: offServers, ServersPerToR: offServers, Seed: seed,
		VSwitch: func(i int, cfg *vswitch.Config) {
			cfg.Cores = offCores
			cfg.CoreHz = offCoreHz
		},
	}
	if telemetry {
		opts.Obs = obs.New(obs.Options{Seed: seed, SampleRate: offSample})
		opts.Prof = prof.New()
		opts.SLO = slo.NewTracker(slo.Config{})
	}
	var c *cluster.Cluster
	tr.build(func() { c = cluster.New(opts) })
	w := &offWorld{c: c, be: c.Switch(0), lat: newLatHist(16*sim.Nanosecond, 1<<17),
		gen: &pktGen{loop: c.Loop}, burst: make([]*packet.Packet, 0, offBEBurst), draws: draws, tr: tr}
	if err := w.be.AddVNIC(offServerRules(), false); err != nil {
		return nil, err
	}
	c.GW.Set(offServerVNIC, w.be.Addr())
	serverNet := tables.MakePrefix(offServerIP, 24)
	for i := 0; i < offClients; i++ {
		vs, vnic := c.Switch(1+offFEs+i), uint32(i+1)
		if err := vs.AddVNIC(cluster.TwoSubnetRules(vnic, pktVPC, serverNet, offServerVNIC)(), false); err != nil {
			return nil, err
		}
		c.GW.Set(vnic, vs.Addr())
		w.clients = append(w.clients, vs)
	}
	for _, vs := range append([]*vswitch.VSwitch{w.be}, w.clients...) {
		s := &sink{tr: tr, lat: w.lat}
		vs.SetDelivery(s.deliver)
		w.sinks = append(w.sinks, s)
	}
	if tr != nil {
		tr.observe(c.Loop)
		for _, vs := range c.Switches {
			traceUnderlay(tr, c.Fab, vs)
		}
	}

	if offload {
		// The static two-stage offload of §4.2.1, without a controller.
		var fes []packet.IPv4
		for _, vs := range c.Switches[1 : 1+offFEs] {
			if err := vs.InstallFE(offServerRules(), w.be.Addr(), false); err != nil {
				return nil, err
			}
			fes = append(fes, vs.Addr())
		}
		if err := w.be.OffloadStart(offServerVNIC, fes); err != nil {
			return nil, err
		}
		c.GW.Set(offServerVNIC, fes...)
		c.Loop.Run(c.Loop.Now() + offDualRun)
		if err := w.be.OffloadFinalize(offServerVNIC); err != nil {
			return nil, err
		}
	}

	// Full handshake for every flow, four per client per tick so the
	// 70 µs slow-path walks stay inside the CPU queue bound. The twin's
	// one server switch walks for all four FEs, so it gets four times
	// as long.
	period := fastPeriod
	if !offload {
		period *= offFEs
	}
	phase := func(start sim.Time, flags packet.TCPFlags, fromServer bool) sim.Time {
		return paced(c.Loop, start, period, offFlowsPer, 4, func(lo, hi int) {
			for i, vs := range w.clients {
				ps := w.burst[:0]
				for j := lo; j < hi; j++ {
					ps = append(ps, w.packet(i, offFlow(i, j), fromServer, flags, 0))
				}
				if fromServer {
					vs = w.be
				}
				vs.FromVMBurst(ps)
			}
		})
	}
	at := phase(c.Loop.Now()+sim.Millisecond, packet.FlagSYN, false)
	at = phase(at+sim.Millisecond, packet.FlagSYN|packet.FlagACK, true)
	at = phase(at+sim.Millisecond, packet.FlagACK, false)
	c.Loop.Run(at + sim.Millisecond)
	const flows = offClients * offFlowsPer
	if got := w.delivered(); got != 3*flows {
		return nil, fmt.Errorf("set-up delivered %d of %d handshake packets", got, 3*flows)
	}
	for _, s := range w.sinks {
		s.reset()
	}
	return w, nil
}

func (w *offWorld) delivered() (n uint64) {
	for _, s := range w.sinks {
		n += s.delivered
	}
	return n
}

// packet builds a packet of a client's flow ft (given client→server),
// leaving the client's VM or, reversed, the server's.
func (w *offWorld) packet(client int, ft packet.FiveTuple, fromServer bool, flags packet.TCPFlags, payload int) *packet.Packet {
	if fromServer {
		return w.gen.get(offServerVNIC, ft.Reverse(), flags, payload)
	}
	return w.gen.get(uint32(client+1), ft, flags, payload)
}

// next returns the next packet of a burst: on an established flow
// drawn from the seed, or — every 50th — a SYN on a fresh flow.
func (w *offWorld) next(client int, fromServer bool) *packet.Packet {
	w.n++
	if w.n%offFreshEvery != 0 {
		j := int(w.draws[w.pos&(zipfCycle-1)])
		w.pos++
		return w.packet(client, offFlow(client, j), fromServer, packet.FlagACK, fastPayload)
	}
	k := w.fresh
	w.fresh++
	ft := packet.FiveTuple{
		SrcIP: offClientIP(client), DstIP: offServerIP,
		SrcPort: uint16(10000 + k%50000), DstPort: uint16(9000 + k/50000), Proto: packet.ProtoTCP,
	}
	if !fromServer && k%offDenyEvery == 0 {
		ft.DstPort = offDenyPort
	}
	return w.packet(client, ft, fromServer, packet.FlagSYN, fastPayload)
}

func (w *offWorld) inject(vs *vswitch.VSwitch, ps []*packet.Packet) {
	w.tr.begin(spanFromVM, ps[0].ID, uint64(len(ps)))
	vs.FromVMBurst(ps)
	w.tr.end()
}

// tick injects one period's traffic: the BE's burst, its packets
// spread round-robin over the clients, then each client's burst.
func (w *offWorld) tick() {
	ps := w.burst[:0]
	for i := 0; i < offBEBurst; i++ {
		ps = append(ps, w.next(i%offClients, true))
	}
	w.inject(w.be, ps)
	for c, vs := range w.clients {
		ps = w.burst[:0]
		for i := 0; i < offCliBurst; i++ {
			ps = append(ps, w.next(c, false))
		}
		w.inject(vs, ps)
	}
}

// run injects ticks periods of traffic and returns the virtual
// interval from the first injection to the last delivery.
func (w *offWorld) run(ticks int) (startV, endV sim.Time) {
	loop := w.c.Loop
	startV = loop.Now()
	loop.AtTask(startV+fastPeriod, &injector{loop: loop, period: fastPeriod, left: ticks, tick: w.tick})
	endV = loop.Run(startV + sim.Time(ticks)*fastPeriod + sim.Millisecond)
	return startV, endV
}

// record makes the sinks keep per-flow delivered counts and the
// verdict digest for packets up to id cutoff.
func (w *offWorld) record(cutoff uint64) {
	for _, s := range w.sinks {
		s.perFlow = make(map[packet.FiveTuple]uint32)
		s.cutoff = cutoff
	}
}

func (w *offWorld) recorded() (perFlow map[packet.FiveTuple]uint32, verdicts, n, hops uint64) {
	perFlow = make(map[packet.FiveTuple]uint32)
	for _, s := range w.sinks {
		for ft, c := range s.perFlow {
			perFlow[ft] += c
			n += uint64(c)
		}
		verdicts += s.verdicts
		hops += s.recHops
	}
	return perFlow, verdicts, n, hops
}

func (w *offWorkload) rep(rc repCtx) (*rep, error) {
	out := &rep{sim: values{}, gauges: values{}}
	draws := w.flowDraws(rc.seed, offFlowsPer)
	ticks := (scaled(offPackets, rc.size) + offTick - 1) / offTick
	injected := uint64(ticks * offTick)
	twinTicks := (offTwinPkts + offTick - 1) / offTick
	if twinTicks > ticks {
		twinTicks = ticks
	}

	var world *offWorld
	var err error
	out.setupS, err = medianSetup(5, rc.tr, func() error {
		world, err = buildOffWorld(rc.seed, true, !rc.telemetryOff, rc.tr, draws)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("offloaded_steady: %w", err)
	}
	c, tr := world.c, rc.tr
	read := func() (cs counts) {
		cs.readSwitches(c.Loop, c.Fab, c.Switches)
		cs.readControl(c.Ctrl, c.Mon)
		cs[cPoolGets] = world.gen.id
		if c.Obs != nil {
			cs[cTraceHops] = c.Obs.Tracer.HopCount()
		}
		return cs
	}
	out.have = haveSwitches | haveControl | slots(cPoolGets, cTraceHops)
	if rc.deep {
		world.record(world.gen.id + uint64(twinTicks*offTick))
	}

	before := read()
	busy := world.be.CPU().BusyTime()
	reg := openRegion()
	tr.resume()
	startV, endV := world.run(ticks)
	tr.pause()
	reg.close(out, []any{world, draws})
	after := read()
	out.counts = after.sub(before)
	out.simS = (endV - startV).Seconds()
	out.pkts = out.counts[cFromVM] + out.counts[cFromNet]
	out.gauges["nic.sim_util_hot"] = (world.be.CPU().BusyTime() - busy).Seconds() / (offCores * out.simS)
	out.gauges["flowcache.live_entries"] = float64(liveEntries(c.Switches))
	if c.Obs != nil {
		snap := c.Obs.Snap(c.Loop.Now(), 10)
		out.gauges["obs.series"] = float64(len(snap.Points))
		if us, ok := queueWaitMeanUS(snap); ok {
			out.gauges["nic.sim_wait_us_mean"] = us
		}
	}

	// Output checks. The cluster's sweep ticker never lets the queue
	// drain, so settle for a bounded slice of virtual time instead.
	c.Loop.Run(c.Loop.Now() + 10*sim.Millisecond)
	residue, err := conservation(c.Fab, c.Switches)
	errs := []error{err, world.lat.fill(out)}
	final := read()
	delivered, denied := world.delivered(), final[cACLDrops]-before[cACLDrops]
	if delivered+denied > injected {
		errs = append(errs, fmt.Errorf("delivered %d + denied %d > injected %d", delivered, denied, injected))
	}
	lost := injected - delivered - denied
	out.sim["fail_share"] = float64(lost) / float64(injected)
	if lost != 0 {
		errs = append(errs, fmt.Errorf("%d of %d injected packets were neither delivered nor denied by the workload's ACL rule",
			lost, injected))
	}
	var hops uint64
	for _, s := range world.sinks {
		hops += s.hops
	}
	if hops != 2*delivered {
		errs = append(errs, fmt.Errorf("offloaded path: %d hops for %d delivered packets, want one extra hop each", hops, delivered))
	}
	if rc.deep {
		errs = append(errs, checkTwin(rc.seed, world, twinTicks, draws))
	}
	out.attempted, out.failed = injected, lost+residue

	d := newDigest()
	d.add(final[:]...)
	d.add(uint64(c.Loop.Now()), uint64(liveEntries(c.Switches)), delivered, denied)
	d.addValues(out.sim, "sim_lat_p50_us", "sim_lat_p99_us", "fail_share")
	out.digest = uint64(d)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("offloaded_steady: %w", err)
	}
	return out, nil
}

// checkTwin is the §3.1 check: the first packets of the workload,
// replayed through a monolithic twin (same topology, same flows, the
// server vNIC never offloaded), must be delivered flow for flow as the
// offloaded world delivered them, with the same verdicts, and every
// offloaded delivery must have taken exactly one hop more.
func checkTwin(seed int64, world *offWorld, ticks int, draws []uint16) error {
	twin, err := buildOffWorld(seed, false, false, nil, draws)
	if err != nil {
		return fmt.Errorf("monolithic twin: %w", err)
	}
	twin.record(twin.gen.id + uint64(ticks*offTick))
	twin.run(ticks)
	twin.c.Loop.Run(twin.c.Loop.Now() + 10*sim.Millisecond)

	want, wantVerdicts, wantN, wantHops := twin.recorded()
	got, gotVerdicts, gotN, gotHops := world.recorded()
	if gotN != wantN || len(got) != len(want) {
		return fmt.Errorf("§3.1: offloaded delivered %d packets on %d flows, monolithic twin %d on %d", gotN, len(got), wantN, len(want))
	}
	for ft, n := range want {
		if got[ft] != n {
			return fmt.Errorf("§3.1: flow %v delivered %d times offloaded, %d times monolithic", ft, got[ft], n)
		}
	}
	if gotVerdicts != wantVerdicts {
		return fmt.Errorf("§3.1: verdict digest %#x offloaded, %#x monolithic", gotVerdicts, wantVerdicts)
	}
	if wantHops != wantN || gotHops != 2*gotN {
		return fmt.Errorf("§3.1: %d hops for %d monolithic deliveries, %d for %d offloaded; want one and two each",
			wantHops, wantN, gotHops, gotN)
	}
	twinDenied := uint64(0)
	for _, vs := range twin.c.Switches {
		twinDenied += vs.Stats.Drops[vswitch.DropACL]
	}
	if twinDenied == 0 || wantN == 0 {
		return errors.New("§3.1: the twin saw no denied packet, the verdict check is vacuous")
	}
	return nil
}

// queueWaitMeanUS is the mean of the vswitch_queue_wait_ns histograms
// in a registry snapshot: simulated CPU queueing plus service time.
func queueWaitMeanUS(s *obs.Snapshot) (float64, bool) {
	var sum, n uint64
	for i := range s.Points {
		if p := &s.Points[i]; p.Name == "vswitch_queue_wait_ns" {
			sum += p.Sum
			n += p.Count
		}
	}
	if n == 0 {
		return 0, false
	}
	return float64(sum) / float64(n) / 1e3, true
}
