package main

import (
	"errors"
	"fmt"

	"nezha/internal/fabric"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

// fastpath_burst is bare forwarding at the smallest packet: two
// monolithic vSwitches A→B wide enough that nothing drops, 4 096
// established TCP flows, 128-packet FromVMBurst injections every
// 100 virtual µs with flows drawn Zipf(1.1) from the seed, telemetry
// off.
//
// Why: flowcache hits, the burst plan/act pipeline, CPU.SubmitBurst
// waves, fabric.SendBurst coalescing and the near-horizon calendar
// queue do all the work; tables, state codecs, controller and
// telemetry do none. It is the read side to crr_offload's write side
// of the same flowcache and vswitch layers, and the workload on which
// a slow-path or control-plane change must show no change.
const (
	fastFlows   = 4096
	fastBurst   = 128
	fastPeriod  = 100 * sim.Microsecond
	fastPackets = 8_000_000
	fastPayload = 64
	fastCores   = 32
	fastCoreHz  = 2_000_000_000
	fastZipf    = 1.1
	// zipfCycle flow draws are generated from the seed in set-up and
	// cycled, so the generator costs the measured region one load per
	// packet.
	zipfCycle = 1 << 20

	pktClientVNIC = 1
	pktServerVNIC = 2
	pktVPC        = 7
)

var (
	fastAddrA = packet.MakeIP(192, 168, 0, 1)
	fastAddrB = packet.MakeIP(192, 168, 0, 2)
	fastIPA   = packet.MakeIP(10, 0, 1, 1)
	fastIPB   = packet.MakeIP(10, 0, 2, 1)
)

func fastClientRules() *tables.RuleSet {
	rs := tables.NewRuleSet(pktClientVNIC, pktVPC)
	rs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 2, 0), 24), packet.IPv4(pktServerVNIC))
	return rs
}

func fastServerRules() *tables.RuleSet {
	rs := tables.NewRuleSet(pktServerVNIC, pktVPC)
	rs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 1, 0), 24), packet.IPv4(pktClientVNIC))
	return rs
}

func fastTuples(n int) []packet.FiveTuple {
	ts := make([]packet.FiveTuple, n)
	for i := range ts {
		ts[i] = packet.FiveTuple{
			SrcIP: fastIPA, DstIP: fastIPB,
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.ProtoTCP,
		}
	}
	return ts
}

// zipfDraws keeps a packet workload's generated inputs between reps:
// they depend on the seed alone, and making them is the benchmark's
// work, not the program's set-up.
type zipfDraws struct {
	draws []uint16
	seed  int64
}

// flowDraws returns zipfCycle Zipf(1.1) indices below flows, drawn from
// seed.
func (z *zipfDraws) flowDraws(seed int64, flows int) []uint16 {
	if z.draws == nil || z.seed != seed {
		zipf := sim.NewZipf(sim.NewRand(seed), flows, fastZipf)
		z.draws, z.seed = make([]uint16, zipfCycle), seed
		for i := range z.draws {
			z.draws[i] = uint16(zipf.Next())
		}
	}
	return z.draws
}

type fastWorkload struct{ zipfDraws }

func (*fastWorkload) name() string { return "fastpath_burst" }

func (*fastWorkload) probeInputs() probeInputs {
	return probeInputs{rules: fastClientRules, flows: fastTuples(fastFlows), vnic: pktClientVNIC, vpc: pktVPC,
		burst: fastBurst, payload: fastPayload}
}

// sink is a harness-owned delivery callback: it counts, records the
// simulated delivery latency and returns the packet to the pool.
type sink struct {
	tr        *tracer
	lat       *latHist
	delivered uint64
	hops      uint64

	// The twin check of offloaded_steady records deliveries of packets
	// up to id cutoff: per-flow counts, hops, and an order-free digest
	// of (packet id, vNIC).
	perFlow  map[packet.FiveTuple]uint32
	cutoff   uint64
	verdicts uint64
	recHops  uint64
}

func (s *sink) deliver(vnic uint32, p *packet.Packet, lat sim.Time) {
	s.tr.begin(spanDeliver, p.ID, 1)
	s.delivered++
	s.hops += uint64(p.Hops)
	s.lat.observe(lat)
	if s.perFlow != nil && p.ID <= s.cutoff {
		s.perFlow[p.Tuple]++
		s.verdicts += mix(p.ID, uint64(vnic))
		s.recHops += uint64(p.Hops)
	}
	p.Release()
	s.tr.end()
}

// reset forgets what set-up delivered.
func (s *sink) reset() {
	clear(s.lat.counts)
	s.lat.n, s.delivered, s.hops = 0, 0, 0
}

// mix hashes a pair so that a sum of mixes is an order-free digest.
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ (b + 0x7f4a7c15)
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
}

// pktGen hands out stamped packets with harness-issued ids.
type pktGen struct {
	loop *sim.Loop
	id   uint64
}

func (g *pktGen) get(vnic uint32, ft packet.FiveTuple, flags packet.TCPFlags, payload int) *packet.Packet {
	g.id++
	return packet.GetStamped(int64(g.loop.Now()), g.id, pktVPC, vnic, ft, packet.DirTX, flags, payload)
}

// paced schedules total calls of fn(i), per of them every period from
// start, and returns when the last one fires. Set-up uses it to open
// flows no faster than the slow path can take them.
func paced(loop *sim.Loop, start, period sim.Time, total, per int, fn func(lo, hi int)) sim.Time {
	at := start
	for lo := 0; lo < total; lo += per {
		hi := min(lo+per, total)
		loop.At(at, func() { fn(lo, hi) })
		at += period
	}
	return at
}

// injector is the open-loop generator of the packet workloads: a
// pooled task that re-arms itself every period of virtual time until
// the fixed packet count is out. Virtual-time generators cannot run
// late, so generator lateness is 0 by construction.
type injector struct {
	loop   *sim.Loop
	period sim.Time
	left   int // ticks
	tick   func()
}

func (in *injector) Run() {
	in.tick()
	if in.left--; in.left > 0 {
		in.loop.AtTask(in.loop.Now()+in.period, in)
	}
}

// fastWorld is A→B with every flow established.
type fastWorld struct {
	loop   *sim.Loop
	fab    *fabric.Fabric
	a, b   *vswitch.VSwitch
	sink   *sink // at B
	gen    *pktGen
	tuples []packet.FiveTuple
	burst  []*packet.Packet
}

func buildFastWorld(seed int64, tr *tracer) (*fastWorld, error) {
	loop := sim.NewLoopSched(seed, sim.SchedCalendar)
	w := &fastWorld{loop: loop, fab: fabric.New(loop), gen: &pktGen{loop: loop},
		tuples: fastTuples(fastFlows), burst: make([]*packet.Packet, 0, fastBurst)}
	gw := fabric.NewGateway(loop)
	mk := func(addr packet.IPv4) *vswitch.VSwitch {
		return vswitch.New(loop, w.fab, gw, vswitch.Config{Addr: addr, Cores: fastCores, CoreHz: fastCoreHz})
	}
	w.a, w.b = mk(fastAddrA), mk(fastAddrB)
	if err := errors.Join(w.a.AddVNIC(fastClientRules(), false), w.b.AddVNIC(fastServerRules(), false)); err != nil {
		return nil, err
	}
	gw.Set(pktClientVNIC, fastAddrA)
	gw.Set(pktServerVNIC, fastAddrB)
	// 16 ns buckets to 2.1 ms.
	w.sink = &sink{tr: tr, lat: newLatHist(16*sim.Nanosecond, 1<<17)}
	sinkA := &sink{tr: tr, lat: w.sink.lat}
	w.a.SetDelivery(sinkA.deliver)
	w.b.SetDelivery(w.sink.deliver)
	if tr != nil {
		tr.observe(loop)
		traceUnderlay(tr, w.fab, w.a)
		traceUnderlay(tr, w.fab, w.b)
	}

	// Establish every flow with a full handshake; SYNs take the slow
	// path, paced so its 50 µs walks fit the CPU queue bound.
	send := func(vs *vswitch.VSwitch, vnic uint32, flags packet.TCPFlags, reverse bool) func(lo, hi int) {
		return func(lo, hi int) {
			ps := w.burst[:0]
			for _, ft := range w.tuples[lo:hi] {
				if reverse {
					ft = ft.Reverse()
				}
				ps = append(ps, w.gen.get(vnic, ft, flags, 0))
			}
			vs.FromVMBurst(ps)
		}
	}
	at := paced(loop, sim.Millisecond, 250*sim.Microsecond, fastFlows, fastBurst, send(w.a, pktClientVNIC, packet.FlagSYN, false))
	at = paced(loop, at+sim.Millisecond, fastPeriod, fastFlows, fastBurst, send(w.b, pktServerVNIC, packet.FlagSYN|packet.FlagACK, true))
	at = paced(loop, at+sim.Millisecond, fastPeriod, fastFlows, fastBurst, send(w.a, pktClientVNIC, packet.FlagACK, false))
	loop.Run(at + sim.Millisecond)
	if sinkA.delivered != fastFlows || w.sink.delivered != 2*fastFlows {
		return nil, fmt.Errorf("set-up delivered %d+%d of %d handshake packets", sinkA.delivered, w.sink.delivered, 3*fastFlows)
	}
	w.sink.reset()
	return w, nil
}

func (w *fastWorkload) rep(rc repCtx) (*rep, error) {
	out := &rep{sim: values{}, gauges: values{}}
	tr := rc.tr
	draws := w.flowDraws(rc.seed, fastFlows)
	ticks := (scaled(fastPackets, rc.size) + fastBurst - 1) / fastBurst
	injected := uint64(ticks * fastBurst)

	var world *fastWorld
	var err error
	out.setupS, err = medianSetup(9, tr, func() error {
		world, err = buildFastWorld(rc.seed, tr)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fastpath_burst: %w", err)
	}
	loop, a, sinkB := world.loop, world.a, world.sink
	sw := []*vswitch.VSwitch{world.a, world.b}

	pos := 0
	in := &injector{loop: loop, period: fastPeriod, left: ticks}
	in.tick = func() {
		ps := world.burst[:0]
		for i := 0; i < fastBurst; i++ {
			ps = append(ps, world.gen.get(pktClientVNIC, world.tuples[draws[pos&(zipfCycle-1)]], packet.FlagACK, fastPayload))
			pos++
		}
		tr.begin(spanFromVM, ps[0].ID, fastBurst)
		a.FromVMBurst(ps)
		tr.end()
	}
	read := func() (cs counts) {
		cs.readSwitches(loop, world.fab, sw)
		cs[cPoolGets] = world.gen.id
		return cs
	}
	out.have = haveSwitches | slots(cPoolGets)

	before := read()
	startV, busy := loop.Now(), a.CPU().BusyTime()
	reg := openRegion()
	tr.resume()
	loop.AtTask(startV+fastPeriod, in)
	// The last burst is delivered tens of µs after it is injected.
	endV := loop.Run(startV + sim.Time(ticks)*fastPeriod + sim.Millisecond)
	tr.pause()
	reg.close(out, []any{world, draws})
	after := read()
	out.counts = after.sub(before)
	out.simS = (endV - startV).Seconds()
	out.pkts = out.counts[cFromVM] + out.counts[cFromNet]
	out.gauges["nic.sim_util_hot"] = (a.CPU().BusyTime() - busy).Seconds() / (fastCores * out.simS)
	out.gauges["flowcache.live_entries"] = float64(liveEntries(sw))

	// Output checks.
	loop.RunAll()
	residue, err := conservation(world.fab, sw)
	errs := []error{err, sinkB.lat.fill(out)}
	if sinkB.delivered > injected {
		errs = append(errs, fmt.Errorf("delivered %d > injected %d", sinkB.delivered, injected))
	}
	lost := injected - sinkB.delivered
	out.sim["fail_share"] = float64(lost) / float64(injected)
	if lost != 0 {
		errs = append(errs, fmt.Errorf("%d of %d injected packets were not delivered", lost, injected))
	}
	if sinkB.hops != sinkB.delivered {
		errs = append(errs, fmt.Errorf("monolithic path: %d hops for %d delivered packets", sinkB.hops, sinkB.delivered))
	}
	out.attempted, out.failed = injected, lost+residue

	final := read()
	d := newDigest()
	d.add(final[:]...)
	d.add(uint64(loop.Now()), uint64(liveEntries(sw)), sinkB.delivered)
	d.addValues(out.sim, "sim_lat_p50_us", "sim_lat_p99_us", "fail_share")
	out.digest = uint64(d)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("fastpath_burst: %w", err)
	}
	return out, nil
}
