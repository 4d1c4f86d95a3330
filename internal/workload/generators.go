package workload

import (
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

// CRR drives netperf TCP_CRR-style traffic: short connect /
// request / response / close transactions at a target open rate —
// the paper's CPS workload (§6.2.1). Arrivals are Poisson.
type CRR struct {
	loop    *sim.Loop
	rng     *sim.Rand
	client  *VM
	dst     packet.IPv4
	rate    float64
	sport   uint16
	ticker  sim.EventRef
	pending bool // an arrival or a poll is queued
	done    bool
}

// crrArrival and crrPoll are a CRR seen as its two sim.Tasks: the next
// Poisson arrival, and the paused generator's poll for a new rate.
// Scheduling either allocates nothing.
type (
	crrArrival CRR
	crrPoll    CRR
)

// NewCRR builds a generator opening connections from client to
// dst:ServerPort at ratePerSec.
func NewCRR(loop *sim.Loop, rng *sim.Rand, client *VM, dst packet.IPv4, ratePerSec float64) *CRR {
	return &CRR{loop: loop, rng: rng, client: client, dst: dst, rate: ratePerSec, sport: 1024}
}

// SetRate changes the open rate (for ramp experiments).
func (g *CRR) SetRate(r float64) { g.rate = r }

// Rate returns the current target rate.
func (g *CRR) Rate() float64 { return g.rate }

// Start begins opening connections until Stop. Starting a running
// generator is a no-op: it has one arrival chain, never two.
func (g *CRR) Start() {
	g.done = false
	if !g.pending {
		g.arm()
	}
}

// Stop halts new opens; in-flight transactions drain naturally.
func (g *CRR) Stop() {
	g.done = true
	g.pending = false
	g.ticker.Cancel()
}

func (g *CRR) arm() {
	if g.done {
		return
	}
	now := g.loop.Now()
	g.pending = true
	if g.rate <= 0 {
		// Paused: poll for a rate change (ramp scripts may raise it).
		g.ticker = g.loop.AtTask(now+10*sim.Millisecond, (*crrPoll)(g))
		return
	}
	gap := sim.Time(g.rng.ExpFloat64() / g.rate * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	g.ticker = g.loop.AtTask(now+gap, (*crrArrival)(g))
}

// Run opens one connection and arms the next arrival.
func (a *crrArrival) Run() {
	g := (*CRR)(a)
	g.pending = false
	if g.done {
		return
	}
	g.open()
	g.arm()
}

// Run re-arms: an arrival if the rate was raised, else another poll.
func (p *crrPoll) Run() {
	g := (*CRR)(p)
	g.pending = false
	g.arm()
}

func (g *CRR) open() {
	g.sport++
	if g.sport < 1024 {
		g.sport = 1024
	}
	g.client.Open(g.sport, g.dst, ServerPort)
}

// FlowHolder opens persistent connections and keeps them alive with
// periodic keepalives, probing how many concurrent flows the path can
// sustain (the #concurrent-flows experiments).
type FlowHolder struct {
	loop      *sim.Loop
	client    *VM
	dst       packet.IPv4
	keepalive sim.Time
	next      uint16
	nextIPOff uint32
	open      []packet.FiveTuple
}

// NewFlowHolder builds a holder from client to dst.
func NewFlowHolder(loop *sim.Loop, client *VM, dst packet.IPv4, keepalive sim.Time) *FlowHolder {
	return &FlowHolder{loop: loop, client: client, dst: dst, keepalive: keepalive, next: 1024}
}

// OpenN opens n new persistent connections (SYN only — the holder
// does not wait for establishment; the prober inspects the server
// vSwitch's session table).
//
// Source ports cycle through the 16-bit space; beyond ~64k flows the
// source IP is varied to keep 5-tuples distinct, as a multi-client
// workload would.
func (h *FlowHolder) OpenN(n int) {
	if n <= 0 {
		return
	}
	syns := make([]*packet.Packet, 0, n)
	tuples := make([]packet.FiveTuple, 0, n)
	for i := 0; i < n; i++ {
		h.next++
		if h.next < 1024 {
			h.next = 1024
			h.nextIPOff++
		}
		ft := packet.FiveTuple{
			SrcIP: h.client.IP + packet.IPv4(h.nextIPOff<<8),
			DstIP: h.dst, SrcPort: h.next, DstPort: ServerPort,
			Proto: packet.ProtoTCP,
		}
		h.open = append(h.open, ft)
		tuples = append(tuples, ft)
		p := packet.GetStamped(int64(h.loop.Now()), h.client.nextID(), h.client.VPC, h.client.VNIC, ft, packet.DirTX, packet.FlagSYN, 0)
		syns = append(syns, p)
	}
	h.client.vs.FromVMBurst(syns)
	// Complete the handshakes shortly after (the server SYNACKs are in
	// flight): persistent flows must reach Established or the short SYN
	// aging reclaims them (§7.3). One event acks the whole batch.
	h.loop.Schedule(20*sim.Millisecond, func() {
		acks := make([]*packet.Packet, 0, len(tuples))
		for _, ft := range tuples {
			ack := packet.GetStamped(int64(h.loop.Now()), h.client.nextID(), h.client.VPC, h.client.VNIC, ft, packet.DirTX, packet.FlagACK, 0)
			acks = append(acks, ack)
		}
		h.client.vs.FromVMBurst(acks)
	})
}

// RampN opens n connections paced evenly over the window — an
// instantaneous burst would just hit the CPU queueing bound.
func (h *FlowHolder) RampN(n int, window sim.Time) {
	if n <= 0 {
		return
	}
	gap := window / sim.Time(n)
	for i := 0; i < n; i++ {
		h.loop.Schedule(gap*sim.Time(i), func() { h.OpenN(1) })
	}
}

// KeepAlivePaced spreads one keepalive per open flow evenly over the
// window, avoiding a burst that would just hit the CPU queue bound.
func (h *FlowHolder) KeepAlivePaced(window sim.Time) {
	n := len(h.open)
	if n == 0 {
		return
	}
	gap := window / sim.Time(n)
	for i, ft := range h.open {
		ft := ft
		h.loop.Schedule(gap*sim.Time(i), func() {
			p := packet.GetStamped(int64(h.loop.Now()), h.client.nextID(), h.client.VPC, h.client.VNIC, ft, packet.DirTX, packet.FlagACK, 32)
			h.client.vs.FromVM(p)
		})
	}
}

// SYNFlood sends a stream of SYNs from spoofed ports that never
// complete handshakes — the §7.3 memory-pressure attack on the BE.
type SYNFlood struct {
	loop    *sim.Loop
	rng     *sim.Rand
	vs      *vswitch.VSwitch
	vnic    uint32
	vpc     uint32
	srcIP   packet.IPv4
	dst     packet.IPv4
	rate    float64
	idGen   *uint64
	ticker  sim.EventRef
	pending bool // the next SYN is queued
	done    bool
	Sent    uint64
}

// floodSYN is a SYNFlood seen as the sim.Task that sends its next SYN.
type floodSYN SYNFlood

// NewSYNFlood builds a flood source injecting at the given vSwitch.
func NewSYNFlood(loop *sim.Loop, rng *sim.Rand, vs *vswitch.VSwitch, vnic, vpc uint32, srcIP, dst packet.IPv4, rate float64, idGen *uint64) *SYNFlood {
	return &SYNFlood{loop: loop, rng: rng, vs: vs, vnic: vnic, vpc: vpc, srcIP: srcIP, dst: dst, rate: rate, idGen: idGen}
}

// Start begins flooding until Stop. Starting a running flood is a
// no-op.
func (f *SYNFlood) Start() {
	f.done = false
	if !f.pending {
		f.arm()
	}
}

// Stop halts the flood.
func (f *SYNFlood) Stop() {
	f.done = true
	f.pending = false
	f.ticker.Cancel()
}

func (f *SYNFlood) arm() {
	if f.done || f.rate <= 0 {
		return
	}
	gap := sim.Time(f.rng.ExpFloat64() / f.rate * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	f.pending = true
	f.ticker = f.loop.AtTask(f.loop.Now()+gap, (*floodSYN)(f))
}

// Run sends one spoofed SYN and arms the next.
func (t *floodSYN) Run() {
	f := (*SYNFlood)(t)
	f.pending = false
	if f.done {
		return
	}
	*f.idGen++
	ft := packet.FiveTuple{
		SrcIP: f.srcIP, DstIP: f.dst,
		SrcPort: uint16(1024 + f.rng.Intn(60000)), DstPort: ServerPort,
		Proto: packet.ProtoTCP,
	}
	p := packet.GetStamped(int64(f.loop.Now()), *f.idGen, f.vpc, f.vnic, ft, packet.DirTX, packet.FlagSYN, 0)
	f.Sent++
	f.vs.FromVM(p)
	f.arm()
}

// Pinger emits fixed-rate single-flow traffic for latency probing
// (Fig 12's single flow at adjustable packet rate).
type Pinger struct {
	loop  *sim.Loop
	vm    *VM
	dst   packet.IPv4
	sport uint16
}

// NewPinger builds a single-flow source from vm to dst.
func NewPinger(loop *sim.Loop, vm *VM, dst packet.IPv4, sport uint16) *Pinger {
	return &Pinger{loop: loop, vm: vm, dst: dst, sport: sport}
}

// Run emits n packets at the given per-second rate on one flow (the
// flow is pre-established with a SYN so subsequent packets ride the
// fast path).
func (pg *Pinger) Run(rate float64, n int) {
	ft := packet.FiveTuple{
		SrcIP: pg.vm.IP, DstIP: pg.dst,
		SrcPort: pg.sport, DstPort: ServerPort, Proto: packet.ProtoTCP,
	}
	syn := packet.GetStamped(int64(pg.loop.Now()), pg.vm.nextID(), pg.vm.VPC, pg.vm.VNIC, ft, packet.DirTX, packet.FlagSYN, 0)
	pg.vm.vs.FromVM(syn)
	gap := sim.Time(float64(sim.Second) / rate)
	for i := 1; i <= n; i++ {
		i := i
		pg.loop.Schedule(gap*sim.Time(i), func() {
			p := packet.GetStamped(int64(pg.loop.Now()), pg.vm.nextID(), pg.vm.VPC, pg.vm.VNIC, ft, packet.DirTX, packet.FlagACK, 64)
			pg.vm.vs.FromVM(p)
		})
	}
}
