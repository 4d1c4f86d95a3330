// Package fabric simulates the datacenter underlay: servers attached
// to ToR switches under an aggregation layer, links with realistic
// latency, and the gateway that owns the global vNIC-server mapping
// table which vSwitches learn from on demand (§4.2.1).
//
// Delivery is event-driven on the shared simulation loop. The fabric
// itself never drops packets (the paper assumes a well-provisioned
// 100 Gbps+ underlay); loss happens only at overloaded or crashed
// vSwitches.
package fabric

import (
	"fmt"

	"nezha/internal/dense"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/slab"
)

// Link latencies: one-way delay between two servers. Values follow
// typical intra-DC numbers; the paper's "extra hop adds a few tens of
// microseconds" emerges from these.
const (
	LatencySameToR  = 5 * sim.Microsecond
	LatencyInterToR = 15 * sim.Microsecond
	LinkBandwidth   = 100e9 / 8 // bytes/sec (100 Gbps)
)

// Handler receives packets delivered to a node.
type Handler func(p *packet.Packet)

// BurstHandler receives a coalesced burst: packets that arrived on the
// same link at the same instant, in send order. Nodes without one get
// the burst unrolled through their per-packet Handler.
type BurstHandler func(ps []*packet.Packet)

// FaultVerdict is a fault injector's decision for one send.
type FaultVerdict struct {
	// Drop loses the packet at the link.
	Drop bool
	// SkipAccounting suppresses the ChaosLost counter for this drop.
	// It exists solely so chaos tests can deliberately break packet
	// conservation and prove the invariant checker catches it; real
	// fault models must leave it false.
	SkipAccounting bool
	// Jitter is added to the link latency (delivery reordering relative
	// to other flows emerges from per-packet jitter).
	Jitter sim.Time
}

// FaultInjector is consulted once per Send after the reachability
// checks. It must be deterministic given the simulation state (seed
// its randomness from sim.Rand, never the wall clock).
type FaultInjector func(from, to packet.IPv4, p *packet.Packet) FaultVerdict

type node struct {
	addr    packet.IPv4
	tor     int
	handler Handler
	burst   BurstHandler
	// gone is set when the node leaves the fabric (Unregister, or a
	// Register that replaces it): a delivery already in flight holds the
	// node pointer and reads this instead of looking the address up again.
	gone bool
}

// Fabric is the underlay network.
type Fabric struct {
	loop *sim.Loop
	// ids indexes the addresses registered (package dense); nodes is
	// the node table under it. An address is resolved once per send.
	ids   dense.Index
	nodes dense.Table[node]
	// partitions holds failed server pairs (normalized low,high):
	// rare in practice thanks to fast-failover groups, but exactly
	// the case the FE–BE mutual ping exists for (Appendix C.1).
	partitions map[[2]packet.IPv4]bool

	// wireMode forces every packet through the real wire encoding
	// (Marshal at send, Unmarshal at delivery): anything the datapath
	// needs but the wire format does not carry becomes a loud test
	// failure instead of a silent simulation convenience.
	wireMode bool

	// faults, when set, injects stochastic loss and latency jitter per
	// link (the chaos engine's hook point).
	faults FaultInjector

	// tr, when set by EnableObs, records wire hops for sampled packets.
	tr *obs.FlightTracer

	// inFlight counts packets accepted by Send whose delivery event has
	// not yet resolved (delivered or lost).
	inFlight uint64

	// tasks recycles delivery events (deliverTask), each with its
	// same-deadline group buffer, so a delivery is scheduled without
	// allocating a closure or a group slice.
	tasks slab.Pool[deliverTask]

	// serMemo caches the serialization-delay computation for the last
	// size seen: burst traffic is near-uniform, so the float math runs
	// once per size run instead of once per packet. The zero value is
	// correct (size 0 serializes in 0 time).
	serMemoSize int
	serMemoVal  sim.Time

	// Sends counts every Send call. Delivered counts packets handed to
	// node handlers; Lost counts sends to unregistered destinations,
	// across partitions (at send or delivery time), or failing wire
	// decode; ChaosLost counts packets the fault injector dropped. At
	// any event boundary Sends == Delivered + Lost + ChaosLost +
	// InFlight() — the packet-conservation ledger chaos invariants
	// check. BytesSent totals wire bytes offered to the fabric — the
	// §6.4 BE–FE bandwidth-overhead accounting.
	Sends     uint64
	Delivered uint64
	Lost      uint64
	ChaosLost uint64
	BytesSent uint64
}

// New builds an empty fabric on loop.
func New(loop *sim.Loop) *Fabric {
	return &Fabric{loop: loop, partitions: make(map[[2]packet.IPv4]bool)}
}

// node returns the node registered at addr, or nil.
func (f *Fabric) node(addr packet.IPv4) *node {
	if i, ok := f.ids.Lookup(uint32(addr)); ok {
		return f.nodes.At(i)
	}
	return nil
}

// partitioned is Partitioned without the map probe while no pair is
// severed, as on every send of a healthy run.
func (f *Fabric) partitioned(a, b packet.IPv4) bool {
	return len(f.partitions) != 0 && f.partitions[pairKey(a, b)]
}

func pairKey(a, b packet.IPv4) [2]packet.IPv4 {
	if a > b {
		a, b = b, a
	}
	return [2]packet.IPv4{a, b}
}

// Partition severs connectivity between two servers (both ways).
func (f *Fabric) Partition(a, b packet.IPv4) { f.partitions[pairKey(a, b)] = true }

// Heal restores a severed pair.
func (f *Fabric) Heal(a, b packet.IPv4) { delete(f.partitions, pairKey(a, b)) }

// Partitioned reports whether the pair is severed.
func (f *Fabric) Partitioned(a, b packet.IPv4) bool { return f.partitions[pairKey(a, b)] }

// SetWireMode toggles full wire serialization on every delivery.
func (f *Fabric) SetWireMode(on bool) { f.wireMode = on }

// SetFaultInjector installs (or with nil, removes) the per-send fault
// model.
func (f *Fabric) SetFaultInjector(fn FaultInjector) { f.faults = fn }

// InFlight reports packets accepted by Send that have neither been
// delivered nor lost yet.
func (f *Fabric) InFlight() uint64 { return f.inFlight }

// Register attaches a server at addr under ToR tor with a delivery
// handler. Re-registering an address replaces its handler; the address
// keeps its index.
func (f *Fabric) Register(addr packet.IPv4, tor int, h Handler) {
	i := f.ids.Intern(uint32(addr))
	if old := f.nodes.At(i); old != nil {
		old.gone = true
	}
	f.nodes.Set(i, &node{addr: addr, tor: tor, handler: h})
}

// Unregister detaches a server (a crashed SmartNIC stops receiving).
func (f *Fabric) Unregister(addr packet.IPv4) {
	if i, ok := f.ids.Lookup(uint32(addr)); ok {
		if n := f.nodes.At(i); n != nil {
			n.gone = true
			f.nodes.Set(i, nil)
		}
	}
}

// SetHandler swaps a node's handler in place.
func (f *Fabric) SetHandler(addr packet.IPv4, h Handler) error {
	n := f.node(addr)
	if n == nil {
		return fmt.Errorf("fabric: no node at %v", addr)
	}
	n.handler = h
	return nil
}

// SetBurstHandler installs a coalesced-delivery handler for a node.
// SendBurst hands it whole same-instant bursts; per-packet Send still
// goes through the plain Handler.
func (f *Fabric) SetBurstHandler(addr packet.IPv4, h BurstHandler) error {
	n := f.node(addr)
	if n == nil {
		return fmt.Errorf("fabric: no node at %v", addr)
	}
	n.burst = h
	return nil
}

// propTo returns the propagation delay from from to the registered
// node dst: same-ToR when from is registered under dst's ToR,
// inter-ToR otherwise (an unregistered source included).
func (f *Fabric) propTo(from packet.IPv4, dst *node) sim.Time {
	if src := f.node(from); src != nil && src.tor == dst.tor {
		return LatencySameToR
	}
	return LatencyInterToR
}

// serTime returns the link serialization delay for size bytes, memoized
// on the last size seen.
func (f *Fabric) serTime(size int) sim.Time {
	if size != f.serMemoSize {
		f.serMemoSize = size
		f.serMemoVal = sim.Time(float64(size) / LinkBandwidth * float64(sim.Second))
	}
	return f.serMemoVal
}

// Send delivers p from one server to another after the link latency
// (plus any injected jitter). Sending to an unregistered destination
// counts as lost, as does a partition active at either end of the
// flight: a partition raised mid-flight kills the frames already on
// the wire. The packet's hop counter advances on delivery.
//
// Ownership, for Send and SendBurst alike (DESIGN.md §10): the fabric
// takes every packet it is handed. One it loses — unknown or
// partitioned destination, fault-injector drop, lost in flight, wire
// decode failure — it releases to the pool; a delivered one passes to
// the handler. The caller must not touch a packet after sending it.
func (f *Fabric) Send(from, to packet.IPv4, p *packet.Packet) {
	p.CheckLive()
	f.Sends++
	dst := f.node(to)
	if dst == nil || f.partitioned(from, to) {
		f.lose(p, from, to)
		return
	}
	lat := f.propTo(from, dst) + f.serTime(p.SizeBytes)
	if f.faults != nil && f.faulted(from, to, p, &lat) {
		return
	}
	f.BytesSent += uint64(p.SizeBytes)
	t := f.getTask(from, to, dst)
	if f.wireMode {
		t.group = append(t.group, p)
		f.deliverBurst(t, lat)
		return
	}
	f.inFlight++
	t.one = p
	f.loop.AtTask(f.loop.Now()+lat, t)
}

// faulted consults the fault injector for one send. It reports true when
// the injector dropped p — accounted, traced and released here — and
// otherwise adds any injected jitter to *lat.
func (f *Fabric) faulted(from, to packet.IPv4, p *packet.Packet, lat *sim.Time) bool {
	v := f.faults(from, to, p)
	if v.Drop {
		if !v.SkipAccounting {
			f.ChaosLost++
		}
		f.traceHop(p, from, obs.StageChaosLost, to)
		p.Release()
		return true
	}
	if v.Jitter > 0 {
		*lat += v.Jitter
	}
	return false
}

// lose accounts p as lost on the from→to link and releases it.
func (f *Fabric) lose(p *packet.Packet, from, to packet.IPv4) {
	f.Lost++
	f.traceHop(p, from, obs.StageWireLost, to)
	p.Release()
}

// SendBurst delivers a batch of packets from one server to another,
// coalescing consecutive packets that land at the same instant into a
// single delivery event. Semantics match len(ps) individual Sends —
// same counters, same fault-injector consultation order, same delivery
// order (one burst event delivering in slice order is FIFO-equivalent
// to the per-packet events it replaces) — but the receiver takes one
// event (and, with a BurstHandler, one call) per deadline instead of
// one per packet.
//
// Ownership is Send's: every packet in ps is the fabric's from here on
// (the slice itself is not retained).
func (f *Fabric) SendBurst(from, to packet.IPv4, ps []*packet.Packet) {
	// The destination, partition state, and propagation delay cannot
	// change mid-call: fault injectors are pure per-send draws (the
	// FaultInjector contract) and no events run inside one burst, so
	// the scalar path's per-packet checks hoist to one check here.
	dst := f.node(to)
	if dst == nil || f.partitioned(from, to) {
		for _, p := range ps {
			p.CheckLive()
			f.Sends++
			f.lose(p, from, to)
		}
		return
	}
	prop := f.propTo(from, dst)
	t := f.getTask(from, to, dst)
	var groupLat sim.Time
	for _, p := range ps {
		p.CheckLive()
		f.Sends++
		lat := prop + f.serTime(p.SizeBytes)
		if f.faults != nil && f.faulted(from, to, p, &lat) {
			continue
		}
		f.BytesSent += uint64(p.SizeBytes)
		if len(t.group) > 0 && lat != groupLat {
			f.deliverBurst(t, groupLat)
			t = f.getTask(from, to, dst)
		}
		groupLat = lat
		t.group = append(t.group, p)
	}
	if len(t.group) > 0 {
		f.deliverBurst(t, groupLat)
	} else {
		f.tasks.Put(t)
	}
}

// deliverBurst schedules t's group of packets, which share a deadline,
// for delivery. Reachability is re-checked at delivery time, as in
// Send; in wire mode each packet is marshaled now and decoded at
// delivery. The group buffer stays with the task — the handlers take
// the packets, never the slice.
func (f *Fabric) deliverBurst(t *deliverTask, lat sim.Time) {
	f.inFlight += uint64(len(t.group))
	if f.wireMode {
		// A debugging mode, so the wire slice per group stays acceptable.
		t.wires = make([][]byte, len(t.group))
		for i, p := range t.group {
			t.wires[i] = p.Marshal()
		}
	}
	f.loop.AtTask(f.loop.Now()+lat, t)
}

// deliverTask is one scheduled delivery, pooled on the fabric and
// scheduled via sim.Loop.AtTask so a delivery event allocates nothing:
// SendBurst's same-deadline group, or Send's single packet (one),
// which needs no group slice and goes to the per-packet handler. In
// wire mode, wires holds the group's encodings, decoded at delivery;
// each original is released once its copy is decoded (or it is lost).
// It re-checks reachability at delivery time.
type deliverTask struct {
	f        *Fabric
	from, to packet.IPv4
	dst      *node
	group    []*packet.Packet
	wires    [][]byte
	one      *packet.Packet
}

func (f *Fabric) getTask(from, to packet.IPv4, dst *node) *deliverTask {
	t := f.tasks.Get()
	t.f, t.from, t.to, t.dst, t.group = f, from, to, dst, t.group[:0]
	return t
}

// Run fires the delivery. A lone packet's task recycles itself before
// the handler runs — fields are copied out first, so a handler that
// reenters Send can reuse the struct; a group's task recycles once the
// handlers are done with its buffer.
func (t *deliverTask) Run() {
	f, from, to, dst, group, wires, one := t.f, t.from, t.to, t.dst, t.group, t.wires, t.one
	t.dst, t.wires, t.one = nil, nil, nil
	// The destination may have crashed or been replaced (dst.gone), or
	// the pair partitioned, while in flight.
	ok := !dst.gone && !f.partitioned(from, to)
	if one != nil {
		f.tasks.Put(t)
		f.inFlight--
		if !ok || dst.handler == nil {
			f.lose(one, from, to)
			return
		}
		one.Hops++
		f.Delivered++
		f.traceHop(one, from, obs.StageWire, to)
		dst.handler(one)
		return
	}
	f.inFlight -= uint64(len(group))
	if !ok || (dst.handler == nil && dst.burst == nil) {
		for i, p := range group {
			if wires != nil {
				packet.PutBuf(wires[i])
			}
			f.lose(p, from, to)
		}
		f.tasks.Put(t)
		return
	}
	if wires != nil {
		decoded := group[:0]
		for i, w := range wires {
			p := group[i]
			q, err := packet.Unmarshal(w)
			packet.PutBuf(w)
			if err != nil {
				f.lose(p, from, to)
				continue
			}
			p.Release()
			decoded = append(decoded, q)
		}
		group = decoded
	}
	for _, q := range group {
		q.Hops++
		f.Delivered++
		f.traceHop(q, from, obs.StageWire, to)
	}
	if dst.burst != nil {
		dst.burst(group)
	} else {
		for _, q := range group {
			dst.handler(q)
		}
	}
	f.tasks.Put(t)
}
