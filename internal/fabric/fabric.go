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

	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
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
	loop  *sim.Loop
	nodes map[packet.IPv4]*node
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

	// groupFree recycles same-deadline delivery groups. Each group is
	// retained by its delivery closure until the event fires, so this
	// must be a freelist — several groups are in flight at once.
	groupFree [][]*packet.Packet

	// taskFree recycles delivery events (deliverTask) the same way, so
	// the non-wire burst path schedules deliveries without allocating a
	// closure per group.
	taskFree *deliverTask

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
	return &Fabric{
		loop:       loop,
		nodes:      make(map[packet.IPv4]*node),
		partitions: make(map[[2]packet.IPv4]bool),
	}
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
// handler. Re-registering an address replaces its handler.
func (f *Fabric) Register(addr packet.IPv4, tor int, h Handler) {
	if old, ok := f.nodes[addr]; ok {
		old.gone = true
	}
	f.nodes[addr] = &node{addr: addr, tor: tor, handler: h}
}

// Unregister detaches a server (a crashed SmartNIC stops receiving).
func (f *Fabric) Unregister(addr packet.IPv4) {
	if n, ok := f.nodes[addr]; ok {
		n.gone = true
		delete(f.nodes, addr)
	}
}

// SetHandler swaps a node's handler in place.
func (f *Fabric) SetHandler(addr packet.IPv4, h Handler) error {
	n, ok := f.nodes[addr]
	if !ok {
		return fmt.Errorf("fabric: no node at %v", addr)
	}
	n.handler = h
	return nil
}

// SetBurstHandler installs a coalesced-delivery handler for a node.
// SendBurst hands it whole same-instant bursts; per-packet Send still
// goes through the plain Handler.
func (f *Fabric) SetBurstHandler(addr packet.IPv4, h BurstHandler) error {
	n, ok := f.nodes[addr]
	if !ok {
		return fmt.Errorf("fabric: no node at %v", addr)
	}
	n.burst = h
	return nil
}

// propTo returns the propagation delay from from to the registered
// node dst: same-ToR when from is registered under dst's ToR,
// inter-ToR otherwise (an unregistered source included).
func (f *Fabric) propTo(from packet.IPv4, dst *node) sim.Time {
	if src, ok := f.nodes[from]; ok && src.tor == dst.tor {
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

func (f *Fabric) getGroup() []*packet.Packet {
	if n := len(f.groupFree); n > 0 {
		g := f.groupFree[n-1]
		f.groupFree = f.groupFree[:n-1]
		return g
	}
	return make([]*packet.Packet, 0, 32)
}

func (f *Fabric) putGroup(g []*packet.Packet) {
	f.groupFree = append(f.groupFree, g[:0])
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
	dst, ok := f.nodes[to]
	if !ok || f.partitions[pairKey(from, to)] {
		f.lose(p, from, to)
		return
	}
	lat := f.propTo(from, dst) + f.serTime(p.SizeBytes)
	if f.faults != nil && f.faulted(from, to, p, &lat) {
		return
	}
	f.BytesSent += uint64(p.SizeBytes)
	if f.wireMode {
		f.deliverBurst(from, to, dst, append(f.getGroup(), p), lat)
		return
	}
	f.inFlight++
	t := f.getTask(from, to, dst)
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
		f.traceHop(p.ID, from, obs.StageChaosLost, to)
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
	f.traceHop(p.ID, from, obs.StageWireLost, to)
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
	dst, ok := f.nodes[to]
	if !ok || f.partitions[pairKey(from, to)] {
		for _, p := range ps {
			p.CheckLive()
			f.Sends++
			f.lose(p, from, to)
		}
		return
	}
	prop := f.propTo(from, dst)
	group := f.getGroup()
	var groupLat sim.Time
	for _, p := range ps {
		p.CheckLive()
		f.Sends++
		lat := prop + f.serTime(p.SizeBytes)
		if f.faults != nil && f.faulted(from, to, p, &lat) {
			continue
		}
		f.BytesSent += uint64(p.SizeBytes)
		if len(group) > 0 && lat != groupLat {
			f.deliverBurst(from, to, dst, group, groupLat)
			group = f.getGroup()
		}
		groupLat = lat
		group = append(group, p)
	}
	if len(group) > 0 {
		f.deliverBurst(from, to, dst, group, groupLat)
	} else {
		f.putGroup(group)
	}
}

// deliverBurst schedules one delivery event for a group of packets
// sharing a deadline, bound for the registered node dst at to.
// Reachability is re-checked at delivery time, as in Send; in wire
// mode each packet is marshaled now and decoded at delivery.
// The group slice returns to the freelist once the event resolves —
// the handlers take the packets, never the slice.
func (f *Fabric) deliverBurst(from, to packet.IPv4, dst *node, group []*packet.Packet, lat sim.Time) {
	f.inFlight += uint64(len(group))
	t := f.getTask(from, to, dst)
	t.group = group
	if f.wireMode {
		// A debugging mode, so the wire slice per group stays acceptable.
		t.wires = make([][]byte, len(group))
		for i, p := range group {
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
	next     *deliverTask
}

func (f *Fabric) getTask(from, to packet.IPv4, dst *node) *deliverTask {
	t := f.taskFree
	if t == nil {
		t = &deliverTask{f: f}
	} else {
		f.taskFree = t.next
		t.next = nil
	}
	t.from, t.to, t.dst = from, to, dst
	return t
}

// Run fires the delivery. The task recycles itself before touching the
// fabric — fields are copied out first, so handlers that reenter
// Send or SendBurst can reuse the struct safely.
func (t *deliverTask) Run() {
	f, from, to, dst, group, wires, one := t.f, t.from, t.to, t.dst, t.group, t.wires, t.one
	t.dst, t.group, t.wires, t.one = nil, nil, nil, nil
	t.next = f.taskFree
	f.taskFree = t
	// The destination may have crashed or been replaced (dst.gone), or
	// the pair partitioned, while in flight.
	ok := !dst.gone && !f.partitions[pairKey(from, to)]
	if one != nil {
		f.inFlight--
		if !ok || dst.handler == nil {
			f.lose(one, from, to)
			return
		}
		one.Hops++
		f.Delivered++
		f.traceHop(one.ID, from, obs.StageWire, to)
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
		f.putGroup(group)
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
		f.traceHop(q.ID, from, obs.StageWire, to)
	}
	if dst.burst != nil {
		dst.burst(group)
	} else {
		for _, q := range group {
			dst.handler(q)
		}
	}
	f.putGroup(group)
}
