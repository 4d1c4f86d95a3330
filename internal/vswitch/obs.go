package vswitch

import (
	"slices"

	"nezha/internal/nic"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
)

// vsObs holds the vSwitch's pre-bound observability handles. The hot
// path pays nothing when vs.ob is nil; with obs enabled it pays one
// histogram observe per CPU completion and, for sampled packets only,
// hop recording.
type vsObs struct {
	bundle    *obs.Obs
	tr        *obs.FlightTracer
	flows     *obs.FlowTop
	queueWait obs.Histogram // CPU queueing+service delay, ns
	util      nic.UtilMeter
}

// The flight tracer renders drop hops with DropReason names.
func init() { obs.SetDropNames(dropCauseNames) }

// EnableObs publishes this vSwitch's datapath statistics into the
// registry and turns on flight tracing for sampled packets. The
// counters are rows of vsTable, read from the plain Stats fields at
// snapshot time (on the sim goroutine, which owns them); only the
// queue-wait histogram and sampled hops touch the hot path.
func (vs *VSwitch) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	lbl := obs.L("node", vs.node.Node) // the ledger's node name is the address
	vs.ob = &vsObs{bundle: o, tr: o.Tracer, flows: o.Flows}
	vs.ob.util.Start(&vs.cpu)
	obs.Register(o.Reg, vs, lbl, &vsTable)
}

// stat is a vsTable row that reads a Stats field.
func stat(name, help string, field func(*Counters) *uint64) obs.Series[VSwitch] {
	return obs.Series[VSwitch]{Name: name, Help: help, Kind: obs.KindCounter,
		Value: func(vs *VSwitch) float64 { return float64(*field(&vs.Stats)) }}
}

func gauge(name, help string, value func(vs *VSwitch) float64) obs.Series[VSwitch] {
	return obs.Series[VSwitch]{Name: name, Help: help, Kind: obs.KindGauge, Value: value}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// vsTable is every series a vSwitch exports.
var vsTable = obs.Table[VSwitch]{Series: slices.Concat([]obs.Series[VSwitch]{
	{Name: "vswitch_queue_wait_ns", Help: "CPU queueing plus service delay per packet, nanoseconds.", Kind: obs.KindHistogram,
		Hist: func(vs *VSwitch) *obs.Histogram { return &vs.ob.queueWait }},
	stat("vswitch_from_vm_total", "Packets received from local VMs.", func(s *Counters) *uint64 { return &s.FromVM }),
	stat("vswitch_from_net_total", "Packets received from the fabric.", func(s *Counters) *uint64 { return &s.FromNet }),
	stat("vswitch_delivered_total", "Packets delivered to local VMs.", func(s *Counters) *uint64 { return &s.Delivered }),
	stat("vswitch_sent_total", "Packets sent onto the fabric.", func(s *Counters) *uint64 { return &s.Sent }),
	stat("vswitch_absorbed_total", "Packets absorbed locally (probes, control).", func(s *Counters) *uint64 { return &s.Absorbed }),
	stat("vswitch_fastpath_total", "Packets served by the offloaded fast path.", func(s *Counters) *uint64 { return &s.FastPath }),
	stat("vswitch_slowpath_total", "Packets that took the slow path (rule evaluation).", func(s *Counters) *uint64 { return &s.SlowPath }),
	stat("vswitch_notify_sent_total", "Session-notify messages sent to peers.", func(s *Counters) *uint64 { return &s.NotifySent }),
	stat("vswitch_notify_recv_total", "Session-notify messages received.", func(s *Counters) *uint64 { return &s.NotifyRecv }),
	stat("vswitch_probes_seen_total", "Health probes answered.", func(s *Counters) *uint64 { return &s.ProbesSeen }),
	stat("vswitch_mirrored_total", "Packets mirrored by rule action.", func(s *Counters) *uint64 { return &s.Mirrored }),
	stat("vswitch_flow_logged_total", "Packets flow-logged by rule action.", func(s *Counters) *uint64 { return &s.FlowLogged }),
	stat("vswitch_nat_rewrites_total", "NAT header rewrites performed.", func(s *Counters) *uint64 { return &s.NATRewrites }),
	{Name: "vswitch_cycles_local_total", Help: "CPU cycles spent on this node's own vNIC traffic.", Kind: obs.KindCounter,
		Value: func(vs *VSwitch) float64 { return float64(vs.CyclesLocal()) }},
	{Name: "vswitch_cycles_remote_total", Help: "CPU cycles spent serving offloaded (FE) traffic.", Kind: obs.KindCounter,
		Value: func(vs *VSwitch) float64 { return float64(vs.CyclesRemote()) }},
}, dropSeries(), []obs.Series[VSwitch]{
	gauge("vswitch_sessions", "Entries in the session table.", func(vs *VSwitch) float64 { return float64(vs.sessions.Len()) }),
	gauge("vswitch_mem_util", "Session-table memory utilization, 0..1.", (*VSwitch).MemUtilization),
	gauge("vswitch_cpu_util", "Datapath CPU utilization sample, 0..1.", func(vs *VSwitch) float64 { return vs.ob.util.Sample() }),
	gauge("vswitch_inflight_cpu", "Packets queued or executing on datapath cores.", func(vs *VSwitch) float64 { return float64(vs.inFlightCPU) }),
	gauge("vswitch_vnics", "vNICs homed on this vSwitch.", func(vs *VSwitch) float64 { return float64(vs.vnics.Len()) }),
	gauge("vswitch_fes_hosted", "FE shards this vSwitch hosts for remote vNICs.", func(vs *VSwitch) float64 { return float64(vs.fes.Len()) }),
	gauge("vswitch_vnics_offloaded", "Homed vNICs currently offloaded to an FE pool.", func(vs *VSwitch) float64 {
		n := 0
		vs.vnics.Each(func(vn *vnicState) {
			if vn.offloaded {
				n++
			}
		})
		return float64(n)
	}),
	gauge("vswitch_crashed", "1 while the vSwitch is crashed, else 0.", func(vs *VSwitch) float64 { return b2f(vs.crashed) }),
})}

// dropSeries is one vswitch_drops_total row per DropReason.
func dropSeries() []obs.Series[VSwitch] {
	rows := make([]obs.Series[VSwitch], numDropReasons)
	for reason := range rows {
		rows[reason] = obs.Series[VSwitch]{
			Name: "vswitch_drops_total", Help: "Packets dropped, by reason.", Kind: obs.KindCounter,
			Labels: obs.Labels{{K: "reason", V: DropReason(reason).String()}},
			Value:  func(vs *VSwitch) float64 { return float64(vs.Stats.Drops[reason]) },
		}
	}
	return rows
}

// hop records a simple stage hop for a sampled packet.
func (vs *VSwitch) hop(p *packet.Packet, stage obs.Stage) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: stage})
}

// hopEncap records a hop that added encapsulation bytes.
func (vs *VSwitch) hopEncap(p *packet.Packet, stage obs.Stage, encapBytes int) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: stage, EncapBytes: uint32(encapBytes)})
}

// hopLookup records the session-table verdict.
func (vs *VSwitch) hopLookup(p *packet.Packet, hit bool) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p) {
		return
	}
	var f obs.HopFlags
	if hit {
		f = obs.TableHit
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageLookup, Flags: f})
}

// hopCPU records the CPU stage with the cycles charged and the queue
// wait actually experienced, and feeds the queue-wait histogram.
func (vs *VSwitch) hopCPU(p *packet.Packet, cycles uint64, wait sim.Time) {
	vs.ob.queueWait.Observe(uint64(wait))
	if !vs.ob.tr.Sampled(p) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageCPU, Cycles: cycles, QueueWait: wait})
}

// hopPick records the gateway-learner pick that chose the next hop.
func (vs *VSwitch) hopPick(p *packet.Packet, addr packet.IPv4) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageGWPick, Flags: obs.HasTo, To: addr})
}

// hopDrop records the packet's terminal drop with its reason.
func (vs *VSwitch) hopDrop(p *packet.Packet, r DropReason) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageDrop, Drop: uint8(r)})
}

// hopDeliver records final VM delivery and charges the flow table.
func (vs *VSwitch) hopDeliver(p *packet.Packet) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageDeliver})
	vs.ob.flows.Observe(p.Tuple, p.SizeBytes)
}
