package vswitch

import (
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
	queueWait *obs.Histogram // CPU queueing+service delay, ns
	util      *nic.UtilMeter
}

// The flight tracer renders drop hops with DropReason names.
func init() { obs.SetDropNames(dropCauseNames()) }

// EnableObs publishes this vSwitch's datapath statistics into the
// registry and turns on flight tracing for sampled packets. Counter
// mirrors are snapshot-time funcs over the plain Stats fields (owned
// by the sim goroutine, where snapshots run); only the queue-wait
// histogram and sampled hops touch the hot path.
func (vs *VSwitch) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	node := vs.cfg.Addr.String()
	lbl := obs.L("node", node)
	vs.ob = &vsObs{
		bundle:    o,
		tr:        o.Tracer,
		flows:     o.Flows,
		queueWait: o.Reg.GetHistogram("vswitch_queue_wait_ns", lbl),
		util:      nic.NewUtilMeter(vs.cpu),
	}
	r := o.Reg
	r.Help("vswitch_queue_wait_ns", "CPU queueing plus service delay per packet, nanoseconds.")
	r.Help("vswitch_from_vm_total", "Packets received from local VMs.")
	r.Help("vswitch_from_net_total", "Packets received from the fabric.")
	r.Help("vswitch_delivered_total", "Packets delivered to local VMs.")
	r.Help("vswitch_sent_total", "Packets sent onto the fabric.")
	r.Help("vswitch_absorbed_total", "Packets absorbed locally (probes, control).")
	r.Help("vswitch_fastpath_total", "Packets served by the offloaded fast path.")
	r.Help("vswitch_slowpath_total", "Packets that took the slow path (rule evaluation).")
	r.Help("vswitch_notify_sent_total", "Session-notify messages sent to peers.")
	r.Help("vswitch_notify_recv_total", "Session-notify messages received.")
	r.Help("vswitch_probes_seen_total", "Health probes answered.")
	r.Help("vswitch_mirrored_total", "Packets mirrored by rule action.")
	r.Help("vswitch_flow_logged_total", "Packets flow-logged by rule action.")
	r.Help("vswitch_nat_rewrites_total", "NAT header rewrites performed.")
	r.Help("vswitch_cycles_local_total", "CPU cycles spent on this node's own vNIC traffic.")
	r.Help("vswitch_cycles_remote_total", "CPU cycles spent serving offloaded (FE) traffic.")
	r.Help("vswitch_drops_total", "Packets dropped, by reason.")
	r.Help("vswitch_sessions", "Entries in the session table.")
	r.Help("vswitch_mem_util", "Session-table memory utilization, 0..1.")
	r.Help("vswitch_cpu_util", "Datapath CPU utilization sample, 0..1.")
	r.Help("vswitch_inflight_cpu", "Packets queued or executing on datapath cores.")
	r.Help("vswitch_vnics", "vNICs homed on this vSwitch.")
	r.Help("vswitch_fes_hosted", "FE shards this vSwitch hosts for remote vNICs.")
	r.Help("vswitch_vnics_offloaded", "Homed vNICs currently offloaded to an FE pool.")
	r.Help("vswitch_crashed", "1 while the vSwitch is crashed, else 0.")
	mirror := func(name string, f *uint64) { r.CounterVar(name, lbl, f) }
	mirror("vswitch_from_vm_total", &vs.Stats.FromVM)
	mirror("vswitch_from_net_total", &vs.Stats.FromNet)
	mirror("vswitch_delivered_total", &vs.Stats.Delivered)
	mirror("vswitch_sent_total", &vs.Stats.Sent)
	mirror("vswitch_absorbed_total", &vs.Stats.Absorbed)
	mirror("vswitch_fastpath_total", &vs.Stats.FastPath)
	mirror("vswitch_slowpath_total", &vs.Stats.SlowPath)
	mirror("vswitch_notify_sent_total", &vs.Stats.NotifySent)
	mirror("vswitch_notify_recv_total", &vs.Stats.NotifyRecv)
	mirror("vswitch_probes_seen_total", &vs.Stats.ProbesSeen)
	mirror("vswitch_mirrored_total", &vs.Stats.Mirrored)
	mirror("vswitch_flow_logged_total", &vs.Stats.FlowLogged)
	mirror("vswitch_nat_rewrites_total", &vs.Stats.NATRewrites)
	r.CounterFunc("vswitch_cycles_local_total", lbl, vs.CyclesLocal)
	r.CounterFunc("vswitch_cycles_remote_total", lbl, vs.CyclesRemote)
	// The drop-reason label sets, {node, reason} in canonical order,
	// share one allocation.
	drops := new([numDropReasons][2]obs.Label)
	for reason := DropReason(0); reason < numDropReasons; reason++ {
		drops[reason] = [2]obs.Label{{K: "node", V: node}, {K: "reason", V: reason.String()}}
		r.CounterVar("vswitch_drops_total", drops[reason][:], &vs.Stats.Drops[reason])
	}
	r.GaugeFunc("vswitch_sessions", lbl, func() float64 { return float64(vs.sessions.Len()) })
	r.GaugeFunc("vswitch_mem_util", lbl, func() float64 { return vs.MemUtilization() })
	r.GaugeFunc("vswitch_cpu_util", lbl, func() float64 { return vs.ob.util.Sample() })
	r.GaugeFunc("vswitch_inflight_cpu", lbl, func() float64 { return float64(vs.inFlightCPU) })
	r.GaugeFunc("vswitch_vnics", lbl, func() float64 { return float64(vs.vnics.Len()) })
	r.GaugeFunc("vswitch_fes_hosted", lbl, func() float64 { return float64(vs.fes.Len()) })
	r.GaugeFunc("vswitch_vnics_offloaded", lbl, func() float64 {
		n := 0
		vs.vnics.Each(func(vn *vnicState) {
			if vn.offloaded {
				n++
			}
		})
		return float64(n)
	})
	r.GaugeFunc("vswitch_crashed", lbl, func() float64 {
		if vs.crashed {
			return 1
		}
		return 0
	})
}

// hop records a simple stage hop for a sampled packet.
func (vs *VSwitch) hop(p *packet.Packet, stage obs.Stage) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p.ID) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: stage})
}

// hopEncap records a hop that added encapsulation bytes.
func (vs *VSwitch) hopEncap(p *packet.Packet, stage obs.Stage, encapBytes int) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p.ID) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: stage, EncapBytes: uint32(encapBytes)})
}

// hopLookup records the session-table verdict.
func (vs *VSwitch) hopLookup(p *packet.Packet, hit bool) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p.ID) {
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
	if !vs.ob.tr.Sampled(p.ID) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageCPU, Cycles: cycles, QueueWait: wait})
}

// hopPick records the gateway-learner pick that chose the next hop.
func (vs *VSwitch) hopPick(p *packet.Packet, addr packet.IPv4) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p.ID) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageGWPick, Flags: obs.HasTo, To: addr})
}

// hopDrop records the packet's terminal drop with its reason.
func (vs *VSwitch) hopDrop(p *packet.Packet, r DropReason) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p.ID) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageDrop, Drop: uint8(r)})
}

// hopDeliver records final VM delivery and charges the flow table.
func (vs *VSwitch) hopDeliver(p *packet.Packet) {
	if vs.ob == nil || !vs.ob.tr.Sampled(p.ID) {
		return
	}
	vs.ob.tr.Hop(p.ID, obs.Hop{At: vs.loop.Now(), Node: vs.cfg.Addr, Stage: obs.StageDeliver})
	vs.ob.flows.Observe(p.Tuple, p.SizeBytes)
}
