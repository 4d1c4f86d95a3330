package fabric

import (
	"nezha/internal/obs"
	"nezha/internal/packet"
)

// EnableObs publishes the fabric's packet-conservation ledger into
// the registry and turns on per-hop flight tracing for sampled
// packets. The counters are registered as snapshot-time funcs — the
// fabric's plain fields are owned by the sim goroutine, which is also
// where snapshots run — so the Send hot path only pays for tracing,
// and only on sampled packets.
func (f *Fabric) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	f.tr = o.Tracer
	r := o.Reg
	r.Help("fabric_sends_total", "Packets handed to the fabric for transmission.")
	r.Help("fabric_delivered_total", "Packets the fabric delivered to their destination node.")
	r.Help("fabric_lost_total", "Packets lost to partitions or dead destinations.")
	r.Help("fabric_chaos_lost_total", "Packets dropped by the chaos fault injector.")
	r.Help("fabric_bytes_total", "Wire bytes handed to the fabric.")
	r.Help("fabric_inflight", "Packets currently in flight on the wire.")
	r.Help("fabric_nodes", "Nodes attached to the fabric.")
	r.Help("fabric_partitions", "Active partition pairs.")
	r.CounterVar("fabric_sends_total", nil, &f.Sends)
	r.CounterVar("fabric_delivered_total", nil, &f.Delivered)
	r.CounterVar("fabric_lost_total", nil, &f.Lost)
	r.CounterVar("fabric_chaos_lost_total", nil, &f.ChaosLost)
	r.CounterVar("fabric_bytes_total", nil, &f.BytesSent)
	r.GaugeFunc("fabric_inflight", nil, func() float64 { return float64(f.inFlight) })
	r.GaugeFunc("fabric_nodes", nil, func() float64 { return float64(f.nodes.Len()) })
	r.GaugeFunc("fabric_partitions", nil, func() float64 { return float64(len(f.partitions)) })
}

// EnableObs publishes the gateway table size into the registry.
func (g *Gateway) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	o.Reg.Help("gateway_table_size", "vNIC-to-node entries in the gateway forwarding table.")
	o.Reg.GaugeFunc("gateway_table_size", nil, func() float64 { return float64(g.Len()) })
}

// traceHop records a wire-stage hop toward to for sampled packets.
func (f *Fabric) traceHop(id uint64, node packet.IPv4, stage obs.Stage, to packet.IPv4) {
	if f.tr == nil || !f.tr.Sampled(id) {
		return
	}
	f.tr.Hop(id, obs.Hop{At: f.loop.Now(), Node: node, Stage: stage, Flags: obs.HasTo, To: to})
}
