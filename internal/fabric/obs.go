package fabric

import (
	"nezha/internal/obs"
	"nezha/internal/packet"
)

// EnableObs publishes the fabric's packet-conservation ledger into
// the registry and turns on per-hop flight tracing for sampled
// packets. The counters are rows of fabricTable, read at snapshot time
// — the fabric's plain fields are owned by the sim goroutine, which is
// also where snapshots run — so the Send hot path only pays for
// tracing, and only on sampled packets.
func (f *Fabric) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	f.tr = o.Tracer
	obs.Register(o.Reg, f, nil, &fabricTable)
}

var fabricTable = obs.Table[Fabric]{Series: []obs.Series[Fabric]{
	{Name: "fabric_sends_total", Help: "Packets handed to the fabric for transmission.", Kind: obs.KindCounter,
		Value: func(f *Fabric) float64 { return float64(f.Sends) }},
	{Name: "fabric_delivered_total", Help: "Packets the fabric delivered to their destination node.", Kind: obs.KindCounter,
		Value: func(f *Fabric) float64 { return float64(f.Delivered) }},
	{Name: "fabric_lost_total", Help: "Packets lost to partitions or dead destinations.", Kind: obs.KindCounter,
		Value: func(f *Fabric) float64 { return float64(f.Lost) }},
	{Name: "fabric_chaos_lost_total", Help: "Packets dropped by the chaos fault injector.", Kind: obs.KindCounter,
		Value: func(f *Fabric) float64 { return float64(f.ChaosLost) }},
	{Name: "fabric_bytes_total", Help: "Wire bytes handed to the fabric.", Kind: obs.KindCounter,
		Value: func(f *Fabric) float64 { return float64(f.BytesSent) }},
	{Name: "fabric_inflight", Help: "Packets currently in flight on the wire.", Kind: obs.KindGauge,
		Value: func(f *Fabric) float64 { return float64(f.inFlight) }},
	{Name: "fabric_nodes", Help: "Nodes attached to the fabric.", Kind: obs.KindGauge,
		Value: func(f *Fabric) float64 { return float64(f.nodes.Len()) }},
	{Name: "fabric_partitions", Help: "Active partition pairs.", Kind: obs.KindGauge,
		Value: func(f *Fabric) float64 { return float64(len(f.partitions)) }},
}}

// EnableObs publishes the gateway table size into the registry.
func (g *Gateway) EnableObs(o *obs.Obs) {
	if o != nil {
		obs.Register(o.Reg, g, nil, &gatewayTable)
	}
}

var gatewayTable = obs.Table[Gateway]{Series: []obs.Series[Gateway]{
	{Name: "gateway_table_size", Help: "vNIC-to-node entries in the gateway forwarding table.", Kind: obs.KindGauge,
		Value: func(g *Gateway) float64 { return float64(g.Len()) }},
}}

// traceHop records a wire-stage hop toward to for sampled packets.
func (f *Fabric) traceHop(p *packet.Packet, node packet.IPv4, stage obs.Stage, to packet.IPv4) {
	if f.tr == nil || !f.tr.Sampled(p) {
		return
	}
	f.tr.Hop(p.ID, obs.Hop{At: f.loop.Now(), Node: node, Stage: stage, Flags: obs.HasTo, To: to})
}
