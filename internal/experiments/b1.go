package experiments

import (
	"nezha/internal/cluster"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// Appendix B.1: FE placement. FEs under the BE's own ToR minimize the
// added latency, and FEs with similar attributes keep the experience
// consistent across the flows of one vNIC (different flows hash to
// different FEs; if one FE sits racks away, some flows are
// mysteriously slower). Measured: probe latency through a same-ToR
// pool vs a cross-ToR pool vs a mixed pool (the consistency failure).
func init() {
	register(Experiment{
		ID:    "b1",
		Title: "FE placement: same-ToR vs cross-ToR vs mixed pools",
		Paper: "select FEs under the same ToR with similar attributes; mixed placement makes flows of one vNIC observe different latencies",
		Run:   runB1,
	})
}

func runB1(cfg RunConfig) *Result {
	flows := 64
	if cfg.Quick {
		flows = 16
	}
	// Topology: three racks. BE + idle servers in ToR 0, the client in
	// ToR 1, and a distant rack of idle servers in ToR 2. A "cross"
	// FE adds a full extra inter-rack traversal (client→FE and FE→BE
	// both leave the rack); a same-ToR FE only pays the client→rack
	// leg that the direct path pays anyway.
	measure := func(pick func(i int) int) *slo.Samples {
		c := cluster.New(cluster.Options{
			Servers: 18, ServersPerToR: 6, Seed: cfg.Seed,
		})
		const (
			beIdx     = 0 // ToR 0
			clientIdx = 6 // ToR 1
			vnic      = 100
			cvnic     = 1
			vpc       = 1
		)
		serverIP := packet.MakeIP(10, 0, 9, 1)
		clientIP := packet.MakeIP(10, 0, 1, 1)
		serverRules := cluster.TwoSubnetRules(vnic, vpc, tables.MakePrefix(clientIP, 32), cvnic)
		if _, err := c.AddVM(cluster.VMSpec{
			Server: beIdx, VNIC: vnic, VPC: vpc, IP: serverIP, VCPUs: 16,
			MakeRules: serverRules,
		}); err != nil {
			panic(err)
		}
		clientVM, err := c.AddVM(cluster.VMSpec{
			Server: clientIdx, VNIC: cvnic, VPC: vpc, IP: clientIP, VCPUs: 16,
			MakeRules: cluster.TwoSubnetRules(cvnic, vpc, tables.MakePrefix(packet.MakeIP(10, 0, 9, 0), 24), vnic),
		})
		if err != nil {
			panic(err)
		}
		_ = clientVM

		// Install 4 FEs at the chosen placements.
		be := c.Switch(beIdx)
		fes := make([]*vswitch.VSwitch, 4)
		for i := range fes {
			fes[i] = c.Switch(pick(i))
		}
		if err := c.OffloadStatic(vnic, be, fes, serverRules); err != nil {
			panic(err)
		}

		// Per-flow latency: many distinct flows, each hashing to some
		// FE; record each flow's delivery latency.
		lat := new(slo.Samples)
		be.SetDelivery(func(v uint32, p *packet.Packet, l sim.Time) {
			if p.PayloadLen > 0 {
				lat.Observe(l.Micros())
			}
		})
		for f := 0; f < flows; f++ {
			pg := workload.NewPinger(c.Loop, clientVM, serverIP, uint16(6000+f))
			pg.Run(1000, 10)
		}
		c.Loop.Run(c.Loop.Now() + sim.Second)
		return lat
	}

	sameToR := measure(func(i int) int { return 1 + i })                // servers 1-4: the BE's rack
	crossToR := measure(func(i int) int { return 12 + i })              // servers 12-15: a third rack
	mixed := measure(func(i int) int { return []int{1, 2, 12, 13}[i] }) // half near, half far

	t := NewTable("placement", "lat-us(avg)", "lat-us(p50)", "lat-us(p99)", "spread p99/p50")
	add := func(name string, h *slo.Samples) {
		p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
		t.AddRow(name, h.Mean(), p50, p99, p99/p50)
	}
	add("same ToR as BE", sameToR)
	add("cross ToR", crossToR)
	add("mixed (2+2)", mixed)
	return &Result{
		ID: "b1", Title: "FE placement",
		Tables: []*Table{t},
		Notes: []string{
			"same-ToR pools are fastest; mixed pools split the vNIC's flows into two latency classes (the spread column) — exactly why B.1 demands similar attributes",
		},
	}
}
