package experiments

import (
	"nezha/internal/cluster"
	"nezha/internal/fabric"
	"nezha/internal/flowcache"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// Fig 9: performance gain under different #FEs, auto-scaling
// disabled. Three curves: CPS gain (saturates ≈3.3x beyond 4 FEs at
// the VM kernel), #vNICs gain (proportional to #FEs), #concurrent
// flows gain (saturates ≈3.8x beyond 4 FEs at local state memory).
func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Performance gain under different #FEs",
		Paper: "CPS →≈3.3x and #flows →≈3.8x saturating at 4 FEs; #vNICs ∝ #FEs",
		Run:   runFig9,
	})
}

func runFig9(cfg RunConfig) *Result {
	feCounts := []int{0, 1, 2, 4, 6, 8}
	if cfg.Quick {
		feCounts = []int{0, 1, 4}
	}

	t := NewTable("#FEs", "CPS", "CPS-gain", "#vNICs", "vNIC-gain", "#flows", "flow-gain")
	var baseCPS, baseVNIC, baseFlows float64
	csCPS := &Series{Name: "fig9-cps-gain"}
	csVNIC := &Series{Name: "fig9-vnic-gain"}
	csFlows := &Series{Name: "fig9-flow-gain"}

	for _, k := range feCounts {
		cps := fig9CPS(cfg, k)
		vnics := float64(fig9VNICs(cfg, k))
		flows := float64(fig9Flows(cfg, k))
		if k == 0 {
			baseCPS, baseVNIC, baseFlows = cps, vnics, flows
		}
		t.AddRow(k, cps, cps/baseCPS, vnics, vnics/baseVNIC, flows, flows/baseFlows)
		csCPS.Record(float64(k), cps/baseCPS)
		csVNIC.Record(float64(k), vnics/baseVNIC)
		csFlows.Record(float64(k), flows/baseFlows)
	}
	return &Result{
		ID: "fig9", Title: "Gain vs #FEs",
		Tables: []*Table{t},
		Series: []*Series{csCPS, csVNIC, csFlows},
		Notes: []string{
			"CPS saturates once the VM kernel becomes the bottleneck (§6.2.2)",
			"#vNICs: each vNIC's rule tables land on one FE of the pool, so capacity scales with pool size",
			"#flows: bounded by min(BE state memory, Σ FE cached-flow memory) — the knee is where the BE side takes over",
		},
	}
}

// fig9CPS measures closed-loop CPS capability with the server vNIC
// offloaded to exactly k FEs (k=0: monolithic baseline). The server
// VM gets one vCPU so its kernel cap sits ≈3x above the monolithic
// vSwitch capacity — the Fig 9 saturation ceiling. Both directions of
// a session hash to different FEs (the paper's plain 5-tuple hashing,
// no symmetric hashing), so each session costs the pool two rule
// walks; the pool overtakes the VM bottleneck around 4–6 FEs.
func fig9CPS(cfg RunConfig, k int) float64 {
	s := rigSpec(cfg.Seed, 12, 10)
	s.ServerKernelScale = rigKernelScale
	r := newRig(s)
	if err := r.offloadTo(k); err != nil {
		panic(err)
	}
	window := 6 * sim.Second
	if cfg.Quick {
		window = 2 * sim.Second
	}
	return r.measureClosedCPS(24, window)
}

// fig9VNICs measures how many vNICs one BE can host. The BE's rule
// memory is small (a busy SmartNIC); FE machines are idle with 4x
// the budget. Offloaded vNICs charge the BE only the 2 KB BE-data
// record; their tables go to one FE of the pool (round-robin).
func fig9VNICs(cfg RunConfig, k int) int {
	loop := sim.NewLoop(cfg.Seed)
	fab := fabric.New(loop)
	gw := fabric.NewGateway(loop)
	const beMem = 16 << 20
	const feMem = 64 << 20
	be := vswitch.New(loop, fab, gw, vswitch.Config{
		Addr: packet.MakeIP(10, 9, 0, 1), NetMemBytes: beMem,
	})
	var fes []*vswitch.VSwitch
	for i := 0; i < k; i++ {
		fes = append(fes, vswitch.New(loop, fab, gw, vswitch.Config{
			Addr: packet.MakeIP(10, 9, 1, byte(i+1)), NetMemBytes: feMem,
		}))
	}
	mkRules := func(vnic uint32) *tables.RuleSet {
		rs := tables.NewRuleSet(vnic, cluster.VPC)
		// ~2 MB of rule tables (the paper's production minimum).
		for i := 0; i < (2<<20)/tables.ACLRuleBytes; i++ {
			rs.ACL.Add(tables.ACLRule{Priority: i, Verdict: tables.VerdictAllow})
		}
		return rs
	}
	count := 0
	limit := 100000
	if cfg.Quick {
		limit = 2000
	}
	for vnic := uint32(1); int(vnic) <= limit; vnic++ {
		if k == 0 {
			if be.AddVNIC(mkRules(vnic), false) != nil {
				break
			}
			count++
			continue
		}
		fe := fes[int(vnic)%k]
		if fe.InstallFE(mkRules(vnic), be.Addr(), false) != nil {
			break
		}
		// The BE records only BE data for an offloaded vNIC. Use the
		// real workflow: install minimal rules, offload, finalize.
		tiny := tables.NewRuleSet(vnic, cluster.VPC)
		if be.AddVNIC(tiny, false) != nil {
			fe.RemoveFE(vnic)
			break
		}
		if be.OffloadStart(vnic, []packet.IPv4{fe.Addr()}) != nil {
			break
		}
		if be.OffloadFinalize(vnic) != nil {
			break
		}
		count++
	}
	return count
}

// fig9Flows measures concurrent-flow capacity: persistent flows are
// ramped and held with keepalives; capacity = min(states held at the
// BE, cached flows held across the FEs) — uncached FE flows re-run
// rule lookups per packet, which the paper (and this model) treats as
// unsustainable.
func fig9Flows(cfg RunConfig, k int) int {
	// The flow-capacity rig: a tiny memory budget on the server (BE),
	// smaller still on the pool, fat (~6 MB) rule tables on the server
	// vNIC, and full-scale CPUs, so this experiment isolates the
	// memory bottleneck. Budgets sized so the knee lands near 4 FEs:
	// monolithic entries (192 B) in a small session partition;
	// offloading frees the fat rule tables, growing BE state capacity
	// ~4x; each FE contributes roughly a quarter of that in cached-flow
	// space.
	s := rigSpec(cfg.Seed, 8, 10)
	s.FullScale = true
	s.ServerMem, s.PoolMem = 10<<20, 4<<20
	s.ACLPad = (6 << 20) / tables.ACLRuleBytes
	r := newRig(s)
	if err := r.offloadTo(k); err != nil {
		panic(err)
	}
	target := 120000
	ramp := 6 * sim.Second
	if cfg.Quick {
		target = 30000
		ramp = 2 * sim.Second
	}
	h := workload.NewFlowHolder(r.Loop, r.Clients[0], cluster.ServerIP, sim.Second)
	h.RampN(target, ramp)
	// Paced keepalive sweeps defeat the 8 s established aging.
	r.Loop.Schedule(ramp, func() { h.KeepAlivePaced(2 * sim.Second) })
	r.Loop.Schedule(ramp+4*sim.Second, func() { h.KeepAlivePaced(2 * sim.Second) })
	r.Loop.Run(r.Loop.Now() + ramp + 7*sim.Second)

	be := r.ServerSwitch()
	states := 0
	be.Sessions().Range(func(e *flowcache.Entry) bool {
		if e.HasState() && be.Sessions().Key(e).VNIC == cluster.ServerVNIC {
			states++
		}
		return true
	})
	if k == 0 {
		return states
	}
	cached := 0
	for i := 0; i < len(r.Switches); i++ {
		vs := r.Switch(i)
		if !vs.HostsFE(cluster.ServerVNIC) {
			continue
		}
		vs.Sessions().Range(func(e *flowcache.Entry) bool {
			if e.HasPre() && vs.Sessions().Key(e).VNIC == cluster.ServerVNIC {
				cached++
			}
			return true
		})
	}
	if cached < states {
		return cached
	}
	return states
}
