package experiments

import (
	"fmt"
	"math"

	"nezha/internal/cluster"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// A region-scale end-to-end run tying the motivation (§2) to the
// solution: many tenants with Zipf-skewed demand share a region, so a
// handful of vSwitches overload while most sit idle (Figs 2–4 as an
// emergent phenomenon, not synthetic telemetry). With the controller
// on, the hot vNICs offload onto the idle majority and the overloads
// disappear.
func init() {
	register(Experiment{
		ID:    "region",
		Title: "Region with Zipf tenant skew: hotspots emerge, Nezha dissolves them",
		Paper: "ties §2's motivation (few hot vSwitches, many idle) to §6.3's outcome (overloads resolved) in one live run",
		Run:   runRegion,
	})
}

const (
	regionTenants = 12
	regionPool    = 12
)

type regionOutcome struct {
	completed  uint64
	overloaded int // tenant-home switches with steady-state overload
	maxUtil    float64
	offloads   uint64
}

func runRegionOnce(cfg RunConfig, nezha bool, dur sim.Time) regionOutcome {
	nServers := 2*regionTenants + regionPool
	c := cluster.New(cluster.Options{
		Servers: nServers, ServersPerToR: nServers, Seed: cfg.Seed,
		VSwitch: cluster.Scaled,
	})

	// Tenant i: client VM on server i, server VM on server
	// regionTenants+i. Distinct VPCs isolate the tenants.
	type tenant struct {
		client *workload.VM
		gen    *workload.CRR
	}
	tenants := make([]tenant, regionTenants)
	for i := 0; i < regionTenants; i++ {
		vpc := uint32(100 + i)
		cVNIC, sVNIC := uint32(1000+2*i), uint32(1000+2*i+1)
		cIP := packet.MakeIP(10, byte(10+i), 1, 1)
		sIP := packet.MakeIP(10, byte(10+i), 2, 1)
		srvIdx := regionTenants + i
		if _, err := c.AddVM(cluster.VMSpec{
			Server: srvIdx, VNIC: sVNIC, VPC: vpc, IP: sIP, VCPUs: 64,
			KernelScale: rigKernelScale,
			MakeRules:   cluster.TwoSubnetRules(sVNIC, vpc, tables.MakePrefix(cIP, 32), cVNIC),
		}); err != nil {
			panic(err)
		}
		vm, err := c.AddVM(cluster.VMSpec{
			Server: i, VNIC: cVNIC, VPC: vpc, IP: cIP, VCPUs: 16,
			MakeRules: cluster.TwoSubnetRules(cVNIC, vpc, tables.MakePrefix(sIP, 32), sVNIC),
		})
		if err != nil {
			panic(err)
		}
		tenants[i] = tenant{client: vm}
	}

	// Zipf demand: tenant rank i gets share ∝ 1/(i+1)^1.6 of the
	// aggregate (Table 1's heavy-user skew at small scale): the top
	// tenant alone overloads its vSwitch; the tail barely registers.
	total := 2.2 * rigMonoCPS
	var norm float64
	for i := 0; i < regionTenants; i++ {
		norm += 1 / math.Pow(float64(i+1), 1.6)
	}
	for i := range tenants {
		rate := total * (1 / math.Pow(float64(i+1), 1.6)) / norm
		g := workload.NewCRR(c.Loop, c.Loop.Rand(), tenants[i].client,
			packet.MakeIP(10, byte(10+i), 2, 1), rate)
		tenants[i].gen = g
		g.Start()
	}

	if nezha {
		c.Start()
	}

	// Track peak utilization across tenant-server switches.
	maxUtil := 0.0
	meters := make([]*nic.UtilMeter, 0, regionTenants)
	for i := 0; i < regionTenants; i++ {
		meters = append(meters, nic.NewUtilMeter(c.Switch(regionTenants+i).CPU()))
	}
	c.Loop.Every(500*sim.Millisecond, func() {
		for _, m := range meters {
			if u := m.Sample(); u > maxUtil {
				maxUtil = u
			}
		}
	})

	// Steady-state accounting starts at mid-run, after offloads have
	// settled (Table 4: activation completes in ~1-3 s).
	baseDrops := make([]uint64, regionTenants)
	c.Loop.At(dur/2, func() {
		maxUtil = 0
		for i := 0; i < regionTenants; i++ {
			baseDrops[i] = c.Switch(regionTenants + i).Stats.Drops[vswitch.DropOverload]
		}
	})

	c.Loop.Run(dur)
	for _, tn := range tenants {
		tn.gen.Stop()
	}
	c.Loop.Run(c.Loop.Now() + sim.Second)

	var out regionOutcome
	for _, tn := range tenants {
		out.completed += tn.client.Completed
	}
	// A hotspot is a tenant-home vSwitch with sustained overload
	// drops in the steady state (after activation settles) — the
	// paper's per-vNIC overload definition.
	for i := 0; i < regionTenants; i++ {
		vs := c.Switch(regionTenants + i)
		if vs.Stats.Drops[vswitch.DropOverload]-baseDrops[i] > uint64(dur.Seconds())*50 {
			out.overloaded++
		}
	}
	out.maxUtil = maxUtil
	out.offloads = c.Ctrl.Stats.Offloads
	return out
}

func runRegion(cfg RunConfig) *Result {
	dur := 15 * sim.Second
	if cfg.Quick {
		dur = 6 * sim.Second
	}
	before := runRegionOnce(cfg, false, dur)
	after := runRegionOnce(cfg, true, dur)

	t := NewTable("metric", "without Nezha", "with Nezha")
	t.AddRow("overloaded tenant vSwitches", before.overloaded, after.overloaded)
	t.AddRow("peak tenant-switch CPU %", before.maxUtil*100, after.maxUtil*100)
	t.AddRow("completed transactions", before.completed, after.completed)
	t.AddRow("offload events", before.offloads, after.offloads)
	return &Result{
		ID: "region", Title: "Zipf region end-to-end",
		Tables: []*Table{t},
		Notes: []string{
			fmt.Sprintf("throughput gain %.2fx with the same hardware — the idle majority absorbs the hot minority",
				float64(after.completed)/float64(before.completed)),
			"hotspots are emergent here (Zipf demand), not synthesized: the §2 motivation reproduced live",
		},
	}
}
