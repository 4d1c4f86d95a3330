package experiments

import (
	"fmt"

	"nezha/internal/cluster"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// The experiments run on a scaled cluster: vSwitches get 2 cores at
// 500 MHz (≈7.4K CPS monolithic capacity through the five-table slow
// path) so hotspots form at event rates a discrete-event simulation
// sweeps in seconds. All ratios — the paper's actual claims — are
// scale-invariant.
const (
	rigCores  = 2
	rigCoreHz = 500_000_000
	// rigMonoCPS is the monolithic capacity at this scale, used to
	// size offered loads.
	rigMonoCPS = 7400
	// rigKernelScale keeps the production VM-to-vSwitch capability
	// ratio (a 64-vCPU VM ≈3x the vSwitch's CPS) at rig scale.
	rigKernelScale = 1.0 / 27.0
)

const (
	rigVPC        = 7
	rigServerVNIC = 100
)

var rigServerIP = packet.MakeIP(10, 0, 100, 1)

func rigClientIP(i int) packet.IPv4 { return packet.MakeIP(10, 0, byte(1+i%200), byte(1+i/200)) }

// rig is the standard hotspot scenario: nClients client VMs on their
// own servers all talking to one high-demand server VM, with a pool
// of idle servers available as FEs.
type rig struct {
	c       *cluster.Cluster
	clients []*workload.VM
	server  *workload.VM
	gens    []*workload.CRR
}

// rigOpts tunes the scenario.
type rigOpts struct {
	nClients   int
	poolSize   int
	serverVCPU int
	seed       int64
	// netMem overrides the server switches' memory budget (bytes);
	// 0 keeps the default.
	netMem int
	// ruleFat inflates the server vNIC's rule tables by this many ACL
	// rules (drives the memory experiments).
	ruleFat int
	// variableState turns on §7.1 variable-size state slots.
	variableState bool
	// kernelScale scales the server VM's kernel capacity to keep the
	// production VM/vSwitch capability ratio at rig scale (≈1/27).
	kernelScale float64
}

func newRig(o rigOpts) (*rig, error) {
	if o.nClients == 0 {
		o.nClients = 8
	}
	if o.poolSize == 0 {
		o.poolSize = 10
	}
	if o.serverVCPU == 0 {
		o.serverVCPU = 64
	}
	servers := o.nClients + 1 + o.poolSize
	c := cluster.New(cluster.Options{
		Servers:       servers,
		ServersPerToR: servers, // one ToR: FE selection unconstrained
		Seed:          o.seed,
		VSwitch: func(i int, cfg *vswitch.Config) {
			cfg.Cores = rigCores
			cfg.CoreHz = rigCoreHz
			if o.netMem > 0 {
				cfg.NetMemBytes = o.netMem
			}
			cfg.VariableState = o.variableState
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
		for i := 0; i < o.ruleFat; i++ {
			rs.ACL.Add(tables.ACLRule{Priority: 1000 + i, Verdict: tables.VerdictAllow})
		}
		return rs
	}
	var err error
	r.server, err = c.AddVM(cluster.VMSpec{
		Server: serverIdx, VNIC: rigServerVNIC, VPC: rigVPC,
		IP: rigServerIP, VCPUs: o.serverVCPU, KernelScale: o.kernelScale,
		MakeRules: mkServerRules,
	})
	if err != nil {
		return nil, fmt.Errorf("rig server VM: %w", err)
	}
	serverNet := tables.MakePrefix(packet.MakeIP(10, 0, 100, 0), 24)
	for i := 0; i < o.nClients; i++ {
		vnic := uint32(i + 1)
		vm, err := c.AddVM(cluster.VMSpec{
			Server: i, VNIC: vnic, VPC: rigVPC, IP: rigClientIP(i), VCPUs: 16,
			MakeRules: cluster.TwoSubnetRules(vnic, rigVPC, serverNet, rigServerVNIC),
		})
		if err != nil {
			return nil, fmt.Errorf("rig client %d: %w", i, err)
		}
		r.clients = append(r.clients, vm)
		r.gens = append(r.gens, workload.NewCRR(c.Loop, c.Loop.Rand(), vm, rigServerIP, 0))
	}
	return r, nil
}

func (r *rig) serverSwitch() *vswitch.VSwitch { return r.c.Switch(len(r.clients)) }

func (r *rig) setRates(total float64) {
	per := total / float64(len(r.gens))
	for _, g := range r.gens {
		g.SetRate(per)
	}
}

func (r *rig) startAll() {
	for _, g := range r.gens {
		g.Start()
	}
}

func (r *rig) stopAll() {
	for _, g := range r.gens {
		g.Stop()
	}
}

func (r *rig) totalCompleted() uint64 {
	var t uint64
	for _, vm := range r.clients {
		t += vm.Completed
	}
	return t
}

// feRules builds the rule set installed on FEs for the server vNIC
// (stateless copy; routes only — the fat padding stays home).
func (r *rig) feRules() *tables.RuleSet {
	rs := tables.NewRuleSet(rigServerVNIC, rigVPC)
	rs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 0, 0), 8), 0)
	for i := range r.clients {
		rs.Route.Add(tables.MakePrefix(rigClientIP(i), 32), packet.IPv4(uint32(i+1)))
	}
	return rs
}

// offloadTo force-offloads the server vNIC to exactly k FEs placed on
// the idle pool servers (the testbed's "other servers serve as a
// remote resource pool"), with auto-scaling disabled.
func (r *rig) offloadTo(k int) error {
	return r.offloadToWith(k, r.feRules)
}

// offloadToWith is offloadTo with a custom FE rule factory.
func (r *rig) offloadToWith(k int, mkRules func() *tables.RuleSet) error {
	if k <= 0 {
		return nil
	}
	serverIdx := len(r.clients)
	poolStart := serverIdx + 1
	if poolStart+k > len(r.c.Switches) {
		return fmt.Errorf("pool too small for %d FEs", k)
	}
	be := r.serverSwitch()
	var feAddrs []packet.IPv4
	for i := 0; i < k; i++ {
		fe := r.c.Switch(poolStart + i)
		if err := fe.InstallFE(mkRules(), be.Addr(), false); err != nil {
			return err
		}
		feAddrs = append(feAddrs, fe.Addr())
	}
	if err := be.OffloadStart(rigServerVNIC, feAddrs); err != nil {
		return err
	}
	r.c.GW.Set(rigServerVNIC, feAddrs...)
	// Final stage after the learning interval.
	r.c.Loop.Run(r.c.Loop.Now() + 300*sim.Millisecond)
	return be.OffloadFinalize(rigServerVNIC)
}

// measureClosedCPS measures CPS capability with closed-loop CRR
// workers (netperf style): throughput converges to the bottleneck
// capacity instead of collapsing under overload.
func (r *rig) measureClosedCPS(workersPerClient int, window sim.Time) float64 {
	var gens []*workload.ClosedCRR
	for _, vm := range r.clients {
		g := workload.NewClosedCRR(r.c.Loop, vm, rigServerIP, workersPerClient, 100*sim.Millisecond)
		g.Start()
		gens = append(gens, g)
	}
	warm := window / 3
	r.c.Loop.Run(r.c.Loop.Now() + warm)
	start := r.totalCompleted()
	t0 := r.c.Loop.Now()
	r.c.Loop.Run(t0 + (window - warm))
	elapsed := (r.c.Loop.Now() - t0).Seconds()
	done := r.totalCompleted() - start
	for _, g := range gens {
		g.Stop()
	}
	return float64(done) / elapsed
}

// measureCPS runs the generators at offered CPS for the window and
// returns completed transactions/sec over the final 2/3 of it.
func (r *rig) measureCPS(offered float64, window sim.Time) float64 {
	r.setRates(offered)
	r.startAll()
	warm := window / 3
	r.c.Loop.Run(r.c.Loop.Now() + warm)
	start := r.totalCompleted()
	t0 := r.c.Loop.Now()
	r.c.Loop.Run(t0 + (window - warm))
	elapsed := (r.c.Loop.Now() - t0).Seconds()
	done := r.totalCompleted() - start
	r.stopAll()
	return float64(done) / elapsed
}
