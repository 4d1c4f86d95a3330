package experiments

import (
	"fmt"

	"nezha/internal/cluster"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/workload"
)

// The experiments run on a scaled cluster: vSwitches get 2 cores at
// 500 MHz (≈7.4K CPS monolithic capacity through the five-table slow
// path) so hotspots form at event rates a discrete-event simulation
// sweeps in seconds. All ratios — the paper's actual claims — are
// scale-invariant.
const (
	// rigMonoCPS is the monolithic capacity at this scale, used to
	// size offered loads.
	rigMonoCPS = 7400
	// rigKernelScale keeps the production VM-to-vSwitch capability
	// ratio (a 64-vCPU VM ≈3x the vSwitch's CPS) at rig scale.
	rigKernelScale = 1.0 / 27.0
)

// rig is the standard hotspot world (cluster.Spec): nClients client
// VMs on their own servers all talking to one high-demand server VM,
// with a pool of idle servers available as FEs. Its generators start
// at rate 0.
type rig struct{ *cluster.World }

// rigSpec is the rig's world: nClients clients, poolSize idle
// servers, and a 64-vCPU server VM whose vNIC also routes 10.0.0.0/8.
func rigSpec(seed int64, nClients, poolSize int) cluster.Spec {
	return cluster.Spec{
		Seed: seed, Servers: nClients + 1 + poolSize, Clients: nClients,
		ClientVCPUs: 16, ServerVCPUs: 64, WideRoute: true,
	}
}

// newRig builds s. The experiments' specs are fixed and fit the
// address plan, so an error is a bug.
func newRig(s cluster.Spec) *rig {
	w, err := cluster.Build(s)
	if err != nil {
		panic(err)
	}
	return &rig{w}
}

// feRules builds the rule set installed on FEs for the server vNIC
// (stateless copy; routes only — the fat padding stays home).
func (r *rig) feRules() *tables.RuleSet {
	s := r.Spec
	s.ACLPad = 0
	return s.ServerRules()
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
	pool := r.Pool()
	if k > len(pool) {
		return fmt.Errorf("pool too small for %d FEs", k)
	}
	return r.OffloadStatic(cluster.ServerVNIC, r.ServerSwitch(), pool[:k], mkRules)
}

// measureClosedCPS measures CPS capability with closed-loop CRR
// workers (netperf style): throughput converges to the bottleneck
// capacity instead of collapsing under overload.
func (r *rig) measureClosedCPS(workersPerClient int, window sim.Time) float64 {
	var gens []*workload.ClosedCRR
	for _, vm := range r.Clients {
		g := workload.NewClosedCRR(r.Loop, vm, cluster.ServerIP, workersPerClient, 100*sim.Millisecond)
		g.Start()
		gens = append(gens, g)
	}
	warm := window / 3
	r.Loop.Run(r.Loop.Now() + warm)
	start := r.Completed()
	t0 := r.Loop.Now()
	r.Loop.Run(t0 + (window - warm))
	elapsed := (r.Loop.Now() - t0).Seconds()
	done := r.Completed() - start
	for _, g := range gens {
		g.Stop()
	}
	return float64(done) / elapsed
}

// measureCPS runs the generators at offered CPS for the window and
// returns completed transactions/sec over the final 2/3 of it.
func (r *rig) measureCPS(offered float64, window sim.Time) float64 {
	r.SetLoad(offered)
	r.StartLoad()
	warm := window / 3
	r.Loop.Run(r.Loop.Now() + warm)
	start := r.Completed()
	t0 := r.Loop.Now()
	r.Loop.Run(t0 + (window - warm))
	elapsed := (r.Loop.Now() - t0).Seconds()
	done := r.Completed() - start
	r.StopLoad()
	return float64(done) / elapsed
}
