package cluster

import (
	"fmt"
	"math"

	"nezha/internal/controller"
	"nezha/internal/monitor"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/policy"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// The hotspot world's address plan. Client i has vNIC i+1 and IP
// 10.0.(1+i).1; the server VM has vNIC ServerVNIC and IP ServerIP, so
// client i = ServerVNIC-1 would take over the server's identity.
const (
	ServerVNIC = 100
	VPC        = 7
	maxClients = 98
)

// ServerIP is the server VM's overlay address.
var ServerIP = packet.MakeIP(10, 0, 100, 1)

// ClientIP returns client i's overlay address.
func ClientIP(i int) packet.IPv4 { return packet.MakeIP(10, 0, byte(1+i), 1) }

// Spec describes the hotspot world nearly every Nezha result runs on
// (paper §1, §6): one server VM whose vSwitch saturates, client VMs on
// servers of their own opening short connections to it, and idle
// servers as the remote FE pool. Every server sits under one ToR, so
// FE selection is unconstrained. A Spec is a plain value: two equal
// Specs build the same world.
type Spec struct {
	Seed    int64
	Servers int
	Clients int
	// ClientCPS is each client's CRR open rate.
	ClientCPS   float64
	ClientVCPUs int
	ServerVCPUs int
	// ServerKernelScale scales the server VM's kernel capacity (0 =
	// unscaled), as in VMSpec.KernelScale.
	ServerKernelScale float64
	// ServerFirst puts the server VM on server 0 and client i on
	// server i+1; otherwise client i is on server i and the server VM
	// on server Clients. Either way the pool is the servers after
	// Clients.
	ServerFirst bool
	// WideRoute adds a 10.0.0.0/8 route ahead of the server vNIC's
	// per-client /32 routes.
	WideRoute bool
	// ACLPad pads the server vNIC's rules with this many allow rules
	// (the fat rule tables of the memory experiments).
	ACLPad int
	// FullScale keeps every vSwitch's default CPU instead of Scaled.
	FullScale bool
	// ServerMem and PoolMem override the memory budget (bytes) of the
	// server VM's vSwitch and of each pool vSwitch (0 = default).
	ServerMem, PoolMem int
	// Controller overrides the control-plane policy (zero value =
	// defaults); ProbeInterval the monitor's probe period (0 = the
	// monitor's default).
	Controller    controller.Config
	ProbeInterval sim.Time
	// Obs, Prof, Policy and SLO attach as the same Options fields do.
	Obs    *obs.Obs
	Prof   *prof.Profiler
	Policy *policy.Config
	SLO    *slo.Tracker
}

// DefaultSpec is nezha-sim's world: 24 servers, 8 16-vCPU clients
// offering 20 000 CPS in all to one 64-vCPU server VM.
func DefaultSpec() Spec {
	return Spec{Seed: 1, Servers: 24, Clients: 8, ClientCPS: 2500, ClientVCPUs: 16, ServerVCPUs: 64}
}

// Scaled gives a vSwitch 2 cores at 500 MHz (≈7.4K CPS monolithic
// through the five-table slow path) so hotspots form at event rates a
// discrete-event simulation sweeps in seconds. It fits
// Options.VSwitch.
func Scaled(_ int, cfg *vswitch.Config) {
	cfg.Cores = 2
	cfg.CoreHz = 500_000_000
}

// CheckSize reports whether the address plan holds clients and the
// region has a server for each client plus one for the server VM.
func CheckSize(servers, clients int) error {
	switch {
	case clients < 1 || clients > maxClients:
		return fmt.Errorf("%d clients: the address plan holds 1 to %d", clients, maxClients)
	case servers <= clients:
		return fmt.Errorf("%d clients need %d servers, have %d", clients, clients+1, servers)
	}
	return nil
}

// serverIndex is the server hosting the server VM.
func (s Spec) serverIndex() int {
	if s.ServerFirst {
		return 0
	}
	return s.Clients
}

// ServerRules builds the server vNIC's rule tables: the wide route
// when set, a /32 back to each client, and the ACL padding.
func (s Spec) ServerRules() *tables.RuleSet {
	rs := tables.NewRuleSet(ServerVNIC, VPC)
	if s.WideRoute {
		rs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 0, 0), 8), 0)
	}
	for i := 0; i < s.Clients; i++ {
		rs.Route.Add(tables.MakePrefix(ClientIP(i), 32), packet.IPv4(uint32(i+1)))
	}
	for i := 0; i < s.ACLPad; i++ {
		rs.ACL.Add(tables.ACLRule{Priority: 1000 + i, Verdict: tables.VerdictAllow})
	}
	return rs
}

// World is a built hotspot world. Its generators are not started.
type World struct {
	*Cluster
	Spec    Spec
	Server  *workload.VM
	Clients []*workload.VM
	Gens    []*workload.CRR
}

// Build assembles the world s describes: the cluster, the server VM,
// then each client VM with its CRR generator aimed at the server.
func Build(s Spec) (*World, error) {
	if err := CheckSize(s.Servers, s.Clients); err != nil {
		return nil, err
	}
	if r := s.ClientCPS; !(r >= 0) || math.IsInf(r, 1) {
		// NaN or +Inf would schedule every connection at one instant.
		return nil, fmt.Errorf("cluster: client rate %v: need a finite rate, 0 or more", r)
	}
	srv := s.serverIndex()
	opts := Options{
		Servers: s.Servers, ServersPerToR: s.Servers, Seed: s.Seed,
		Controller: s.Controller,
		Obs:        s.Obs, Prof: s.Prof, Policy: s.Policy, SLO: s.SLO,
		VSwitch: func(i int, cfg *vswitch.Config) {
			if !s.FullScale {
				Scaled(i, cfg)
			}
			if i == srv && s.ServerMem > 0 {
				cfg.NetMemBytes = s.ServerMem
			} else if i > s.Clients && s.PoolMem > 0 {
				cfg.NetMemBytes = s.PoolMem
			}
		},
	}
	if s.ProbeInterval > 0 {
		opts.Monitor = monitor.DefaultConfig(MonitorAddr)
		opts.Monitor.ProbeInterval = s.ProbeInterval
	}
	w := &World{Cluster: New(opts), Spec: s}

	var err error
	w.Server, err = w.AddVM(VMSpec{
		Server: srv, VNIC: ServerVNIC, VPC: VPC, IP: ServerIP,
		VCPUs: s.ServerVCPUs, KernelScale: s.ServerKernelScale,
		MakeRules: s.ServerRules,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: server VM: %w", err)
	}
	serverNet := tables.MakePrefix(ServerIP, 24)
	for i := 0; i < s.Clients; i++ {
		host := i
		if s.ServerFirst {
			host = i + 1
		}
		vnic := uint32(i + 1)
		vm, err := w.AddVM(VMSpec{
			Server: host, VNIC: vnic, VPC: VPC, IP: ClientIP(i), VCPUs: s.ClientVCPUs,
			MakeRules: TwoSubnetRules(vnic, VPC, serverNet, ServerVNIC),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: client %d: %w", i, err)
		}
		w.Clients = append(w.Clients, vm)
		w.Gens = append(w.Gens, workload.NewCRR(w.Loop, w.Loop.Rand(), vm, ServerIP, s.ClientCPS))
	}
	return w, nil
}

// ServerSwitch is the vSwitch hosting the server VM: its BE.
func (w *World) ServerSwitch() *vswitch.VSwitch { return w.Switches[w.Spec.serverIndex()] }

// Pool is the idle servers' vSwitches, the candidate FEs.
func (w *World) Pool() []*vswitch.VSwitch { return w.Switches[w.Spec.Clients+1:] }

// StartLoad starts every client's generator.
func (w *World) StartLoad() {
	for _, g := range w.Gens {
		g.Start()
	}
}

// StopLoad stops every client's generator; in-flight transactions
// drain.
func (w *World) StopLoad() {
	for _, g := range w.Gens {
		g.Stop()
	}
}

// SetLoad splits a total open rate evenly across the clients.
func (w *World) SetLoad(total float64) {
	per := total / float64(len(w.Gens))
	for _, g := range w.Gens {
		g.SetRate(per)
	}
}

// Completed is the number of transactions the clients completed.
func (w *World) Completed() uint64 {
	var t uint64
	for _, vm := range w.Clients {
		t += vm.Completed
	}
	return t
}

// OffloadStatic offloads vnic from be to exactly the given FEs, with
// no controller involved: install the FE rules from mkRules on each,
// start the BE's dual-running stage, point the gateway at the FEs,
// run the 300 ms learning interval, and finalize.
func (c *Cluster) OffloadStatic(vnic uint32, be *vswitch.VSwitch, fes []*vswitch.VSwitch, mkRules func() *tables.RuleSet) error {
	addrs := make([]packet.IPv4, len(fes))
	for i, fe := range fes {
		if err := fe.InstallFE(mkRules(), be.Addr(), false); err != nil {
			return err
		}
		addrs[i] = fe.Addr()
	}
	if err := be.OffloadStart(vnic, addrs); err != nil {
		return err
	}
	c.GW.Set(vnic, addrs...)
	c.Loop.Run(c.Loop.Now() + 300*sim.Millisecond)
	return be.OffloadFinalize(vnic)
}
