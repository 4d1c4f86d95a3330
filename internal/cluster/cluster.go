// Package cluster assembles a simulated region: servers with
// SmartNIC vSwitches under a ToR/agg topology, tenant VMs, the
// gateway, the Nezha controller, and the centralized health monitor.
// The experiment harness and the examples build scenarios on top of
// this package.
package cluster

import (
	"fmt"

	"nezha/internal/controller"
	"nezha/internal/dense"
	"nezha/internal/fabric"
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

// sweepInterval paces session-table aging sweeps.
const sweepInterval = sim.Second

// Options configures a cluster.
type Options struct {
	// Servers is the number of vSwitch-bearing servers.
	Servers int
	// ServersPerToR groups servers into racks (default 16).
	ServersPerToR int
	// Seed drives all randomness.
	Seed int64
	// VSwitch optionally mutates each server's vSwitch config
	// (addresses and ToR are filled in by the cluster).
	VSwitch func(i int, cfg *vswitch.Config)
	// Controller overrides the control-plane policy (zero value =
	// defaults).
	Controller controller.Config
	// Monitor overrides the health-check policy (zero value =
	// defaults).
	Monitor monitor.Config
	// Obs, when non-nil, wires the observability bundle into every
	// component (fabric, gateway, vSwitches, controller, monitor).
	Obs *obs.Obs
	// Prof, when non-nil, wires the cycle/byte attribution profiler
	// into every vSwitch. When Obs is also set the profiler's series
	// are attached to the same registry.
	Prof *prof.Profiler
	// Policy, when non-nil, hands offload/fallback/scale decisions to
	// the policy engine (internal/policy) instead of the controller's
	// Fig 8 tree: the controller steps it on every tick
	// (controller.SetPolicy).
	Policy *policy.Config
	// SLO, when non-nil, wires the latency/hot-flow SLO tracker into
	// every vSwitch's terminal points and, when Obs is also set,
	// attaches its view and slo_* series to the bundle's snapshots.
	SLO *slo.Tracker
}

// Cluster is a running simulated region.
type Cluster struct {
	Loop *sim.Loop
	Fab  *fabric.Fabric
	GW   *fabric.Gateway
	Ctrl *controller.Controller
	Mon  *monitor.Monitor
	Obs  *obs.Obs
	Prof *prof.Profiler
	// SLO is the latency tracker when Options.SLO was set (nil
	// otherwise).
	SLO *slo.Tracker

	Switches []*vswitch.VSwitch
	IDGen    uint64

	// vms is each switch's VM table (by server index), indexed by the
	// gateway's vNIC index.
	vms []dense.Table[workload.VM]
}

// ServerAddr returns the underlay address of server i.
func ServerAddr(i int) packet.IPv4 {
	return packet.MakeIP(10, 1, byte(i/250), byte(i%250+1))
}

// MonitorAddr is the health monitor's address.
var MonitorAddr = packet.MakeIP(10, 0, 0, 254)

// New builds a cluster. The controller and monitor are constructed
// but not started; call Start.
func New(opts Options) *Cluster {
	if opts.Servers <= 0 {
		opts.Servers = 8
	}
	if opts.ServersPerToR <= 0 {
		opts.ServersPerToR = 16
	}
	c := &Cluster{
		Loop: sim.NewLoop(opts.Seed),
		Obs:  opts.Obs,
		Prof: opts.Prof,
		SLO:  opts.SLO,
	}
	if c.SLO != nil && c.Obs != nil {
		c.Obs.AttachSLO(c.SLO)
	}
	if c.Prof != nil {
		c.Prof.SetClock(c.Loop.Now)
		if c.Obs != nil {
			c.Prof.Attach(c.Obs.Reg)
		}
	}
	c.Fab = fabric.New(c.Loop)
	c.GW = fabric.NewGateway(c.Loop)
	if c.Obs != nil {
		c.Fab.EnableObs(c.Obs)
		c.GW.EnableObs(c.Obs)
	}

	ctrlCfg := opts.Controller
	if ctrlCfg.InitialFEs == 0 {
		ctrlCfg = controller.DefaultConfig()
	}
	c.Ctrl = controller.New(c.Loop, c.Fab, c.GW, ctrlCfg)
	if opts.Policy != nil {
		c.Ctrl.SetPolicy(*opts.Policy)
	}
	if c.Obs != nil {
		c.Ctrl.EnableObs(c.Obs)
	}

	monCfg := opts.Monitor
	if monCfg.ProbeInterval == 0 {
		monCfg = monitor.DefaultConfig(MonitorAddr)
	}
	c.Mon = monitor.New(c.Loop, c.Fab, monCfg, c.Ctrl.NodeDown)
	// A revived vSwitch answers probes again; without this the
	// controller would exclude it from FE selection forever.
	c.Mon.SetOnUp(c.Ctrl.NodeUp)
	if c.Obs != nil {
		c.Mon.EnableObs(c.Obs)
	}

	c.Switches = make([]*vswitch.VSwitch, 0, opts.Servers)
	c.vms = make([]dense.Table[workload.VM], opts.Servers)
	var cfg vswitch.Config // one escape to opts.VSwitch, not one per server
	for i := 0; i < opts.Servers; i++ {
		cfg = vswitch.Config{
			Addr: ServerAddr(i),
			ToR:  i / opts.ServersPerToR,
		}
		if opts.VSwitch != nil {
			opts.VSwitch(i, &cfg)
		}
		vs := vswitch.New(c.Loop, c.Fab, c.GW, cfg)
		vs.SetDelivery(dispatch(c.GW, &c.vms[i]))
		if c.Obs != nil {
			vs.EnableObs(c.Obs)
		}
		if c.Prof != nil {
			vs.EnableProf(c.Prof)
		}
		if c.SLO != nil {
			vs.EnableSLO(c.SLO)
		}
		c.Switches = append(c.Switches, vs)
		c.Ctrl.RegisterNode(vs)
		c.Mon.Watch(vs.Addr())
	}

	// Periodic session aging sweeps.
	c.Loop.Every(sweepInterval, func() {
		for _, vs := range c.Switches {
			vs.SweepSessions()
		}
	})
	return c
}

// NewOpsPublisher builds a history publisher wired to this cluster's
// observability stack: registry snapshots on the publisher's cadence,
// the policy decision log when the policy engine decides, and a
// pprof-encoded attribution profile per publish when the profiler is
// attached. The caller attaches it to c.Loop (and may override Every
// or OnSnap first). Returns nil when the cluster has no Obs
// bundle — there is nothing to publish.
func (c *Cluster) NewOpsPublisher(h *obs.History) *obs.Publisher {
	if c.Obs == nil || h == nil {
		return nil
	}
	p := &obs.Publisher{Obs: c.Obs, Hist: h}
	if c.Prof != nil {
		p.ProfFn = func(now sim.Time) []byte {
			b, err := c.Prof.ProfileBytes(now, now)
			if err != nil {
				return nil
			}
			return b
		}
	}
	if eng := c.Ctrl.Policy(); eng != nil {
		p.PolicyLogFn = eng.Log
	}
	return p
}

// Start kicks off the controller and monitor loops, plus the BE-side
// FE connectivity pings (§C.1) at a lower frequency than the central
// monitor's probes.
func (c *Cluster) Start() {
	c.Ctrl.Start()
	c.Mon.Start()
	for _, vs := range c.Switches {
		vs := vs
		vs.StartMutualPing(2*sim.Second, 3, func(fe packet.IPv4) {
			c.Ctrl.LinkDown(vs.Addr(), fe)
		})
	}
}

// dispatch hands a switch's VM deliveries to the VM behind each vNIC
// in vms, the switch's own table (AddVM fills it); a delivery to a vNIC
// with no VM ends here, released.
func dispatch(gw *fabric.Gateway, vms *dense.Table[workload.VM]) vswitch.Delivery {
	return func(vnic uint32, p *packet.Packet, lat sim.Time) {
		if i, ok := gw.Index(vnic); ok {
			if vm := vms.At(i); vm != nil {
				vm.OnDeliver(vnic, p, lat)
				return
			}
		}
		p.Release()
	}
}

// VMSpec describes a tenant VM and its vNIC.
type VMSpec struct {
	Server    int
	VNIC, VPC uint32
	IP        packet.IPv4
	VCPUs     int
	// MakeRules builds the vNIC's rule tables; it is also handed to
	// the controller for FE configuration and must return equivalent
	// fresh copies on every call.
	MakeRules func() *tables.RuleSet
	// KernelScale scales the VM kernel capacity (0 or 1 = unscaled);
	// scaled-down experiment rigs use it to keep the production
	// VM-to-vSwitch capability ratio.
	KernelScale float64
}

// AddVM installs a vNIC + VM on a server and registers it with the
// gateway and controller.
func (c *Cluster) AddVM(spec VMSpec) (*workload.VM, error) {
	if spec.Server < 0 || spec.Server >= len(c.Switches) {
		return nil, fmt.Errorf("cluster: server %d out of range", spec.Server)
	}
	vs := c.Switches[spec.Server]
	if err := vs.AddVNIC(spec.MakeRules(), false); err != nil {
		return nil, err
	}
	c.GW.Set(spec.VNIC, vs.Addr())
	c.Ctrl.RegisterVNIC(controller.VNICInfo{
		VNIC:      spec.VNIC,
		Home:      vs.Addr(),
		MakeRules: spec.MakeRules,
	})
	vm := workload.NewVM(c.Loop, vs, spec.VNIC, spec.VPC, spec.IP, spec.VCPUs, &c.IDGen)
	if spec.KernelScale > 0 && spec.KernelScale != 1 {
		vm.ScaleKernel(spec.KernelScale)
	}
	c.vms[spec.Server].Set(c.GW.Intern(spec.VNIC), vm)
	return vm, nil
}

// Switch returns server i's vSwitch.
func (c *Cluster) Switch(i int) *vswitch.VSwitch { return c.Switches[i] }

// TwoSubnetRules builds the standard bidirectional routing used by
// the experiments: vnic's VM lives in ownNet, the peer vNIC in
// peerNet.
func TwoSubnetRules(vnic, vpc uint32, peerNet tables.Prefix, peerVNIC uint32) func() *tables.RuleSet {
	return func() *tables.RuleSet {
		rs := tables.NewRuleSet(vnic, vpc)
		rs.Route.Add(peerNet, packet.IPv4(peerVNIC))
		return rs
	}
}
