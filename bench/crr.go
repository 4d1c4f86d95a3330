package main

import (
	"errors"
	"fmt"

	"nezha/internal/cluster"
	"nezha/internal/controller"
	"nezha/internal/fabric"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// crr_offload is the canonical nezha-sim default run: 8 client VMs open
// short connections to one server VM, open loop at 20 000 CPS, on 24
// scaled servers; the server's vSwitch saturates, the controller
// offloads the vNIC and scales the FE pool out mid-run.
//
// Why: every connection is a new session, so the slow-path table walk,
// flowcache insert/delete, state init, the scalar FromVM entry the VM
// model uses, CRR generation and the two-phase offload do most of
// their work here. It is the run ROADMAP quotes.
const (
	crrServers    = 24
	crrClients    = 8
	crrCPS        = 20000.0
	crrDuration   = 8 * sim.Second // full size; the steady window is its second half
	crrMinVirtual = 3 * sim.Second // below this the offload has not landed
	crrDrain      = 500 * sim.Millisecond
	crrServerVNIC = 100
	crrVPC        = 7
	crrCores      = 2
	crrCoreHz     = 500_000_000
)

var crrServerIP = packet.MakeIP(10, 0, 100, 1)

func crrClientIP(i int) packet.IPv4 { return packet.MakeIP(10, 0, byte(1+i), 1) }

func crrServerRules() *tables.RuleSet {
	rs := tables.NewRuleSet(crrServerVNIC, crrVPC)
	for i := 0; i < crrClients; i++ {
		rs.Route.Add(tables.MakePrefix(crrClientIP(i), 32), packet.IPv4(uint32(i+1)))
	}
	return rs
}

type crrWorkload struct{}

func (crrWorkload) name() string { return "crr_offload" }

func (crrWorkload) probeInputs() probeInputs {
	// One short-lived flow per connection: the live population is what
	// 20 000 CPS keeps open for a few milliseconds plus what waits for
	// the 250 ms closed-session aging.
	flows := make([]packet.FiveTuple, 4096)
	for i := range flows {
		flows[i] = packet.FiveTuple{
			SrcIP: crrServerIP, DstIP: crrClientIP(i % crrClients),
			SrcPort: workload.ServerPort, DstPort: uint16(1024 + i/crrClients), Proto: packet.ProtoTCP,
		}
	}
	return probeInputs{rules: crrServerRules, flows: flows, vnic: crrServerVNIC, vpc: crrVPC, burst: 1, payload: 128}
}

// crrWorld is the built scenario, ready to run.
type crrWorld struct {
	c       *cluster.Cluster
	server  *workload.VM
	clients []*workload.VM
	gens    []*workload.CRR
}

const crrServerIdx = crrClients // the server VM's switch; clients sit on 0..7

func buildCRRWorld(seed int64, tr *tracer) (*crrWorld, error) {
	var c *cluster.Cluster
	tr.build(func() {
		c = cluster.New(cluster.Options{
			Servers: crrServers, ServersPerToR: crrServers, Seed: seed,
			Controller: controller.DefaultConfig(),
			VSwitch: func(i int, cfg *vswitch.Config) {
				cfg.Cores = crrCores
				cfg.CoreHz = crrCoreHz
			},
		})
	})
	w := &crrWorld{c: c}
	vms := make(map[int]*workload.VM) // by server index
	var err error
	w.server, err = c.AddVM(cluster.VMSpec{
		Server: crrServerIdx, VNIC: crrServerVNIC, VPC: crrVPC, IP: crrServerIP,
		VCPUs: 64, MakeRules: crrServerRules,
	})
	if err != nil {
		return nil, err
	}
	vms[crrServerIdx] = w.server
	serverNet := tables.MakePrefix(packet.MakeIP(10, 0, 100, 0), 24)
	for i := 0; i < crrClients; i++ {
		vnic := uint32(i + 1)
		vm, err := c.AddVM(cluster.VMSpec{
			Server: i, VNIC: vnic, VPC: crrVPC, IP: crrClientIP(i), VCPUs: 16,
			MakeRules: cluster.TwoSubnetRules(vnic, crrVPC, serverNet, crrServerVNIC),
		})
		if err != nil {
			return nil, err
		}
		vms[i] = vm
		w.clients = append(w.clients, vm)
		g := workload.NewCRR(c.Loop, c.Loop.Rand(), vm, crrServerIP, crrCPS/crrClients)
		w.gens = append(w.gens, g)
		g.Start()
	}
	if tr != nil {
		traceCluster(tr, c, vms)
	}
	c.Start()
	return w, nil
}

func (crrWorkload) rep(rc repCtx) (*rep, error) {
	out := &rep{sim: values{}, gauges: values{}}
	dur := sim.Time(float64(crrDuration) * rc.size)
	if dur < crrMinVirtual {
		dur = crrMinVirtual
	}
	tr := rc.tr

	var world *crrWorld
	var err error
	out.setupS, err = medianSetup(15, tr, func() error {
		world, err = buildCRRWorld(rc.seed, tr)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("crr_offload: %w", err)
	}
	c, clients, server, gens := world.c, world.clients, world.server, world.gens

	// Connection latency in the steady window, 1 µs buckets to 131 ms.
	lat := newLatHist(sim.Microsecond, 1<<17)
	steady := false
	for _, vm := range clients {
		vm.OnComplete = func(l sim.Time) {
			if steady {
				lat.observe(l)
			}
		}
	}
	completed := func() (n uint64) {
		for _, vm := range clients {
			n += vm.Completed
		}
		return n
	}
	read := func() (cs counts) {
		cs.readSwitches(c.Loop, c.Fab, c.Switches)
		cs.readControl(c.Ctrl, c.Mon)
		for _, vm := range clients {
			cs[cConnsStarted] += vm.Started
			cs[cConnsCompleted] += vm.Completed
		}
		cs[cKernelDrops] = server.KernelDrops
		cs[cPoolGets] = c.IDGen
		return cs
	}
	out.have = haveSwitches | haveControl | slots(cConnsStarted, cConnsCompleted, cKernelDrops, cPoolGets)

	before := read()
	reg := openRegion()
	tr.resume()
	c.Loop.Run(dur / 2)
	atHalf := completed()
	steady = true
	c.Loop.Run(dur)
	steady = false
	tr.pause()
	reg.close(out, c)
	after := read()
	out.counts = after.sub(before)
	out.simS = dur.Seconds()
	out.pkts = out.counts[cFromVM] + out.counts[cFromNet]
	out.sim["sim_cps"] = float64(completed()-atHalf) / (dur / 2).Seconds()
	hot := c.Switch(crrServerIdx).CPU()
	out.gauges["nic.sim_util_hot"] = hot.BusyTime().Seconds() / (float64(hot.Cores()) * dur.Seconds())

	for _, g := range gens {
		g.Stop()
	}
	c.Loop.Run(c.Loop.Now() + crrDrain)

	// Output checks.
	var errs []error
	residue, err := conservation(c.Fab, c.Switches)
	errs = append(errs, err, lat.fill(out))
	var started uint64
	for _, vm := range clients {
		started += vm.Started
	}
	if started == 0 || completed() == 0 {
		errs = append(errs, errors.New("no connection completed"))
	} else {
		out.sim["fail_share"] = float64(started-completed()) / float64(started)
	}
	if c.Ctrl.OffloadCompletion.Count() == 0 {
		errs = append(errs, errors.New("the controller never offloaded the hot vNIC"))
	} else {
		out.sim["sim_offload_ms"] = c.Ctrl.OffloadCompletion.Mean()
	}
	// Contract operations: every packet a vSwitch or the fabric took
	// in; failed are the ones no ledger accounts for. The simulated
	// connection loss of the overloaded phase is fail_share.
	final := read()
	out.attempted = final[cFromVM] + final[cFromNet]
	out.failed = residue
	out.gauges["flowcache.live_entries"] = float64(liveEntries(c.Switches))

	d := newDigest()
	d.add(final[:]...)
	d.add(uint64(c.Loop.Now()), uint64(liveEntries(c.Switches)))
	d.addValues(out.sim, "sim_cps", "sim_lat_p50_us", "sim_lat_p99_us", "fail_share", "sim_offload_ms")
	out.digest = uint64(d)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("crr_offload: %w", err)
	}
	return out, nil
}

func liveEntries(sw []*vswitch.VSwitch) (n int) {
	for _, vs := range sw {
		n += vs.Sessions().Len()
	}
	return n
}

// traceCluster installs the pass-through wrappers of the traced rep on
// a cluster: the fabric handlers of every vSwitch and the delivery
// callback of every switch that hosts a VM. vms maps server index to
// its VM.
func traceCluster(tr *tracer, c *cluster.Cluster, vms map[int]*workload.VM) {
	tr.observe(c.Loop)
	for i, vs := range c.Switches {
		traceUnderlay(tr, c.Fab, vs)
		if vm, ok := vms[i]; ok {
			vs.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
				tr.begin(spanDeliver, p.ID, 1)
				vm.OnDeliver(vnic, p, lat)
				tr.end()
			})
		}
	}
}

func traceUnderlay(tr *tracer, fab *fabric.Fabric, vs *vswitch.VSwitch) {
	must(fab.SetHandler(vs.Addr(), func(p *packet.Packet) {
		tr.begin(spanUnderlay, p.ID, 1)
		vs.HandleUnderlay(p)
		tr.end()
	}))
	must(fab.SetBurstHandler(vs.Addr(), func(ps []*packet.Packet) {
		tr.begin(spanUnderlay, ps[0].ID, uint64(len(ps)))
		vs.HandleUnderlayBurst(ps)
		tr.end()
	}))
}

// must panics on an error only a bug in the harness can cause
// (re-registering a handler on an address the harness just registered).
func must(err error) {
	if err != nil {
		panic(err)
	}
}
