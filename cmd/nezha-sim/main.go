// Command nezha-sim runs one configurable load-sharing scenario and
// prints what happened: a cluster of SmartNIC vSwitches, client VMs
// hammering one high-demand server VM, and the Nezha controller
// offloading, scaling, and (optionally) failing over — a narrated
// end-to-end tour of the system.
//
// Usage:
//
//	nezha-sim [-servers 24] [-clients 8] [-cps 20000] [-duration 20s]
//	          [-crash] [-no-nezha] [-policy] [-seed 1]
//	          [-obs run.jsonl] [-obs-sample 0.01] [-obs-prom metrics.prom]
//	          [-prof run.pb.gz] [-slo 100ms]
//
// -slo attaches the always-on latency ledger: end-to-end latency
// histograms per (vNIC, path, direction), a count-min heavy-hitter
// sketch, and a burn-rate evaluator against the given p99 objective.
// The summary gains per-vNIC p99/violation/burn lines and the top
// flows; with -obs the slo_* series and the snapshot's slo section
// appear in nezha-top's LATENCY / TOP FLOWS views.
//
// -obs streams one JSON telemetry snapshot per virtual second to the
// given file ('-' = stdout) — the format nezha-top renders. -obs-prom
// writes a final Prometheus text export at exit. -prof attaches the
// cycle/byte attribution profiler and writes a pprof-encoded profile
// at exit (inspect with `go tool pprof -top` or nezha-prof); when
// combined with -obs the prof_* series appear in the snapshots and
// nezha-top's PROF section.
//
// -policy replaces the controller's built-in offload trigger with the
// autonomous policy loop (internal/policy): trend-extrapolated
// offload / fallback / scale-out / scale-in decisions driven from the
// attribution profiler, every decision routed through the same
// two-phase transactions. The summary prints the full decision log;
// with -obs the policy_* series appear in nezha-top's POLICY section.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nezha/internal/chaos"
	"nezha/internal/cluster"
	"nezha/internal/controller"
	"nezha/internal/nic"
	"nezha/internal/obs"
	"nezha/internal/opsapi"
	"nezha/internal/packet"
	"nezha/internal/policy"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// validate checks the flags before anything is built: the clients
// each take a server of their own and the server VM one more, and the
// offered load and the run length must be positive.
func validate(servers, clients int, cps float64, duration time.Duration, usePolicy, noNezha bool) error {
	switch {
	case clients < 1:
		return fmt.Errorf("-clients %d: need at least 1", clients)
	case servers <= clients:
		return fmt.Errorf("%d clients need %d servers, have %d", clients, clients+1, servers)
	case !(cps > 0):
		return fmt.Errorf("-cps %v: need a positive rate", cps)
	case duration <= 0:
		return fmt.Errorf("-duration %v: need a positive run length", duration)
	case usePolicy && noNezha:
		return fmt.Errorf("-policy needs the controller; drop -no-nezha")
	}
	return nil
}

func main() {
	var (
		servers   = flag.Int("servers", 24, "number of servers (vSwitches)")
		nClients  = flag.Int("clients", 8, "client VMs, one per server")
		cps       = flag.Float64("cps", 20000, "aggregate offered connections/sec")
		duration  = flag.Duration("duration", 20*time.Second, "virtual time to simulate")
		crash     = flag.Bool("crash", false, "crash one FE mid-run to exercise failover")
		partition = flag.Bool("partition", false, "sever the BE-FE link to one FE mid-run (§C.1 mutual ping path)")
		wire      = flag.Bool("wire", false, "serialize every packet through the real wire format")
		noNezha   = flag.Bool("no-nezha", false, "disable the controller (baseline)")
		usePolicy = flag.Bool("policy", false, "let the autonomous policy loop drive offload/fallback/scaling (implies -prof attachment)")
		seed      = flag.Int64("seed", 1, "random seed")
		obsPath   = flag.String("obs", "", "write per-second JSON telemetry snapshots here ('-' = stdout); view with nezha-top")
		obsSample = flag.Float64("obs-sample", 0.01, "flight-trace sampling probability when -obs is set")
		obsProm   = flag.String("obs-prom", "", "write a final Prometheus text export to this file")
		sloObj    = flag.Duration("slo", 0, "latency SLO objective (e.g. 100ms): attach the always-on latency ledger and print per-vNIC p99s at exit (0 = off)")
		profPath  = flag.String("prof", "", "attach the attribution profiler and write a pprof profile here at exit")
		listen    = flag.String("listen", "", "serve the live ops API on this address (host:port); implies telemetry")
		pace      = flag.Float64("pace", 0, "throttle to this multiple of wall-clock speed (0 = unpaced; 1 with -listen for a live-feeling run)")
		hold      = flag.Duration("hold", 0, "with -listen: keep serving this long after the run ends")
	)
	flag.Parse()
	if err := validate(*servers, *nClients, *cps, *duration, *usePolicy, *noNezha); err != nil {
		fmt.Fprintln(os.Stderr, "nezha-sim:", err)
		os.Exit(2)
	}

	var ob *obs.Obs
	var obsOut *os.File
	if *obsPath != "" || *obsProm != "" || *listen != "" {
		ob = obs.New(obs.Options{Seed: *seed, SampleRate: *obsSample})
	}
	if *obsPath == "-" {
		obsOut = os.Stdout
	} else if *obsPath != "" {
		f, err := os.Create(*obsPath)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		obsOut = f
	}

	var pr *prof.Profiler
	if *profPath != "" || *usePolicy {
		pr = prof.New()
	}

	var tracker *slo.Tracker
	if *sloObj > 0 {
		tracker = slo.NewTracker(slo.Config{Objective: int64(*sloObj)})
	}

	var polCfg *policy.Config
	if *usePolicy {
		// The chaos scenario calibration matches this command's scaled
		// 2-core / 500 MHz vSwitches; only the pool ceiling is re-derived
		// from the topology (every server not hosting a VM is a candidate
		// FE).
		cfg := chaos.ScenarioPolicyConfig()
		if idle := *servers - *nClients - 1; idle > cfg.MaxFEs {
			cfg.MaxFEs = idle
		}
		polCfg = &cfg
	}

	const (
		serverVNIC = 100
		vpc        = 7
	)
	serverIP := packet.MakeIP(10, 0, 100, 1)
	clientIP := func(i int) packet.IPv4 { return packet.MakeIP(10, 0, byte(1+i), 1) }

	c := cluster.New(cluster.Options{
		Servers: *servers, ServersPerToR: *servers, Seed: *seed,
		Controller: controller.DefaultConfig(),
		VSwitch: func(i int, cfg *vswitch.Config) {
			cfg.Cores = 2
			cfg.CoreHz = 500_000_000 // scaled: ~7.4K CPS monolithic
		},
		Obs:    ob,
		Prof:   pr,
		Policy: polCfg,
		SLO:    tracker,
	})

	// The live ops surface: a history store fed by the same per-second
	// snapshot the JSONL stream uses (shared via PublishSnap so the
	// registry's rate windows advance exactly once per tick), served by
	// an embedded HTTP service off the event loop.
	var pub *obs.Publisher
	var srv *opsapi.Server
	if *listen != "" {
		hist := obs.NewHistory(obs.HistoryOptions{})
		pub = c.NewOpsPublisher(hist, 10)
		srv = opsapi.New()
		srv.SetHistory(hist)
		srv.SetMeta("mode", "sim")
		srv.SetMeta("seed", fmt.Sprint(*seed))
		addr, err := srv.Listen(*listen)
		if err != nil {
			panic(err)
		}
		fmt.Printf("ops: serving http://%s (metrics, snapshot, history, stream, prof, health)\n", addr)
	}
	if *pace > 0 {
		sim.AttachPacer(c.Loop, *pace)
	}

	serverIdx := *nClients
	mkServer := func() *tables.RuleSet {
		rs := tables.NewRuleSet(serverVNIC, vpc)
		for i := 0; i < *nClients; i++ {
			rs.Route.Add(tables.MakePrefix(clientIP(i), 32), packet.IPv4(uint32(i+1)))
		}
		return rs
	}
	if _, err := c.AddVM(cluster.VMSpec{
		Server: serverIdx, VNIC: serverVNIC, VPC: vpc, IP: serverIP,
		VCPUs: 64, MakeRules: mkServer,
	}); err != nil {
		panic(err)
	}
	serverNet := tables.MakePrefix(packet.MakeIP(10, 0, 100, 0), 24)
	var clients []*workload.VM
	var gens []*workload.CRR
	for i := 0; i < *nClients; i++ {
		vnic := uint32(i + 1)
		vm, err := c.AddVM(cluster.VMSpec{
			Server: i, VNIC: vnic, VPC: vpc, IP: clientIP(i), VCPUs: 16,
			MakeRules: cluster.TwoSubnetRules(vnic, vpc, serverNet, serverVNIC),
		})
		if err != nil {
			panic(err)
		}
		clients = append(clients, vm)
		g := workload.NewCRR(c.Loop, c.Loop.Rand(), vm, serverIP, *cps/float64(*nClients))
		gens = append(gens, g)
		g.Start()
	}

	if !*noNezha {
		c.Start()
	}
	if *wire {
		c.Fab.SetWireMode(true)
	}

	meter := nic.NewUtilMeter(c.Switch(serverIdx).CPU())
	completed := func() uint64 {
		var t uint64
		for _, vm := range clients {
			t += vm.Completed
		}
		return t
	}

	fmt.Printf("nezha-sim: %d servers, %d clients -> 1 server VM, %.0f CPS offered, nezha=%v\n\n",
		*servers, *nClients, *cps, !*noNezha)
	fmt.Printf("%8s %12s %10s %8s %6s %s\n", "t", "completed", "cps", "srv-cpu%", "#FEs", "state")

	var lastDone uint64
	c.Loop.Every(sim.Second, func() {
		done := completed()
		state := "local"
		if c.Ctrl.Offloaded(serverVNIC) {
			state = "offloaded"
		}
		fmt.Printf("%8s %12d %10d %7.1f%% %6d %s\n",
			c.Loop.Now(), done, done-lastDone,
			meter.Sample()*100, len(c.Ctrl.FEsOf(serverVNIC)), state)
		lastDone = done
		if obsOut != nil || pub != nil {
			snap := ob.Snap(c.Loop.Now(), 10)
			if pub != nil {
				pub.PublishSnap(c.Loop.Now(), snap)
			}
			if obsOut != nil {
				if err := snap.WriteJSONLine(obsOut); err != nil {
					panic(err)
				}
			}
		}
	})

	if *crash {
		c.Loop.Schedule(sim.Duration(*duration)/2, func() {
			fes := c.Ctrl.FEsOf(serverVNIC)
			if len(fes) == 0 {
				fmt.Println("-- no FEs to crash --")
				return
			}
			for _, vs := range c.Switches {
				if vs.Addr() == fes[0] {
					vs.Crash()
					fmt.Printf("-- crashed FE %v --\n", vs.Addr())
					return
				}
			}
		})
	}

	if *partition {
		c.Loop.Schedule(sim.Duration(*duration)/2, func() {
			fes := c.Ctrl.FEsOf(serverVNIC)
			if len(fes) == 0 {
				fmt.Println("-- no FEs to partition --")
				return
			}
			be := cluster.ServerAddr(serverIdx)
			c.Fab.Partition(be, fes[0])
			fmt.Printf("-- severed link BE %v <-> FE %v --\n", be, fes[0])
		})
	}

	c.Loop.Run(sim.Duration(*duration))
	for _, g := range gens {
		g.Stop()
	}

	fmt.Printf("\nsummary:\n")
	fmt.Printf("  completed transactions: %d\n", completed())
	fmt.Printf("  offloads=%d scale-outs=%d scale-ins=%d failovers=%d fallbacks=%d\n",
		c.Ctrl.Stats.Offloads, c.Ctrl.Stats.ScaleOuts, c.Ctrl.Stats.ScaleIns,
		c.Ctrl.Stats.Failovers, c.Ctrl.Stats.Fallbacks)
	if n := c.Ctrl.OffloadCompletion.Count(); n > 0 {
		fmt.Printf("  offload completion: avg %.0f ms, P99 %.0f ms\n",
			c.Ctrl.OffloadCompletion.Mean(), c.Ctrl.OffloadCompletion.P99())
	}
	var drops, overload uint64
	for _, vs := range c.Switches {
		drops += vs.Stats.TotalDrops()
		overload += vs.Stats.Drops[vswitch.DropOverload]
	}
	fmt.Printf("  drops: total %d (overload %d)\n", drops, overload)

	if tracker != nil {
		v := tracker.View()
		fmt.Printf("\nlatency SLO (objective %v, burn events %d):\n",
			sim.Time(v.ObjectiveNS), v.BurnEvents)
		for _, vn := range v.VNICs {
			fmt.Printf("  vnic %-4d p99=%-12v total=%-9d violations=%-7d drops=%-6d burn=%.2f\n",
				vn.VNIC, sim.Time(vn.P99), vn.Total, vn.Violations, vn.Drops, vn.Burn)
		}
		if len(v.HotFlows) > 0 {
			fmt.Printf("  top flows:\n")
			for _, f := range v.HotFlows {
				fmt.Printf("    %-44s vnic=%-4d pkts=%-9d bytes=%d\n",
					f.Flow, f.VNIC, f.Packets, f.Bytes)
			}
		}
	}

	if c.Policy != nil {
		st := c.Policy.Stats
		fmt.Printf("\npolicy: steps=%d applied=%d rejected=%d thrash=%d\n",
			st.Steps, st.Applied, st.Rejected, len(c.Policy.Engine().ThrashEvents()))
		for _, line := range c.Policy.Engine().Log() {
			fmt.Printf("  %s\n", line)
		}
	}

	if *obsProm != "" {
		f, err := os.Create(*obsProm)
		if err != nil {
			panic(err)
		}
		if err := ob.Snap(c.Loop.Now(), 10).WritePrometheus(f); err != nil {
			panic(err)
		}
		f.Close()
		fmt.Printf("  wrote Prometheus export: %s\n", *obsProm)
	}
	if *profPath != "" {
		f, err := os.Create(*profPath)
		if err != nil {
			panic(err)
		}
		if err := pr.WriteProfile(f, c.Loop.Now(), c.Loop.Now()); err != nil {
			panic(err)
		}
		f.Close()
		fmt.Printf("  wrote attribution profile: %s\n", *profPath)
	}
	if srv != nil {
		if *hold > 0 {
			fmt.Printf("ops: holding the server up for %v (attach with nezha-top -attach)\n", *hold)
			time.Sleep(*hold)
		}
		srv.Close()
	}
}
