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
// at exit (inspect with `go tool pprof -top`, `-traces` or `-http`);
// when combined with -obs the prof_* series appear in the snapshots
// and nezha-top's PROF section.
//
// nezha-sim exits 2 on a bad flag value, before building anything,
// and 1 when it cannot create or write an output or serve -listen.
// The output files are created before the run starts.
//
// -policy replaces the controller's Fig 8 thresholds with the policy
// engine (internal/policy), which the controller steps on its own
// tick: trend-extrapolated offload / fallback / scale-out / scale-in
// decisions read from the vSwitches' work ledgers, every decision
// routed through the same two-phase transactions. The summary prints the full decision log;
// with -obs the policy_* series appear in nezha-top's POLICY section.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"nezha/internal/chaos"
	"nezha/internal/cluster"
	"nezha/internal/nic"
	"nezha/internal/obs"
	"nezha/internal/opsapi"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/vswitch"
)

// def is the world the flags describe when left at their defaults.
var def = cluster.DefaultSpec()

var (
	servers   = flag.Int("servers", def.Servers, "number of servers (vSwitches)")
	nClients  = flag.Int("clients", def.Clients, "client VMs, one per server")
	cps       = flag.Float64("cps", def.ClientCPS*float64(def.Clients), "aggregate offered connections/sec")
	duration  = flag.Duration("duration", 20*time.Second, "virtual time to simulate")
	crash     = flag.Bool("crash", false, "crash one FE mid-run to exercise failover")
	partition = flag.Bool("partition", false, "sever the BE-FE link to one FE mid-run (§C.1 mutual ping path)")
	wire      = flag.Bool("wire", false, "serialize every packet through the real wire format")
	noNezha   = flag.Bool("no-nezha", false, "disable the controller (baseline)")
	usePolicy = flag.Bool("policy", false, "let the policy engine decide offload/fallback/scaling on the controller's tick, in place of the Fig 8 thresholds")
	seed      = flag.Int64("seed", def.Seed, "random seed")
	obsPath   = flag.String("obs", "", "write per-second JSON telemetry snapshots here ('-' = stdout); view with nezha-top")
	obsSample = flag.Float64("obs-sample", 0.01, "flight-trace sampling probability when -obs is set")
	obsProm   = flag.String("obs-prom", "", "write a final Prometheus text export to this file")
	sloObj    = flag.Duration("slo", 0, "latency SLO objective (e.g. 100ms): attach the always-on latency ledger and print per-vNIC p99s at exit (0 = off)")
	profPath  = flag.String("prof", "", "attach the attribution profiler and write a pprof profile here at exit")
	listen    = flag.String("listen", "", "serve the live ops API on this address (host:port); implies telemetry")
	pace      = flag.Float64("pace", 0, "throttle to this multiple of wall-clock speed (0 = unpaced; 1 with -listen for a live-feeling run)")
	hold      = flag.Duration("hold", 0, "with -listen: keep serving this long after the run ends")
)

// flagValues is what validate checks of the flags.
type flagValues struct {
	servers, clients    int
	cps, sample, pace   float64
	duration, slo, hold time.Duration
	usePolicy, noNezha  bool
}

// validate checks the flags before anything is built: the address
// plan must hold the clients, each client takes a server of its own
// and the server VM one more, the offered load must be a positive
// finite rate and the run length positive, and no duration or pace
// may be negative or NaN.
func validate(f flagValues) error {
	switch {
	case !(f.sample >= 0 && f.sample <= 1):
		return fmt.Errorf("-obs-sample %v: need a probability in [0, 1]", f.sample)
	case f.clients < 1:
		return fmt.Errorf("-clients %d: need at least 1", f.clients)
	case !(f.cps > 0) || math.IsInf(f.cps, 1):
		return fmt.Errorf("-cps %v: need a positive finite rate", f.cps)
	case f.duration <= 0:
		return fmt.Errorf("-duration %v: need a positive run length", f.duration)
	case !(f.pace >= 0) || math.IsInf(f.pace, 1):
		return fmt.Errorf("-pace %v: need a finite multiple of wall-clock speed, 0 or more", f.pace)
	case f.slo < 0:
		return fmt.Errorf("-slo %v: need an objective, 0 or more", f.slo)
	case f.hold < 0:
		return fmt.Errorf("-hold %v: need a duration, 0 or more", f.hold)
	case f.usePolicy && f.noNezha:
		return fmt.Errorf("-policy needs the controller; drop -no-nezha")
	}
	return cluster.CheckSize(f.servers, f.clients)
}

// spec builds the world the flags describe, with the telemetry they
// ask for attached.
func spec() cluster.Spec {
	s := cluster.Spec{
		Seed: *seed, Servers: *servers, Clients: *nClients, ClientCPS: *cps / float64(*nClients),
		ClientVCPUs: def.ClientVCPUs, ServerVCPUs: def.ServerVCPUs,
	}
	if *obsPath != "" || *obsProm != "" || *listen != "" {
		s.Obs = obs.New(obs.Options{Seed: *seed, SampleRate: *obsSample})
	}
	if *profPath != "" {
		s.Prof = prof.New()
	}
	if *sloObj > 0 {
		s.SLO = slo.NewTracker(slo.Config{Objective: int64(*sloObj)})
	}
	if *usePolicy {
		// The chaos scenario calibration matches this command's scaled
		// 2-core / 500 MHz vSwitches; only the pool ceiling is re-derived
		// from the topology (every server not hosting a VM is a candidate
		// FE).
		cfg := chaos.ScenarioPolicyConfig()
		if idle := *servers - *nClients - 1; idle > cfg.MaxFEs {
			cfg.MaxFEs = idle
		}
		s.Policy = &cfg
	}
	return s
}

// outputs are the files the flags name, created before the run so a
// path that cannot be written fails at once, not after the simulation.
type outputs struct {
	obs, prom, prof *os.File // nil when the flag is unset
}

// openOutputs creates the -obs, -obs-prom and -prof files ('-' for
// -obs is stdout). Two flags naming one file would interleave their
// writes, and so would the export or profile with the run's report on
// stdout, so both are refused. On an error it closes what it opened.
func openOutputs(obsPath, promPath, profPath string) (o outputs, err error) {
	if promPath == "-" || profPath == "-" {
		return outputs{}, fmt.Errorf("-obs-prom %q, -prof %q: only -obs writes to stdout ('-'); name a file", promPath, profPath)
	}
	if promPath != "" && (promPath == obsPath || promPath == profPath) || profPath != "" && profPath == obsPath {
		return outputs{}, fmt.Errorf("-obs, -obs-prom and -prof name one file twice (%q, %q, %q)", obsPath, promPath, profPath)
	}
	create := func(path string) *os.File {
		if path == "" || err != nil {
			return nil
		}
		f, cerr := os.Create(path)
		err = cerr
		return f
	}
	if obsPath == "-" {
		o.obs = os.Stdout
	} else {
		o.obs = create(obsPath)
	}
	o.prom = create(promPath)
	o.prof = create(profPath)
	if err != nil {
		o.close()
		return outputs{}, err
	}
	return o, nil
}

// close closes every file output and joins their errors: a close can
// report a write that failed late.
func (o outputs) close() error {
	var errs []error
	for _, f := range []*os.File{o.obs, o.prom, o.prof} {
		if f != nil && f != os.Stdout {
			errs = append(errs, f.Close())
		}
	}
	return errors.Join(errs...)
}

func main() {
	flag.Parse()
	if err := validate(flagValues{
		servers: *servers, clients: *nClients, cps: *cps, sample: *obsSample, pace: *pace,
		duration: *duration, slo: *sloObj, hold: *hold, usePolicy: *usePolicy, noNezha: *noNezha,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "nezha-sim:", err)
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nezha-sim:", err)
		os.Exit(1)
	}
}

// run builds the world the flags describe, runs it and prints what
// happened. It returns the first error creating or writing an output
// or serving the ops API.
func run() (err error) {
	out, err := openOutputs(*obsPath, *obsProm, *profPath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.close(); err == nil {
			err = cerr
		}
	}()

	s := spec()
	w, err := cluster.Build(s)
	if err != nil {
		return err
	}

	// The live ops surface: a history store fed by the same per-second
	// snapshot the JSONL stream uses (shared via PublishSnap so the
	// registry's rate windows advance exactly once per tick), served by
	// an embedded HTTP service off the event loop.
	var pub *obs.Publisher
	var srv *opsapi.Server
	if *listen != "" {
		hist := obs.NewHistory(obs.HistoryOptions{})
		pub = w.NewOpsPublisher(hist, 10)
		srv = opsapi.New()
		srv.SetHistory(hist)
		srv.SetMeta("mode", "sim")
		srv.SetMeta("seed", fmt.Sprint(*seed))
		addr, err := srv.Listen(*listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("ops: serving http://%s (metrics, snapshot, history, stream, prof, health)\n", addr)
	}
	if *pace > 0 {
		sim.AttachPacer(w.Loop, *pace)
	}

	w.StartLoad()
	if !*noNezha {
		w.Start()
	}
	if *wire {
		w.Fab.SetWireMode(true)
	}
	meter := nic.NewUtilMeter(w.ServerSwitch().CPU())

	fmt.Printf("nezha-sim: %d servers, %d clients -> 1 server VM, %.0f CPS offered, nezha=%v\n\n",
		*servers, *nClients, *cps, !*noNezha)
	fmt.Printf("%8s %12s %10s %8s %6s %s\n", "t", "completed", "cps", "srv-cpu%", "#FEs", "state")

	var lastDone uint64
	var snapErr error
	w.Loop.Every(sim.Second, func() {
		done := w.Completed()
		state := "local"
		if w.Ctrl.Offloaded(cluster.ServerVNIC) {
			state = "offloaded"
		}
		fmt.Printf("%8s %12d %10d %7.1f%% %6d %s\n",
			w.Loop.Now(), done, done-lastDone,
			meter.Sample()*100, len(w.Ctrl.FEsOf(cluster.ServerVNIC)), state)
		lastDone = done
		if out.obs != nil || pub != nil {
			snap := s.Obs.Snap(w.Loop.Now(), 10)
			if pub != nil {
				pub.PublishSnap(w.Loop.Now(), snap)
			}
			// A failed write ends the run at this instant; it fails
			// when Run returns.
			if out.obs != nil && snapErr == nil {
				if snapErr = snap.WriteJSONLine(out.obs); snapErr != nil {
					w.Loop.Stop()
				}
			}
		}
	})

	if *crash {
		w.Loop.Schedule(sim.Duration(*duration)/2, func() {
			fes := w.Ctrl.FEsOf(cluster.ServerVNIC)
			if len(fes) == 0 {
				fmt.Println("-- no FEs to crash --")
				return
			}
			for _, vs := range w.Switches {
				if vs.Addr() == fes[0] {
					vs.Crash()
					fmt.Printf("-- crashed FE %v --\n", vs.Addr())
					return
				}
			}
		})
	}

	if *partition {
		w.Loop.Schedule(sim.Duration(*duration)/2, func() {
			fes := w.Ctrl.FEsOf(cluster.ServerVNIC)
			if len(fes) == 0 {
				fmt.Println("-- no FEs to partition --")
				return
			}
			be := w.ServerSwitch().Addr()
			w.Fab.Partition(be, fes[0])
			fmt.Printf("-- severed link BE %v <-> FE %v --\n", be, fes[0])
		})
	}

	w.Loop.Run(sim.Duration(*duration))
	w.StopLoad()
	if snapErr != nil {
		return snapErr
	}

	fmt.Printf("\nsummary:\n")
	fmt.Printf("  completed transactions: %d\n", w.Completed())
	fmt.Printf("  offloads=%d scale-outs=%d scale-ins=%d failovers=%d fallbacks=%d\n",
		w.Ctrl.Stats.Offloads, w.Ctrl.Stats.ScaleOuts, w.Ctrl.Stats.ScaleIns,
		w.Ctrl.Stats.Failovers, w.Ctrl.Stats.Fallbacks)
	if oc := &w.Ctrl.OffloadCompletion; oc.Count() > 0 {
		fmt.Printf("  offload completion: avg %.0f ms, P99 %.0f ms\n", oc.Mean(), oc.Quantile(0.99))
	}
	var drops, overload uint64
	for _, vs := range w.Switches {
		drops += vs.Stats.TotalDrops()
		overload += vs.Stats.Drops[vswitch.DropOverload]
	}
	fmt.Printf("  drops: total %d (overload %d)\n", drops, overload)

	if s.SLO != nil {
		v := s.SLO.View()
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

	if eng := w.Ctrl.Policy(); eng != nil {
		st := eng.Stats
		fmt.Printf("\npolicy: steps=%d applied=%d rejected=%d thrash=%d\n",
			st.Steps, st.Applied, st.Rejected, len(eng.ThrashEvents()))
		for _, line := range eng.Log() {
			fmt.Printf("  %s\n", line)
		}
	}

	if out.prom != nil {
		if err := s.Obs.Snap(w.Loop.Now(), 10).WritePrometheus(out.prom); err != nil {
			return err
		}
		fmt.Printf("  wrote Prometheus export: %s\n", *obsProm)
	}
	if out.prof != nil {
		if err := s.Prof.WriteProfile(out.prof, w.Loop.Now(), w.Loop.Now()); err != nil {
			return err
		}
		fmt.Printf("  wrote attribution profile: %s\n", *profPath)
	}
	if srv != nil && *hold > 0 {
		fmt.Printf("ops: holding the server up for %v (attach with nezha-top -attach)\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}
