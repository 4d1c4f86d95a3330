package experiments

import (
	"nezha/internal/cluster"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/workload"
)

// Fig 10: CPS vs #vCPU cores in the VM, with and without Nezha. With
// Nezha the remote pool is ample, so CPS should track the VM's kernel
// capability — but kernel contention makes the growth sub-linear.
func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "CPS under different #vCPU cores in VM",
		Paper: "without Nezha CPS is flat at the vSwitch limit; with Nezha it grows with vCPUs but sub-linearly (VM kernel locks)",
		Run:   runFig10,
	})
}

func runFig10(cfg RunConfig) *Result {
	vcpus := []int{8, 16, 32, 48, 64}
	if cfg.Quick {
		vcpus = []int{8, 64}
	}
	window := 5 * sim.Second
	if cfg.Quick {
		window = 2 * sim.Second
	}
	t := NewTable("vCPUs", "CPS(no Nezha)", "CPS(Nezha)", "kernel-cap", "Nezha/base")
	sNo := &Series{Name: "fig10-cps-without"}
	sYes := &Series{Name: "fig10-cps-with"}
	var base float64
	for _, vc := range vcpus {
		measure := func(k int) float64 {
			s := rigSpec(cfg.Seed, 12, 16)
			s.ServerVCPUs, s.ServerKernelScale = vc, rigKernelScale
			r := newRig(s)
			if err := r.offloadTo(k); err != nil {
				panic(err)
			}
			return r.measureClosedCPS(24, window)
		}
		no := measure(0)
		yes := measure(16) // ample pool: the VM is the only bottleneck
		if base == 0 {
			base = no
		}
		cap := workload.MaxCPS(vc) * rigKernelScale
		t.AddRow(vc, no, yes, cap, yes/base)
		sNo.Record(float64(vc), no)
		sYes.Record(float64(vc), yes)
	}
	return &Result{
		ID: "fig10", Title: "CPS vs VM vCPUs",
		Tables: []*Table{t},
		Series: []*Series{sNo, sYes},
		Notes: []string{
			"kernel-cap is the Amdahl-limited VM capability at rig scale; with Nezha, measured CPS hugs it",
			"without Nezha the vSwitch caps CPS regardless of vCPUs (Fig 2's gap)",
		},
	}
}

// Fig 11: vSwitch CPU utilization during offloading and FE scaling.
// A script ramps one vNIC's CPS; the controller offloads at 70% and
// scales the pool out when average FE utilization crosses 40%.
func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "CPU utilization during offloading/scaling",
		Paper: "BE CPU rises to ~70%, offload triggers, BE drops to ~10%; FE avg crosses 40% → pool doubles to 8, FE util halves",
		Run:   runFig11,
	})
}

func runFig11(cfg RunConfig) *Result {
	r := newRig(rigSpec(cfg.Seed, 12, 12))
	r.Start() // controller + monitor live
	loop := r.Loop

	beMeter := nic.NewUtilMeter(r.ServerSwitch().CPU())
	// One meter per pool switch, in pool order, so the FE average
	// sums in the same order on every run.
	pool := r.Pool()
	feMeters := make([]*nic.UtilMeter, len(pool))
	for i, vs := range pool {
		feMeters[i] = nic.NewUtilMeter(vs.CPU())
	}

	beSeries := &Series{Name: "fig11-be-cpu"}
	feSeries := &Series{Name: "fig11-fe-cpu-avg"}
	cpsSeries := &Series{Name: "fig11-offered-cps"}
	feCount := &Series{Name: "fig11-fe-count"}

	dur := 30 * sim.Second
	if cfg.Quick {
		dur = 12 * sim.Second
	}
	// Ramp offered CPS: 10% → 300% of monolithic capacity.
	r.SetLoad(0.1 * rigMonoCPS)
	loop.Every(sim.Second, func() {
		frac := 0.1 + 2.9*loop.Now().Seconds()/dur.Seconds()
		r.SetLoad(frac * rigMonoCPS)
	})
	r.StartLoad()

	loop.Every(200*sim.Millisecond, func() {
		now := loop.Now().Seconds()
		beSeries.Record(now, beMeter.Sample()*100)
		sum, n := 0.0, 0
		for i, m := range feMeters {
			if u := m.Sample(); pool[i].HostsFE(cluster.ServerVNIC) {
				sum += u
				n++
			}
		}
		if n > 0 {
			feSeries.Record(now, sum/float64(n)*100)
		}
		feCount.Record(now, float64(len(r.Ctrl.FEsOf(cluster.ServerVNIC))))
		var offered float64
		for _, g := range r.Gens {
			offered += g.Rate()
		}
		cpsSeries.Record(now, offered)
	})

	loop.Run(dur)
	r.StopLoad()

	t := NewTable("event", "value")
	t.AddRow("offloads", r.Ctrl.Stats.Offloads)
	t.AddRow("scale-outs", r.Ctrl.Stats.ScaleOuts)
	t.AddRow("final #FEs", len(r.Ctrl.FEsOf(cluster.ServerVNIC)))
	bePeak, beFinal := 0.0, 0.0
	for _, p := range beSeries.Points {
		bePeak, beFinal = max(bePeak, p[1]), p[1]
	}
	t.AddRow("BE peak CPU %", bePeak)
	t.AddRow("BE final CPU %", beFinal)
	return &Result{
		ID: "fig11", Title: "CPU during offload/scale-out",
		Tables: []*Table{t},
		Series: []*Series{beSeries, feSeries, feCount, cpsSeries},
	}
}

// Fig 12: end-to-end latency with/without Nezha as background load
// (expressed as the without-Nezha vSwitch utilization) increases.
func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "End-to-end latency with/without Nezha",
		Paper: "identical below ~70% CPU; ~+10µs at 80% (the extra hop); without Nezha latency explodes past 100%; with Nezha it stays flat",
		Run:   runFig12,
	})
}

func runFig12(cfg RunConfig) *Result {
	fracs := []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5}
	if cfg.Quick {
		fracs = []float64{0.3, 0.8, 1.2}
	}
	t := NewTable("load(frac of capacity)", "lat-us(no Nezha)", "loss%(no)", "lat-us(Nezha)", "loss%(Nezha)")
	sNo := &Series{Name: "fig12-latency-without"}
	sYes := &Series{Name: "fig12-latency-with"}

	for _, frac := range fracs {
		latNo, lossNo := fig12Point(cfg, frac, false)
		latYes, lossYes := fig12Point(cfg, frac, true)
		t.AddRow(frac, latNo, lossNo*100, latYes, lossYes*100)
		sNo.Record(frac, latNo)
		sYes.Record(frac, latYes)
	}
	return &Result{
		ID: "fig12", Title: "Latency vs load",
		Tables: []*Table{t},
		Series: []*Series{sNo, sYes},
		Notes: []string{
			"latency is the probe flow's mean end-to-end delivery time; loss is the probe packets that never arrived",
			"the Nezha column offloads at 4 FEs above the 70% trigger, adding one extra hop (~tens of µs)",
		},
	}
}

// fig12Point measures probe latency under background load frac (of
// monolithic capacity), with or without offloading.
func fig12Point(cfg RunConfig, frac float64, nezha bool) (latUS float64, loss float64) {
	r := newRig(rigSpec(cfg.Seed, 8, 6))
	// Offloading engages above the 70% trigger only (§4.2.1): below
	// it, Nezha behaves identically to the baseline.
	if nezha && frac > 0.7 {
		if err := r.offloadTo(4); err != nil {
			panic(err)
		}
	}
	loop := r.Loop

	// Background load.
	r.SetLoad(frac * rigMonoCPS)
	r.StartLoad()

	// Probe flow: latency recorded at the server VM delivery.
	var latSum float64
	delivered := 0
	srv := r.ServerSwitch()
	orig := r.Server
	srv.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		if p.Tuple.SrcPort == 5555 {
			if p.PayloadLen > 0 {
				delivered++
				latSum += lat.Micros()
			}
			return
		}
		orig.OnDeliver(vnic, p, lat)
	})

	warm := sim.Second
	loop.Run(loop.Now() + warm)
	pg := workload.NewPinger(loop, r.Clients[0], cluster.ServerIP, 5555)
	n := 400
	if cfg.Quick {
		n = 100
	}
	pg.Run(1000, n)
	loop.Run(loop.Now() + sim.Time(n)*sim.Millisecond + sim.Second)
	r.StopLoad()

	if delivered > 0 {
		latUS = latSum / float64(delivered)
	}
	return latUS, 1 - float64(delivered)/float64(n)
}
