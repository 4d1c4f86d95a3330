package experiments

import (
	"fmt"
	"math"

	"nezha/internal/cluster"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

// Table 4: completion time for activating offloading, measured from
// the trigger until all traffic flows through the FEs. The
// distribution is driven by the per-FE config pushes (the slowest of
// 4 gates the gateway update) plus the 200 ms learning interval.
func init() {
	register(Experiment{
		ID:    "table4",
		Title: "Completion time for activating offloading",
		Paper: "avg 1077 ms, P90 1503 ms, P99 2087 ms, P999 2858 ms",
		Run:   runTable4,
	})
}

func runTable4(cfg RunConfig) *Result {
	events := 3000
	if cfg.Quick {
		events = 300
	}
	// A fleet of vNICs on their own servers plus a pool; each is
	// force-offloaded and the controller's completion histogram
	// collects the Table 4 distribution.
	nPool := 24
	servers := events/10 + nPool // vNICs share servers (10 per server)
	c := cluster.New(cluster.Options{Servers: servers, ServersPerToR: 32, Seed: cfg.Seed})
	mk := func(vnic uint32) func() *tables.RuleSet {
		return func() *tables.RuleSet { return tables.NewRuleSet(vnic, 1) }
	}
	for i := 0; i < events; i++ {
		vnic := uint32(i + 1)
		srv := i / 10
		spec := cluster.VMSpec{
			Server: srv, VNIC: vnic, VPC: 1,
			IP: packet.MakeIP(10, 2, byte(i/250), byte(i%250)), VCPUs: 1,
			MakeRules: mk(vnic),
		}
		if _, err := c.AddVM(spec); err != nil {
			panic(err)
		}
	}
	// Stagger the offload triggers so pool nodes stay under IdleBar.
	for i := 0; i < events; i++ {
		vnic := uint32(i + 1)
		c.Loop.Schedule(sim.Time(i)*10*sim.Millisecond, func() {
			_ = c.Ctrl.ForceOffload(vnic)
		})
	}
	c.Loop.Run(sim.Time(events)*10*sim.Millisecond + 10*sim.Second)

	h := &c.Ctrl.OffloadCompletion
	t := NewTable("metric", "measured-ms", "paper-ms")
	t.AddRow("events", float64(h.Count()), float64(events))
	t.AddRow("avg", h.Mean(), 1077)
	t.AddRow("P90", h.Quantile(0.9), 1503)
	t.AddRow("P99", h.Quantile(0.99), 2087)
	t.AddRow("P999", h.Quantile(0.999), 2858)
	return &Result{
		ID: "table4", Title: "Offload activation completion time",
		Tables: []*Table{t},
		Notes:  []string{"completion = slowest of the per-FE config pushes + the 200 ms vNIC-server learning interval"},
	}
}

// Fig 13: daily vSwitch overload occurrences before/after Nezha.
// Monte Carlo over the region's hotspot process: each overload
// episode has a ramp tolerance (how long the vSwitch can absorb the
// surge); Nezha resolves it unless activation (sampled from the
// measured Table 4 distribution) loses the race. #vNIC overloads are
// structurally eliminated — rule tables are created directly on FEs.
func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Daily overload occurrence before/after Nezha",
		Paper: ">99.9% of CPS and #flows overloads resolved; #vNIC overloads completely avoided",
		Run:   runFig13,
	})
}

func runFig13(cfg RunConfig) *Result {
	days := 60
	perDay := 400.0 // region-wide overload episodes per day before Nezha
	if cfg.Quick {
		days = 10
	}
	rng := sim.NewRand(cfg.Seed)

	// Completion-time sampler calibrated like Table 4: max of 4
	// lognormal config pushes + 200 ms.
	completion := func() float64 {
		maxPush := 0.0
		for i := 0; i < 4; i++ {
			p := rng.LogNormal(-0.54, 0.40)
			if p > maxPush {
				maxPush = p
			}
		}
		return maxPush + 0.2 // seconds
	}
	// Surge tolerance: how long the vSwitch can ride a surge before
	// hard overload. Most surges build over tens of seconds; a rare
	// sub-second flash crowd can beat the activation.
	tolerance := func() float64 { return rng.LogNormal(math.Log(60), 1.35) }

	shares := []float64{0.61, 0.30, 0.09} // Fig 3
	names := []string{"CPS", "#flows", "#vNICs"}
	var before, after [3]int
	for d := 0; d < days; d++ {
		n := int(perDay + rng.NormFloat64()*math.Sqrt(perDay))
		for i := 0; i < n; i++ {
			u := rng.Float64()
			kind := 0
			switch {
			case u < shares[0]:
				kind = 0
			case u < shares[0]+shares[1]:
				kind = 1
			default:
				kind = 2
			}
			before[kind]++
			if kind == 2 {
				continue // #vNIC overloads never recur: tables created on FEs
			}
			if completion() > tolerance() {
				after[kind]++ // activation lost the race: overload recorded
			}
		}
	}
	t := NewTable("capability", "before/day", "after/day", "resolved%")
	for k := 0; k < 3; k++ {
		b := float64(before[k]) / float64(days)
		a := float64(after[k]) / float64(days)
		res := 100.0
		if before[k] > 0 {
			res = 100 * (1 - float64(after[k])/float64(before[k]))
		}
		t.AddRow(names[k], b, a, res)
	}
	return &Result{
		ID: "fig13", Title: "Daily overloads before/after",
		Tables: []*Table{t},
		Notes: []string{
			"residual CPS/#flows overloads are surges faster than the P999 activation time (§6.3.3)",
			"surge tolerance model: lognormal around 60 s; activation from the Table 4 distribution",
		},
	}
}

// Fig 14: impact of an FE crash on the packet loss rate. A steady
// workload runs through 4 FEs; one crashes; the monitor detects it
// and failover redirects traffic within ~2 s.
func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Impact of FE crash on packet loss rate",
		Paper: "loss surges for ≈2 s after the crash, then returns to zero after failover",
		Run:   runFig14,
	})
}

func runFig14(cfg RunConfig) *Result {
	r := newRig(rigSpec(cfg.Seed, 8, 8))
	r.Start() // monitor + controller handle the failover
	loop := r.Loop

	// Offload through the controller so it owns the FE pool.
	if err := r.Ctrl.ForceOffload(cluster.ServerVNIC); err != nil {
		panic(err)
	}
	loop.Run(4 * sim.Second)

	// Steady moderate load.
	r.SetLoad(0.5 * rigMonoCPS)
	r.StartLoad()
	loop.Run(loop.Now() + 2*sim.Second)

	// Sample loss per 100 ms bin: lost = fabric losses + crashed-
	// vSwitch drops; denominator = packets entering the fabric.
	loss := &Series{Name: "fig14-loss-rate"}
	var lastLost, lastSent uint64
	snapshot := func() (lost, sent uint64) {
		lost = r.Fab.Lost
		for _, vs := range r.Switches {
			lost += vs.Stats.Drops[vswitch.DropCrashed]
			lost += vs.Stats.Drops[vswitch.DropNoRules]
		}
		sent = r.Fab.Delivered + r.Fab.Lost
		return
	}
	lastLost, lastSent = snapshot()
	t0 := loop.Now()
	loop.Every(100*sim.Millisecond, func() {
		lost, sent := snapshot()
		dl, ds := lost-lastLost, sent-lastSent
		lastLost, lastSent = lost, sent
		rate := 0.0
		if ds > 0 {
			rate = float64(dl) / float64(ds)
		}
		loss.Record((loop.Now() - t0).Seconds(), rate)
	})

	// Crash one FE 2 s into the measurement.
	var victim *vswitch.VSwitch
	crashAt := loop.Now() + 2*sim.Second
	loop.At(crashAt, func() {
		fes := r.Ctrl.FEsOf(cluster.ServerVNIC)
		if len(fes) == 0 {
			return
		}
		// Crash an FE hosted on a pool server (not a client's switch,
		// whose death would also kill that client's own traffic and
		// muddy the loss attribution).
		inPool := func(a packet.IPv4) bool {
			for i := len(r.Clients) + 1; i < len(r.Switches); i++ {
				if r.Switch(i).Addr() == a {
					return true
				}
			}
			return false
		}
		target := fes[0]
		for _, a := range fes {
			if inPool(a) {
				target = a
				break
			}
		}
		for _, vs := range r.Switches {
			if vs.Addr() == target {
				victim = vs
				vs.Crash()
				return
			}
		}
	})
	loop.Run(crashAt + 8*sim.Second)
	r.StopLoad()

	// Quantify the surge window.
	surgeStart, surgeEnd, peak := -1.0, -1.0, 0.0
	for _, p := range loss.Points {
		ts, v := p[0], p[1]
		if v > peak {
			peak = v
		}
		if v > 0.01 {
			if surgeStart < 0 {
				surgeStart = ts
			}
			surgeEnd = ts
		}
	}
	t := NewTable("metric", "value")
	if victim != nil {
		t.AddRow("crashed FE", victim.Addr().String())
	}
	t.AddRow("peak loss rate", peak)
	if surgeStart >= 0 {
		t.AddRow("surge duration (s)", surgeEnd-surgeStart+0.1)
	} else {
		t.AddRow("surge duration (s)", 0)
	}
	t.AddRow("failovers", fmt.Sprintf("%d", r.Ctrl.Stats.Failovers))
	t.AddRow("final #FEs", len(r.Ctrl.FEsOf(cluster.ServerVNIC)))
	return &Result{
		ID: "fig14", Title: "FE crash loss window",
		Tables: []*Table{t},
		Series: []*Series{loss},
		Notes:  []string{"the loss window ends when the monitor's 3 missed probes (1.5 s) plus eviction/config propagation complete (§4.4)"},
	}
}

// Appendix B.2: the 30-day production scaling test. 2499 offload
// events provisioned 10062 FEs against a theoretical 9996 (4 each) —
// at most 66 scale-out additions, i.e. ≤2.6% of pools ever scaled.
func init() {
	register(Experiment{
		ID:    "b2",
		Title: "Production scaling test (30 days)",
		Paper: "2499 offloads, 10062 FEs accumulated, ≤2.6% of pools scaled out — 4 initial FEs balances performance and scaling cost",
		Run:   runB2,
	})
}

func runB2(cfg RunConfig) *Result {
	offloads := 2499
	if cfg.Quick {
		offloads = 300
	}
	rng := sim.NewRand(cfg.Seed)
	// Each offloaded vNIC's post-offload demand (in FE-capacity
	// units) follows the heavy-tailed usage distribution: the initial
	// 4 FEs cover it unless demand exceeds 4 x 40% (the scale
	// trigger), in which case the pool doubles (possibly repeatedly).
	totalFEs := 0
	scaledPools := 0
	extraFEs := 0
	for i := 0; i < offloads; i++ {
		// Demand in units of one FE's full capacity; most offloaded
		// vNICs need around one vSwitch's worth, so the initial 4 FEs
		// (each kept under the 40% scale trigger) cover nearly all.
		demand := rng.LogNormal(-0.2, 0.35)
		pool := 4
		if need := int(math.Ceil(demand / 0.40)); need > pool {
			pool = need
			scaledPools++
			extraFEs += need - 4
		}
		totalFEs += pool
	}
	t := NewTable("metric", "measured", "paper")
	t.AddRow("offload events", offloads, 2499)
	t.AddRow("FEs provisioned", totalFEs, 10062)
	t.AddRow("theoretical minimum (4 each)", 4*offloads, 9996)
	t.AddRow("pools that scaled out", scaledPools, "≤66")
	t.AddRow("extra FEs beyond 4 each", extraFEs, 66)
	t.AddRow("scaled pool fraction %", 100*float64(scaledPools)/float64(offloads), 2.6)
	return &Result{
		ID: "b2", Title: "30-day scaling test",
		Tables: []*Table{t},
		Notes:  []string{"4 initial FEs absorb the vast majority of offloaded demand without any scaling (Appendix B.2)"},
	}
}
