package experiments

import (
	"fmt"

	"nezha/internal/baseline"
	"nezha/internal/slo"
	"nezha/internal/state"
	"nezha/internal/trace"
)

// Fig 2: CPU usage of high-CPS VMs vs their vSwitches.
func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "CPU usage of high-CPS VMs and their vSwitches",
		Paper: "vSwitch CPU >95% for every high-CPS VM; 90% of the VMs themselves below 60% CPU",
		Run: func(cfg RunConfig) *Result {
			n := 2000
			if cfg.Quick {
				n = 200
			}
			r := trace.NewRegion(cfg.Seed, 0)
			pairs := r.HighCPSVMs(n)
			var vm, vs slo.Samples
			under60 := 0
			for _, p := range pairs {
				vm.Observe(p.VMCPU * 100)
				vs.Observe(p.VSwitchCPU * 100)
				if p.VMCPU < 0.60 {
					under60++
				}
			}
			t := NewTable("entity", "min%", "p50%", "p90%", "max%")
			t.AddRow("high-CPS VM", vm.Quantile(0), vm.Quantile(0.5), vm.Quantile(0.9), vm.Quantile(1))
			t.AddRow("its vSwitch", vs.Quantile(0), vs.Quantile(0.5), vs.Quantile(0.9), vs.Quantile(1))
			return &Result{
				ID: "fig2", Title: "High-CPS VM vs vSwitch CPU",
				Tables: []*Table{t},
				Notes: []string{fmt.Sprintf(
					"%.1f%% of high-CPS VMs below 60%% CPU (paper: ~90%%); every vSwitch above 95%%",
					100*float64(under60)/float64(n))},
			}
		},
	})
}

// Fig 3: hotspot distribution by overloaded capability.
func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Hotspot distribution in a region",
		Paper: "CPS ≈61%, #concurrent flows ≈30%, #vNICs ≈9% of vSwitch overloads",
		Run: func(cfg RunConfig) *Result {
			n := 100000
			if cfg.Quick {
				n = 5000
			}
			r := trace.NewRegion(cfg.Seed, 0)
			d := r.HotspotDistribution(n)
			t := NewTable("cause", "share%", "paper%")
			total := float64(n)
			t.AddRow("CPS", 100*float64(d[trace.OverloadCPS])/total, 61)
			t.AddRow("#concurrent flows", 100*float64(d[trace.OverloadConcurrentFlows])/total, 30)
			t.AddRow("#vNICs", 100*float64(d[trace.OverloadVNICs])/total, 9)
			return &Result{ID: "fig3", Title: "Hotspot causes", Tables: []*Table{t}}
		},
	})
}

// Fig 4: CPU and memory utilization CDFs over O(10K) vSwitches.
func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Resource utilization CDF on O(10K) vSwitches",
		Paper: "CPU avg≈5% P90≈15% P99≈41% P999≈68% P9999≈90%; mem avg≈1.5% P90≈15% P99≈34% P999≈93% P9999≈96%",
		Run: func(cfg RunConfig) *Result {
			n := 200000
			if cfg.Quick {
				n = 20000
			}
			r := trace.NewRegion(cfg.Seed, n)
			cpu := r.CPUUtilization()
			mem := r.MemUtilization()
			t := NewTable("resource", "avg%", "p90%", "p99%", "p999%", "p9999%", "max%")
			t.AddRow("CPU", cpu.Mean(), cpu.Quantile(0.9), cpu.Quantile(0.99), cpu.Quantile(0.999), cpu.Quantile(0.9999), cpu.Quantile(1))
			t.AddRow("CPU (paper)", 5.0, 15.0, 41.0, 68.0, 90.0, 98.0)
			t.AddRow("memory", mem.Mean(), mem.Quantile(0.9), mem.Quantile(0.99), mem.Quantile(0.999), mem.Quantile(0.9999), mem.Quantile(1))
			t.AddRow("memory (paper)", 1.5, 15.0, 34.0, 93.0, 96.0, 96.0)
			return &Result{
				ID: "fig4", Title: "Utilization CDFs",
				Tables: []*Table{t},
				Notes: []string{
					fmt.Sprintf("CPU skew P9999/avg = %.1fx (paper ≈20x)", cpu.Quantile(0.9999)/cpu.Mean()),
					fmt.Sprintf("memory skew P9999/avg = %.1fx (paper ≈64x)", mem.Quantile(0.9999)/mem.Mean()),
				},
			}
		},
	})
}

// Table 1: normalized distribution of CPS, #flows and #vNIC usage.
func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Normalized distribution of CPS, #concurrent flows, #vNICs usage",
		Paper: "P50 0.53/0.78/0.65%, P90 1.41/2.36/1%, P99 6.41/6.39/6%, P999 18.38/29.17/55%, P9999 100%",
		Run: func(cfg RunConfig) *Result {
			n := 300000
			if cfg.Quick {
				n = 30000
			}
			r := trace.NewRegion(cfg.Seed, 0)
			t := NewTable("percentile", "CPS%", "#flows%", "#vNICs%")
			hs := make([]*slo.Samples, 3)
			for k := 0; k < 3; k++ {
				hs[k] = r.UsageDistribution(k, n)
			}
			rows := []struct {
				name string
				q    float64
			}{
				{"P50", 0.50}, {"P90", 0.90}, {"P99", 0.99}, {"P999", 0.999}, {"P9999", 0.9999},
			}
			for _, row := range rows {
				cells := make([]interface{}, 0, 4)
				cells = append(cells, row.name)
				for k := 0; k < 3; k++ {
					cells = append(cells, 100*hs[k].Quantile(row.q)/hs[k].Quantile(0.9999))
				}
				t.AddRow(cells...)
			}
			return &Result{ID: "table1", Title: "Usage distribution (normalized to P9999)",
				Tables: []*Table{t},
				Notes:  []string{"usage is dominated by a handful of heavy tenants: P50 is a fraction of a percent of P9999"}}
		},
	})
}

// Fig 15: average state size in a region, and the §7.1 headroom.
func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Average state size in a region",
		Paper: "average state 5–8 B vs the fixed 64 B slot; variable-length states could improve #flows up to 8x",
		Run: func(cfg RunConfig) *Result {
			n := 200000
			if cfg.Quick {
				n = 20000
			}
			r := trace.NewRegion(cfg.Seed, 0)
			h := r.StateSizes(n)
			t := NewTable("metric", "bytes")
			t.AddRow("avg state size", h.Mean())
			t.AddRow("p50", h.Quantile(0.5))
			t.AddRow("p99", h.Quantile(0.99))
			t.AddRow("max", h.Quantile(1))
			t.AddRow("fixed slot", float64(state.FixedSizeBytes))
			return &Result{
				ID: "fig15", Title: "State sizes",
				Tables: []*Table{t},
				Notes: []string{fmt.Sprintf(
					"variable-length states would fit %.1fx more sessions in the same memory (paper: up to 8x)",
					float64(state.FixedSizeBytes)/h.Mean())},
			}
		},
	})
}

// Fig A1: VM migration downtime vs VM size.
func init() {
	register(Experiment{
		ID:    "figa1",
		Title: "VM migration downtime with different vCPU / memory sizes",
		Paper: "downtime and total time grow with purchased resources; ~1 TB VMs take tens of minutes to migrate",
		Run: func(cfg RunConfig) *Result {
			reps := 500
			if cfg.Quick {
				reps = 50
			}
			r := trace.NewRegion(cfg.Seed, 0)
			shapes := []struct {
				vcpus int
				memGB int
			}{
				{4, 16}, {8, 32}, {16, 64}, {32, 128}, {64, 256}, {104, 512}, {104, 1024},
			}
			t := NewTable("vCPUs", "memGB", "downtime-ms(avg)", "total-s(avg)")
			for _, sh := range shapes {
				var down, total float64
				for i := 0; i < reps; i++ {
					s := r.MigrationDowntime(sh.vcpus, sh.memGB)
					down += s.DowntimeMS
					total += s.TotalSec
				}
				t.AddRow(sh.vcpus, sh.memGB, down/float64(reps), total/float64(reps))
			}
			return &Result{ID: "figa1", Title: "Migration downtime",
				Tables: []*Table{t},
				Notes:  []string{"remote offloading takes ~2s (P99) independent of VM size — the §7.2 comparison"}}
		},
	})
}

// Table 5: deployment cost comparison.
func init() {
	register(Experiment{
		ID:    "table5",
		Title: "Deployment costs of Sailfish / Nezha",
		Paper: "Sailfish: 100/48/20 P-M, 1-3 months scale-out; Nezha: 0/15/0 P-M, 1-7 days",
		Run: func(cfg RunConfig) *Result {
			t := NewTable("item", "Sailfish", "Nezha")
			s, n := baseline.SailfishCost(), baseline.NezhaCost()
			t.AddRow("hardware development (P-M)", s.HardwareDevPM, n.HardwareDevPM)
			t.AddRow("software development (P-M)", s.SoftwareDevPM, n.SoftwareDevPM)
			t.AddRow("extra effort for iteration (P-M)", s.IterationPM, n.IterationPM)
			t.AddRow("scale-out time (days, min)", s.ScaleOutMinDays, n.ScaleOutMinDays)
			t.AddRow("scale-out time (days, max)", s.ScaleOutMaxDays, n.ScaleOutMaxDays)
			t.AddRow("new devices in DC", s.NewDevices, n.NewDevices)
			return &Result{
				ID: "table5", Title: "Deployment cost model",
				Tables: []*Table{t},
				Notes: []string{
					fmt.Sprintf("Nezha development effort = %.0f%% of Sailfish's (paper: ~10%%)", 100*baseline.DevEffortRatio()),
					"Sailfish: " + s.Rationale,
					"Nezha: " + n.Rationale,
				},
			}
		},
	})
}
