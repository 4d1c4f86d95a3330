// Failover: kill an FE and watch Nezha recover — §4.4 live.
//
// A server vNIC is offloaded to 8 FEs carrying steady traffic. One FE
// crashes. The centralized monitor's ping polling misses three probes
// (~1.5 s), declares the crash, and the controller evicts the dead FE
// from the BE config and the gateway. The 7 FEs left are still above
// the 4-FE floor, so no replacement is added; one would be only if the
// eviction left fewer than 4. The event prints as a per-100ms
// loss-rate timeline.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"strings"

	"nezha/internal/cluster"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

func main() {
	w, err := cluster.Build(cluster.Spec{
		Seed: 3, Servers: 6 + 1 + 8, Clients: 6, ClientVCPUs: 16, ServerVCPUs: 64,
	})
	if err != nil {
		panic(err)
	}
	for _, vm := range w.Clients {
		workload.NewClosedCRR(w.Loop, vm, cluster.ServerIP, 8, 100*sim.Millisecond).Start()
	}

	w.Start()
	if err := w.Ctrl.ForceOffload(cluster.ServerVNIC); err != nil {
		panic(err)
	}
	w.Loop.Run(4 * sim.Second) // offload settles

	fes := len(w.Ctrl.FEsOf(cluster.ServerVNIC))
	fmt.Printf("offloaded to %d FEs: %v\n\n", fes, w.Ctrl.FEsOf(cluster.ServerVNIC))
	fmt.Println("time     loss-rate  (each # is 1% of packets lost in that 100ms)")

	var lastLost, lastSent uint64
	snap := func() (uint64, uint64) {
		lost := w.Fab.Lost
		for _, vs := range w.Switches {
			lost += vs.Stats.Drops[vswitch.DropCrashed]
		}
		return lost, w.Fab.Delivered + w.Fab.Lost
	}
	lastLost, lastSent = snap()
	t0 := w.Loop.Now()
	var lossFrom, lossTo sim.Time // the first and last 100ms that print a loss
	w.Loop.Every(100*sim.Millisecond, func() {
		lost, sent := snap()
		dl, ds := lost-lastLost, sent-lastSent
		lastLost, lastSent = lost, sent
		rate := 0.0
		if ds > 0 {
			rate = float64(dl) / float64(ds)
		}
		if rate >= 0.00005 {
			if lossFrom == 0 {
				lossFrom = w.Loop.Now() - 100*sim.Millisecond
			}
			lossTo = w.Loop.Now()
		}
		bar := strings.Repeat("#", int(rate*100))
		fmt.Printf("%7.1fs  %6.2f%%   %s\n", (w.Loop.Now() - t0).Seconds(), rate*100, bar)
	})

	// Crash one pool-hosted FE at t0+1s.
	w.Loop.Schedule(sim.Second, func() {
		fes := w.Ctrl.FEsOf(cluster.ServerVNIC)
		for _, a := range fes {
			for _, vs := range w.Pool() {
				if vs.Addr() == a {
					vs.Crash()
					fmt.Printf("          >>> FE %v crashed <<<\n", a)
					return
				}
			}
		}
	})
	w.Loop.Run(t0 + 6*sim.Second)

	fmt.Printf("\nfailovers=%d, FEs %d -> %d (the crashed one dropped): %v\n",
		w.Ctrl.Stats.Failovers, fes, len(w.Ctrl.FEsOf(cluster.ServerVNIC)), w.Ctrl.FEsOf(cluster.ServerVNIC))
	fmt.Printf("the loss window was %.1fs: the 3-probe detection (~1.5s) plus config propagation (§6.3.4 reports ~2s)\n",
		(lossTo - lossFrom).Seconds())
}
