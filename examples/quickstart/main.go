// Quickstart: the smallest end-to-end Nezha scenario.
//
// One high-demand server VM sits behind a scaled-down SmartNIC
// vSwitch; eight client VMs drive TCP_CRR-style short connections at
// it. The Nezha controller notices the hotspot and offloads the
// server's vNIC to four idle SmartNICs (stateless rule tables and
// cached flows move; session state stays home), then scales out to
// eight at t=3s. CPS settles at about 4.4× the local rate, which the
// run prints at the end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"nezha/internal/cluster"
	"nezha/internal/sim"
	"nezha/internal/workload"
)

func main() {
	// A small region: 8 client servers, 1 hot server, 8 idle servers
	// as the FE pool. vSwitches are scaled to ~7.4K CPS so the
	// hotspot forms quickly.
	w, err := cluster.Build(cluster.Spec{
		Seed: 7, Servers: 8 + 1 + 8, Clients: 8, ClientVCPUs: 16, ServerVCPUs: 64,
	})
	if err != nil {
		panic(err)
	}

	// Closed-loop connect/request/response/close workers on each
	// client, aimed at the server.
	for _, vm := range w.Clients {
		workload.NewClosedCRR(w.Loop, vm, cluster.ServerIP, 16, 100*sim.Millisecond).Start()
	}

	// Nezha on.
	w.Start()

	fmt.Println("quickstart: 8 clients hammering one server vNIC")
	var last, first, cps uint64
	for s := 1; s <= 12; s++ {
		w.Loop.Run(sim.Time(s) * sim.Second)
		done := w.Completed()
		state := "local"
		if w.Ctrl.Offloaded(cluster.ServerVNIC) {
			state = fmt.Sprintf("offloaded to %d FEs", len(w.Ctrl.FEsOf(cluster.ServerVNIC)))
		}
		cps, last = done-last, done
		if s == 1 {
			first = cps
		}
		fmt.Printf("  t=%2ds  cps=%6d  (%s)\n", s, cps, state)
	}
	fmt.Printf("\ndone: %d transactions completed; offloads=%d scale-outs=%d\n",
		w.Completed(), w.Ctrl.Stats.Offloads, w.Ctrl.Stats.ScaleOuts)
	fmt.Printf("note: CPS went %d -> %d (%.1fx) once the rule-table walks ran on the FEs;\n",
		first, cps, float64(cps)/float64(first))
	fmt.Println("      session state never left the server's SmartNIC (one copy, no sync).")
}
