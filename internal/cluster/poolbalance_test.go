//go:build simdebug

package cluster

import (
	"testing"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// TestDrainedWorldReleasesEveryPacket pins the ownership rule of
// DESIGN.md §10 on the whole hotspot world: once the load stops and the
// last transactions settle, every pooled packet the run took is back in
// the pool except those still on the wire. A terminal consumer that
// forgets Release (the monitor's pongs once did) leaves one live packet
// per packet it consumed, and the count grows with the run.
func TestDrainedWorldReleasesEveryPacket(t *testing.T) {
	before := packet.LivePooled()
	w, err := Build(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.StartLoad()
	w.Loop.Run(10 * sim.Second)
	w.StopLoad()
	w.Loop.Run(w.Loop.Now() + 5*sim.Second)
	var cpu int
	for _, vs := range w.Switches {
		cpu += vs.InFlightCPU()
	}
	live := packet.LivePooled() - before
	if cpu != 0 || live != int64(w.Fab.InFlight()) {
		t.Fatalf("%d pooled packets live after the drain, %d of them on the wire and %d in vSwitch CPUs", live, w.Fab.InFlight(), cpu)
	}
}
