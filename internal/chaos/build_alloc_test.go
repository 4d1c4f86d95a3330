//go:build !race

package chaos

import (
	"testing"

	"nezha/internal/cluster"
	"nezha/internal/controller"
)

// TestWorldBuildAllocs bounds what building a world allocates. Each
// server's parts — CPU model, memory budget, meters, learner, ledger,
// session table, mutual-ping state, controller node and RPC agent —
// come with their owner, so a server costs a handful of allocations,
// not one per field (per-field constructors cost 781 and 418 here).
func TestWorldBuildAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func()
		max   float64
	}{
		// crr_offload's world: 24 scaled servers, controller on.
		{"crr_offload cluster.New", func() {
			cluster.New(cluster.Options{Servers: 24, ServersPerToR: 24, Seed: 1,
				Controller: controller.DefaultConfig(), VSwitch: cluster.Scaled})
		}, 400},
		// A campaign's rig at the package defaults, its server and
		// client VMs installed.
		{"chaos rig cluster.Build", func() {
			if _, err := cluster.Build(chaosSpec(1, 8, 3, 250)); err != nil {
				t.Fatal(err)
			}
		}, 240},
	} {
		n := testing.AllocsPerRun(20, tc.build)
		t.Logf("%s: %v allocations", tc.name, n)
		if n > tc.max {
			t.Errorf("%s: %v allocations, want ≤ %v", tc.name, n, tc.max)
		}
	}
}
