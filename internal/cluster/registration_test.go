package cluster

import (
	"testing"

	"nezha/internal/obs"
	"nezha/internal/policy"
	"nezha/internal/prof"
	"nezha/internal/slo"
)

// TestRegistrationAllocs bounds what registering each component's
// series costs: one allocation for the registration, whatever the
// number of series in its table, plus the component's own handles.
// Keys, descriptors and label sets wait for the first snapshot, so a
// world that is never snapshotted never builds them.
func TestRegistrationAllocs(t *testing.T) {
	c := New(Options{Servers: 2, Seed: 1, Policy: &policy.Config{}})
	o := obs.New(obs.Options{Seed: 1})
	p, tr := prof.New(), slo.NewTracker(slo.Config{})
	for _, tc := range []struct {
		name     string
		register func()
		max      float64
	}{
		{"fabric", func() { c.Fab.EnableObs(o) }, 1},
		{"gateway", func() { c.GW.EnableObs(o) }, 1},
		// The controller registers itself, its RPC transport and its
		// policy engine.
		{"controller", func() { c.Ctrl.EnableObs(o) }, 3},
		{"monitor", func() { c.Mon.EnableObs(o) }, 1},
		// A vSwitch also keeps its handles, its queue-wait histogram
		// among them, and its node label.
		{"vswitch", func() { c.Switches[0].EnableObs(o) }, 3},
		{"prof", func() { p.Attach(o.Reg) }, 1},
		{"slo", func() { o.AttachSLO(tr) }, 1},
	} {
		if n := testing.AllocsPerRun(100, tc.register); n > tc.max {
			t.Errorf("%s: registering allocates %v times, want ≤ %v", tc.name, n, tc.max)
		}
	}
}
