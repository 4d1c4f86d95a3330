package chaos

import (
	"fmt"

	"nezha/internal/sim"
	"nezha/internal/slo"
)

// sloBurnStreak is how many consecutive burning windows (at
// the tracker's burn window, default one virtual second each) the
// burn invariant tolerates before declaring a violation. Campaign
// fault schedules legitimately burn the error budget while a crash or
// partition is being detected and failed over; a streak this long
// means the system never recovered the vNIC's latency SLO.
const sloBurnStreak = 6

type sloBurnBound struct{ t *slo.Tracker }

// SLOBurnBound checks that no vNIC sustains an error-budget burn at
// or above the tracker's threshold for sloBurnStreak consecutive
// windows. Transient burns during fault episodes are expected; the
// invariant judges only the current streak, so a recovery that
// restores healthy windows resets it.
func SLOBurnBound(t *slo.Tracker) Invariant { return &sloBurnBound{t: t} }

func (c *sloBurnBound) Name() string { return "slo-burn-bound" }

func (c *sloBurnBound) Check(now sim.Time) error {
	vnic, s, ok := c.t.BurningAtLeast(sloBurnStreak)
	if !ok {
		return nil
	}
	_, _, _, p99, burn := c.t.VNICStats(vnic)
	return fmt.Errorf(
		"vnic %d burning its latency error budget for %d consecutive windows (burn=%.1f p99=%v objective=%v)",
		vnic, s, burn, sim.Time(p99), sim.Time(c.t.Objective()))
}
