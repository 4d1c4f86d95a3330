package controller

import (
	"errors"
	"fmt"

	"nezha/internal/packet"
)

// This file is the controller's side of the self-driving policy loop
// (internal/policy): the policy.Actuator implementation. Every
// actuation routes through the same two-phase transaction machinery
// operator APIs use — prepare (install FE tables, gather acks), then
// commit (flip BE, then gateway) — so the no-blackhole guarantee is
// independent of who is driving.

// ErrNotOffloaded reports a pool mutation on a vNIC with no pool.
var ErrNotOffloaded = errors.New("controller: vNIC is not offloaded")

// PoolSize reports the vNIC's current FE count (0 when local).
func (c *Controller) PoolSize(vnic uint32) int {
	if v, ok := c.vnics[vnic]; ok {
		return len(v.fes)
	}
	return 0
}

// PoolNodes names the vNIC's FE nodes using the profiler's node
// naming (the vSwitch address string), for utilization lookups.
func (c *Controller) PoolNodes(vnic uint32) []string {
	v, ok := c.vnics[vnic]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(v.fes))
	for _, fa := range v.fes {
		out = append(out, fa.String())
	}
	return out
}

// Offload implements policy.Actuator: the standard offload
// transaction with controller-selected FEs.
func (c *Controller) Offload(vnic uint32) error { return c.ForceOffload(vnic) }

// Fallback implements policy.Actuator: the acked two-step fallback.
func (c *Controller) Fallback(vnic uint32) error { return c.ForceFallback(vnic) }

// ScaleOut grows a vNIC's FE pool by n through the scale-out
// transaction. The policy loop owns pacing, so the controller's own
// scale cooldown is bypassed; all transactional safety (prepare acks,
// quorum, rollback) still applies.
func (c *Controller) ScaleOut(vnic uint32, n int) error {
	v, ok := c.vnics[vnic]
	if !ok {
		return fmt.Errorf("controller: unknown vNIC %d", vnic)
	}
	if !v.offloaded {
		return ErrNotOffloaded
	}
	if v.txn != nil || v.inProgress {
		return ErrBusy
	}
	if !c.scaleOutOpts(v, n, true) {
		return ErrNoIdleNodes
	}
	return nil
}

// ScaleIn removes n FEs from a vNIC's pool, most recently added
// first, never below the pool floor. Removals are graceful: the
// gateway shrink propagates before the victims' tables are deleted
// (the learning interval + RTT), so in-flight traffic drains.
func (c *Controller) ScaleIn(vnic uint32, n int) error {
	v, ok := c.vnics[vnic]
	if !ok {
		return fmt.Errorf("controller: unknown vNIC %d", vnic)
	}
	if !v.offloaded {
		return ErrNotOffloaded
	}
	if v.txn != nil || v.inProgress {
		return ErrBusy
	}
	if max := len(v.fes) - c.floorOf(v); n > max {
		n = max
	}
	if n <= 0 {
		return nil
	}
	victims := append([]packet.IPv4(nil), v.fes[len(v.fes)-n:]...)
	removed := 0
	for _, fa := range victims {
		if c.removeFromPool(v, fa, true) {
			removed++
		}
	}
	if removed > 0 {
		c.Stats.ScaleIns++
	}
	return nil
}
