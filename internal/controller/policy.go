package controller

import "errors"

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
// transaction, bypassing the scale cooldown (the policy loop paces).
func (c *Controller) ScaleOut(vnic uint32, n int) error {
	return c.deliver(event{kind: evScaleOut, vnic: vnic, n: n})
}

// ScaleIn gracefully removes n FEs from a vNIC's pool, most recently
// added first, never below the pool floor.
func (c *Controller) ScaleIn(vnic uint32, n int) error {
	return c.deliver(event{kind: evScaleIn, vnic: vnic, n: n})
}
