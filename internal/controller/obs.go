package controller

import (
	"strconv"

	"nezha/internal/obs"
)

// EnableObs publishes the controller's transaction and pool state (and
// the RPC transport's counters) into the registry and records spans and
// events at the transaction lifecycle points. Per-vNIC and per-node
// gauges come from a Collect callback, so late label sets need no
// pre-registration.
func (c *Controller) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	c.ob = o
	c.rpc.EnableObs(o)
	if c.policy != nil {
		c.policy.EnableObs(o)
	}
	r := o.Reg
	r.Help("controller_offloads_total", "Offload transactions committed.")
	r.Help("controller_fallbacks_total", "Fallback transactions committed.")
	r.Help("controller_scaleouts_total", "FE pool scale-out transactions committed.")
	r.Help("controller_scaleins_total", "FE pool scale-in transactions committed.")
	r.Help("controller_failovers_total", "FE failovers executed after node-down declarations.")
	r.Help("controller_fes_added_total", "FE shards added across all transactions.")
	r.Help("controller_aborts_total", "Two-phase transactions aborted before commit.")
	r.Help("controller_rollbacks_total", "Prepared targets rolled back after an abort.")
	r.Help("controller_degraded_enters_total", "vNICs entering degraded (partial-pool) mode.")
	r.Help("controller_degraded_exits_total", "vNICs leaving degraded mode after repair.")
	r.Help("controller_repair_runs_total", "Degraded-pool repair attempts.")
	r.Help("ctrl_up", "1 while the controller is alive, 0 during a crash outage.")
	r.Help("ctrl_recoveries_total", "Completed controller crash recoveries.")
	r.Help("ctrl_recovery_ms", "Duration of the last completed recovery, milliseconds.")
	r.Help("ctrl_dup_side_effects_total", "Duplicate side effects suppressed during journal replay.")
	r.Help("journal_bytes", "Current journal size in bytes.")
	r.Help("journal_appends_total", "Records appended to the journal.")
	r.Help("journal_snapshots_total", "Journal compaction snapshots taken.")
	r.Help("controller_txns_inflight", "Two-phase transactions currently open.")
	r.Help("controller_vnic_offloaded", "1 when the vNIC is offloaded to an FE pool.")
	r.Help("controller_vnic_fes", "FE shards serving the vNIC.")
	r.Help("controller_vnic_epoch", "vNIC configuration epoch.")
	r.Help("controller_vnic_degraded", "1 while the vNIC's pool is degraded.")
	r.Help("controller_vnic_dirty", "1 while the vNIC needs reconciliation.")
	r.Help("controller_node_down", "1 while the controller believes the node is down.")
	r.Help("controller_node_cpu_util", "Last reported datapath CPU utilization, 0..1.")
	r.Help("controller_node_mem_util", "Last reported session-memory utilization, 0..1.")
	r.Help("controller_node_remote_share", "Fraction of node cycles spent on remote (FE) traffic.")
	r.Help("controller_node_fronted_vnics", "Remote vNICs this node fronts as an FE.")
	r.CounterVar("controller_offloads_total", nil, &c.Stats.Offloads)
	r.CounterVar("controller_fallbacks_total", nil, &c.Stats.Fallbacks)
	r.CounterVar("controller_scaleouts_total", nil, &c.Stats.ScaleOuts)
	r.CounterVar("controller_scaleins_total", nil, &c.Stats.ScaleIns)
	r.CounterVar("controller_failovers_total", nil, &c.Stats.Failovers)
	r.CounterVar("controller_fes_added_total", nil, &c.Stats.FEsAdded)
	r.CounterVar("controller_aborts_total", nil, &c.Stats.Aborts)
	r.CounterVar("controller_rollbacks_total", nil, &c.Stats.Rollbacks)
	r.CounterVar("controller_degraded_enters_total", nil, &c.Stats.DegradedEnters)
	r.CounterVar("controller_degraded_exits_total", nil, &c.Stats.DegradedExits)
	r.CounterVar("controller_repair_runs_total", nil, &c.Stats.RepairRuns)
	r.GaugeFunc("ctrl_up", nil, func() float64 { return b2f(!c.down) })
	r.CounterFunc("ctrl_recoveries_total", nil, func() uint64 { return c.Recoveries() })
	r.GaugeFunc("ctrl_recovery_ms", nil, func() float64 {
		start, end, ok := c.LastRecovery()
		if !ok || end == 0 {
			return 0
		}
		return (end - start).Millis()
	})
	r.CounterFunc("ctrl_dup_side_effects_total", nil, func() uint64 { return c.DupSideEffects() })
	r.GaugeFunc("journal_bytes", nil, func() float64 {
		if c.journal == nil {
			return 0
		}
		return float64(c.journal.SizeBytes())
	})
	r.CounterFunc("journal_appends_total", nil, func() uint64 {
		if c.journal == nil {
			return 0
		}
		return c.journal.Stats.Appends
	})
	r.CounterFunc("journal_snapshots_total", nil, func() uint64 {
		if c.journal == nil {
			return 0
		}
		return c.journal.Stats.Snapshots
	})
	r.GaugeFunc("controller_txns_inflight", nil, func() float64 {
		n := 0
		for _, v := range c.vnics {
			if v.txn != nil {
				n++
			}
		}
		return float64(n)
	})
	r.Collect(func(emit obs.Emit) {
		for _, id := range c.sortedVNICs() {
			v := c.vnics[id]
			l := obs.L("vnic", strconv.FormatUint(uint64(id), 10))
			emit("controller_vnic_offloaded", l, obs.KindGauge, b2f(v.offloaded))
			emit("controller_vnic_fes", l, obs.KindGauge, float64(len(v.fes)))
			emit("controller_vnic_epoch", l, obs.KindGauge, float64(v.epoch))
			emit("controller_vnic_degraded", l, obs.KindGauge, b2f(v.degraded))
			emit("controller_vnic_dirty", l, obs.KindGauge, b2f(v.dirty))
		}
		for _, addr := range c.nodeAddrsInto(nil) {
			n := c.nodes[addr]
			l := obs.L("node", addr.String())
			emit("controller_node_down", l, obs.KindGauge, b2f(n.down))
			emit("controller_node_cpu_util", l, obs.KindGauge, n.cpuUtil)
			emit("controller_node_mem_util", l, obs.KindGauge, n.memUtil)
			emit("controller_node_remote_share", l, obs.KindGauge, n.remoteShare)
			emit("controller_node_fronted_vnics", l, obs.KindGauge, float64(len(n.fronted)))
		}
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
