package controller

import (
	"strconv"

	"nezha/internal/journal"
	"nezha/internal/obs"
)

// EnableObs publishes the controller's transaction and pool state (and
// the RPC transport's counters) into the registry and records spans and
// events at the transaction lifecycle points. Per-vNIC and per-node
// gauges come from the table's Collect, so late label sets need no
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
	obs.Register(o.Reg, c, nil, &controllerTable)
}

func stat(name, help string, field func(*Events) uint64) obs.Series[Controller] {
	return obs.Series[Controller]{Name: name, Help: help, Kind: obs.KindCounter,
		Value: func(c *Controller) float64 { return float64(field(&c.Stats)) }}
}

// journalStat reads a journal counter, 0 with no journal attached.
func journalStat(c *Controller, read func(*journal.Journal) float64) float64 {
	if c.journal == nil {
		return 0
	}
	return read(c.journal)
}

var controllerTable = obs.Table[Controller]{
	Series: []obs.Series[Controller]{
		stat("controller_offloads_total", "Offload transactions committed.", func(s *Events) uint64 { return s.Offloads }),
		stat("controller_fallbacks_total", "Fallback transactions committed.", func(s *Events) uint64 { return s.Fallbacks }),
		stat("controller_scaleouts_total", "FE pool scale-out transactions committed.", func(s *Events) uint64 { return s.ScaleOuts }),
		stat("controller_scaleins_total", "FE pool scale-in transactions committed.", func(s *Events) uint64 { return s.ScaleIns }),
		stat("controller_failovers_total", "FE failovers executed after node-down declarations.", func(s *Events) uint64 { return s.Failovers }),
		stat("controller_fes_added_total", "FE shards added across all transactions.", func(s *Events) uint64 { return s.FEsAdded }),
		stat("controller_aborts_total", "Two-phase transactions aborted before commit.", func(s *Events) uint64 { return s.Aborts }),
		stat("controller_rollbacks_total", "Prepared targets rolled back after an abort.", func(s *Events) uint64 { return s.Rollbacks }),
		stat("controller_degraded_enters_total", "vNICs entering degraded (partial-pool) mode.", func(s *Events) uint64 { return s.DegradedEnters }),
		stat("controller_degraded_exits_total", "vNICs leaving degraded mode after repair.", func(s *Events) uint64 { return s.DegradedExits }),
		stat("controller_repair_runs_total", "Degraded-pool repair attempts.", func(s *Events) uint64 { return s.RepairRuns }),
		{Name: "ctrl_up", Help: "1 while the controller is alive, 0 during a crash outage.", Kind: obs.KindGauge,
			Value: func(c *Controller) float64 { return b2f(!c.down) }},
		{Name: "ctrl_recoveries_total", Help: "Completed controller crash recoveries.", Kind: obs.KindCounter,
			Value: func(c *Controller) float64 { return float64(c.Recoveries()) }},
		{Name: "ctrl_recovery_ms", Help: "Duration of the last completed recovery, milliseconds.", Kind: obs.KindGauge,
			Value: func(c *Controller) float64 {
				start, end, ok := c.LastRecovery()
				if !ok || end == 0 {
					return 0
				}
				return (end - start).Millis()
			}},
		{Name: "ctrl_dup_side_effects_total", Help: "Duplicate side effects suppressed during journal replay.", Kind: obs.KindCounter,
			Value: func(c *Controller) float64 { return float64(c.DupSideEffects()) }},
		{Name: "journal_bytes", Help: "Current journal size in bytes.", Kind: obs.KindGauge,
			Value: func(c *Controller) float64 {
				return journalStat(c, func(j *journal.Journal) float64 { return float64(j.SizeBytes()) })
			}},
		{Name: "journal_appends_total", Help: "Records appended to the journal.", Kind: obs.KindCounter,
			Value: func(c *Controller) float64 {
				return journalStat(c, func(j *journal.Journal) float64 { return float64(j.Stats.Appends) })
			}},
		{Name: "journal_snapshots_total", Help: "Journal compaction snapshots taken.", Kind: obs.KindCounter,
			Value: func(c *Controller) float64 {
				return journalStat(c, func(j *journal.Journal) float64 { return float64(j.Stats.Snapshots) })
			}},
		{Name: "controller_txns_inflight", Help: "Two-phase transactions currently open.", Kind: obs.KindGauge,
			Value: func(c *Controller) float64 {
				n := 0
				for _, v := range c.vnics {
					if v.txn != nil {
						n++
					}
				}
				return float64(n)
			}},
		{Name: "controller_vnic_offloaded", Help: "1 when the vNIC is offloaded to an FE pool."},
		{Name: "controller_vnic_fes", Help: "FE shards serving the vNIC."},
		{Name: "controller_vnic_epoch", Help: "vNIC configuration epoch."},
		{Name: "controller_vnic_degraded", Help: "1 while the vNIC's pool is degraded."},
		{Name: "controller_vnic_dirty", Help: "1 while the vNIC needs reconciliation."},
		{Name: "controller_node_down", Help: "1 while the controller believes the node is down."},
		{Name: "controller_node_cpu_util", Help: "Last reported datapath CPU utilization, 0..1."},
		{Name: "controller_node_mem_util", Help: "Last reported session-memory utilization, 0..1."},
		{Name: "controller_node_remote_share", Help: "Fraction of node cycles spent on remote (FE) traffic."},
		{Name: "controller_node_fronted_vnics", Help: "Remote vNICs this node fronts as an FE."},
	},
	Collect: (*Controller).collect,
}

// collect emits the per-vNIC and per-node gauges, whose label sets
// follow the vNICs and nodes the controller knows.
func (c *Controller) collect(emit obs.Emit) {
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
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
