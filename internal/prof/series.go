package prof

import (
	"sort"

	"nezha/internal/sim"
)

// This file is the windowed view of the profiler: instead of the
// cumulative totals Samples() reports, a SeriesReader turns successive
// drains into per-window deltas — the derivative signal a control
// policy actually wants ("how much relocatable work per second is this
// vNIC costing right now"), not the integral since boot.

// VNICSeries is one vNIC's attribution delta over a window, summed
// across the roles (local + FE) the vNIC runs under on one node. The
// cycle fields are deltas; TableBytes is the live residency at drain
// time (a level, not a delta).
type VNICSeries struct {
	Node string
	VNIC uint32
	Role Role
	// RuleCycles / SessCycles are the window's slow-path and
	// session-install cycles: the relocatable work an offload moves,
	// as a rate signal.
	RuleCycles uint64
	SessCycles uint64
	// TableBytes is the live rule + session + flowcache residency.
	TableBytes uint64
}

// NodeSeries is one node's mean core utilization over its most recent
// utilization window.
type NodeSeries struct {
	Node string
	Util float64
}

// Window is one drained interval: per-vNIC attribution deltas and
// per-node utilization, both deterministically sorted.
type Window struct {
	T0, T1 sim.Time
	VNICs  []VNICSeries
	Nodes  []NodeSeries
}

// seriesKey identifies one cumulative cycle accumulator.
type seriesKey struct {
	node string
	vnic uint32
	role Role
}

// SeriesReader converts the profiler's cumulative accumulators into
// per-window deltas, one Window per Read. Reads run on the sim
// goroutine (the same ownership rule all draining follows).
type SeriesReader struct {
	p        *Profiler
	lastT    sim.Time
	lastRule map[seriesKey]uint64
	lastSess map[seriesKey]uint64
}

// NewSeriesReader builds a reader; the first Read establishes the
// baseline window [0, now].
func NewSeriesReader(p *Profiler) *SeriesReader {
	return &SeriesReader{
		p:        p,
		lastRule: make(map[seriesKey]uint64),
		lastSess: make(map[seriesKey]uint64),
	}
}

// Prime baselines the reader at now without emitting a window: it
// snapshots the cumulative accumulators so the NEXT Read reports exact
// deltas for [now, then] instead of cumulative-since-boot totals. A
// recovered controller uses this to hand the policy loop a fresh
// reader mid-run — the profiler survives a controller crash (it is
// off-box telemetry), so its accumulators are far ahead of a newborn
// reader's zero baselines. Prime consumes no attribution: other
// readers' windows are unaffected.
func (r *SeriesReader) Prime(now sim.Time) {
	r.p.Advance(now)
	r.lastRule = make(map[seriesKey]uint64)
	r.lastSess = make(map[seriesKey]uint64)
	for _, s := range r.p.Samples() {
		if s.VNIC == OverflowVNIC || s.Role == RoleCtrl {
			continue
		}
		k := seriesKey{node: s.Node, vnic: s.VNIC, role: s.Role}
		switch {
		case s.Cycles > 0 && s.Stage == StageSlowpath:
			r.lastRule[k] += s.Cycles
		case s.Cycles > 0 && s.Stage == StageSessionInstall:
			r.lastSess[k] += s.Cycles
		}
	}
	r.lastT = now
}

// Read closes the window [lastRead, now]: it advances the utilization
// timelines and drains the attribution deltas since the previous Read.
func (r *SeriesReader) Read(now sim.Time) Window {
	r.p.Advance(now)
	w := Window{T0: r.lastT, T1: now}
	agg := make(map[seriesKey]*VNICSeries)
	var order []seriesKey
	for _, s := range r.p.Samples() {
		if s.VNIC == OverflowVNIC || s.Role == RoleCtrl {
			continue
		}
		k := seriesKey{node: s.Node, vnic: s.VNIC, role: s.Role}
		v, ok := agg[k]
		if !ok {
			v = &VNICSeries{Node: s.Node, VNIC: s.VNIC, Role: s.Role}
			agg[k] = v
			order = append(order, k)
		}
		switch {
		case s.Cycles > 0 && s.Stage == StageSlowpath:
			v.RuleCycles += s.Cycles
		case s.Cycles > 0 && s.Stage == StageSessionInstall:
			v.SessCycles += s.Cycles
		case s.Bytes > 0 && (s.Cause == CauseRuleTable || s.Cause == CauseSessionTable || s.Cause == CauseFlowCache):
			v.TableBytes += s.Bytes
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.vnic != b.vnic {
			return a.vnic < b.vnic
		}
		return a.role < b.role
	})
	for _, k := range order {
		v := *agg[k]
		// The accumulators are cumulative; the window's delta is
		// cumulative minus the previous drain's cumulative.
		rule, sess := v.RuleCycles, v.SessCycles
		v.RuleCycles -= r.lastRule[k]
		v.SessCycles -= r.lastSess[k]
		r.lastRule[k], r.lastSess[k] = rule, sess
		if v.RuleCycles == 0 && v.SessCycles == 0 && v.TableBytes == 0 {
			continue
		}
		w.VNICs = append(w.VNICs, v)
	}
	for _, n := range r.p.Nodes() {
		ws := n.windowsTail()
		if len(ws) == 0 {
			continue
		}
		last := ws[len(ws)-1]
		var sum float64
		for _, u := range last.Util {
			sum += u
		}
		util := 0.0
		if len(last.Util) > 0 {
			util = sum / float64(len(last.Util))
		}
		w.Nodes = append(w.Nodes, NodeSeries{Node: n.Node, Util: util})
	}
	r.lastT = now
	return w
}

// windowsTail returns the most recent utilization window without
// copying the whole ring.
func (n *NodeProf) windowsTail() []CoreWindow {
	if len(n.windows) == 0 {
		return nil
	}
	idx := n.wHead - 1
	if idx < 0 {
		idx = len(n.windows) - 1
	}
	if len(n.windows) < timelineCap {
		idx = len(n.windows) - 1
	}
	return n.windows[idx : idx+1]
}
