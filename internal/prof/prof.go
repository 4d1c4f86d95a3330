// Package prof is the always-on cycle/byte attribution profiler.
//
// Every cycle the datapath charges to a NIC CPU and every byte the
// vSwitch allocates from NIC memory is tagged with an attribution key
// (node, vnic, direction, stage, cause) and accumulated into
// per-vSwitch slots claimed at install: no maps, no allocations, and
// no atomics on the hot path — a charge is one array add, cheap
// enough that every vSwitch keeps its ledger always. The
// arrays are drained at snapshot time into the obs registry, into
// pprof-encoded profiles (attribution keys become synthetic stack
// frames so `go tool pprof` and flamegraph tooling work unchanged),
// and into a ranked offload-candidate report for the controller.
//
// All charging happens on the sim-loop goroutine (the same ownership
// rule the obs registration tables rely on); draining also runs there
// in the sim, so plain uint64 adds are safe.
package prof

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"nezha/internal/obs"
	"nezha/internal/sim"
)

// Stage is the datapath stage a cycle charge is attributed to. The
// stages mirror the cost constants in internal/nic/costs.go: every
// charged cycle decomposes into exactly one stage.
type Stage uint8

// Stages.
const (
	StageFastpath Stage = iota
	StageSlowpath
	StageEncap
	StageStateCarry
	StageNotify
	StagePerByte
	StageSessionInstall
	StageCtrl
	NumStages
)

var stageNames = [NumStages]string{
	"fastpath", "slowpath", "encap", "state-carry",
	"notify", "per-byte", "session-install", "ctrl",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Dir is the packet direction of a charge.
type Dir uint8

// Directions. DirTX/DirRX match packet.DirTX/packet.DirRX; DirNone is
// for charges with no packet direction (memory, control plane).
const (
	DirTX Dir = iota
	DirRX
	DirNone
	NumDirs
)

func (d Dir) String() string {
	switch d {
	case DirTX:
		return "tx"
	case DirRX:
		return "rx"
	case DirNone:
		return "none"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// Cause names the table or component a charge is for — the unit the
// controller can actually relocate.
type Cause uint8

// Causes.
const (
	CauseNone Cause = iota
	CauseFlowCache
	CauseRuleTable
	CauseSessionTable
	CauseBEData
	CausePressure
	CauseCtrlPlane
	NumCauses
)

var causeNames = [NumCauses]string{
	"none", "flowcache", "rule-table", "session-table",
	"be-data", "pressure", "ctrl-plane",
}

func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// stageCause maps each cycle stage to the component that causes it,
// derived at drain time so the hot path never touches it.
var stageCause = [NumStages]Cause{
	StageFastpath:       CauseFlowCache,
	StageSlowpath:       CauseRuleTable,
	StageEncap:          CauseNone,
	StageStateCarry:     CauseNone,
	StageNotify:         CauseNone,
	StagePerByte:        CauseNone,
	StageSessionInstall: CauseSessionTable,
	StageCtrl:           CauseCtrlPlane,
}

// memStage maps each memory cause to the stage used for its synthetic
// pprof frame grouping.
var memStage = [NumCauses]Stage{
	CauseNone:         StageCtrl,
	CauseFlowCache:    StageSessionInstall,
	CauseRuleTable:    StageCtrl,
	CauseSessionTable: StageSessionInstall,
	CauseBEData:       StageCtrl,
	CausePressure:     StageCtrl,
	CauseCtrlPlane:    StageCtrl,
}

// Role distinguishes what a vNIC slot is on this node: the vNIC's
// home (local/BE) instance, a frontend replica, or control-plane work
// not tied to a tenant vNIC.
type Role uint8

// Roles.
const (
	RoleLocal Role = iota
	RoleFE
	RoleCtrl
)

func (r Role) String() string {
	switch r {
	case RoleLocal:
		return "local"
	case RoleFE:
		return "fe"
	case RoleCtrl:
		return "ctrl"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// OverflowVNIC labels the per-role spill slots a node falls back to
// when more than maxSlots distinct (vnic, role) pairs appear.
const OverflowVNIC = ^uint32(0)

// maxSlots bounds a node's slots. Slots are claimed on vNIC install
// (never per packet), so the bound only matters for very dense nodes;
// charges beyond it spill into their role's overflow slot.
const maxSlots = 64

// slotSlab is how many slots a node allocates at once: a switch that
// homes a few vNICs and fronts a few more claims them all in one.
const slotSlab = 8

// VNICProf is one (vnic, role) attribution accumulator. All fields
// are plain uint64s bumped on the sim goroutine; Charge/MemAlloc/
// MemFree are the only hot-path entry points in the package.
type VNICProf struct {
	VNIC uint32
	Role Role

	cycles   [NumDirs][NumStages]uint64
	memAlloc [NumCauses]uint64
	memFree  [NumCauses]uint64
}

// Charge attributes cycles to (dir, stage).
func (v *VNICProf) Charge(d Dir, s Stage, cycles uint64) {
	v.cycles[d][s] += cycles
}

// MemAlloc attributes an allocation of n bytes to cause c.
func (v *VNICProf) MemAlloc(c Cause, n uint64) { v.memAlloc[c] += n }

// MemFree attributes a free of n bytes to cause c.
func (v *VNICProf) MemFree(c Cause, n uint64) { v.memFree[c] += n }

// Cycles returns the accumulated cycles for (dir, stage).
func (v *VNICProf) Cycles(d Dir, s Stage) uint64 { return v.cycles[d][s] }

// Total returns the slot's cycles over every direction and stage.
func (v *VNICProf) Total() uint64 {
	var t uint64
	for d := range v.cycles {
		for _, c := range v.cycles[d] {
			t += c
		}
	}
	return t
}

// LiveBytes returns alloc-free for cause c, clamped at zero.
func (v *VNICProf) LiveBytes(c Cause) uint64 {
	if v.memFree[c] >= v.memAlloc[c] {
		return 0
	}
	return v.memAlloc[c] - v.memFree[c]
}

// CoreWindow is one per-core utilization window: the fraction of each
// core's capacity consumed by charged work between T0 and T1. Values
// can transiently exceed 1.0 because service time is charged at
// submit while the work drains from the queue later.
type CoreWindow struct {
	T0, T1 sim.Time
	Util   []float64
}

// timelineCap bounds the per-node window ring.
const timelineCap = 512

// NodeProf holds one node's (vSwitch's) attribution state: a slot per
// (vnic, role) and, past maxSlots, an overflow slot per role, carved
// slotSlab at a time when claimed; the per-core busy sampler for
// timelines; and an optional live-bytes walker for tables whose
// residency is cheaper to measure at drain time than to track per
// operation. A node in use must not be copied: its slot list starts
// on an array inside it.
type NodeProf struct {
	Node  string
	Cores int

	// slots lists the claimed slots in claim order, the first slotSlab
	// of them through firstSlots. Claims carve free, the unclaimed
	// tail of the latest slab; a slot never moves, so the datapath may
	// cache its pointer.
	slots      []*VNICProf
	free       []VNICProf
	firstSlots [slotSlab]*VNICProf

	// busyFn samples cumulative per-core busy time (sim-time units);
	// set by the component owning the CPU model.
	busyFn func(out []sim.Time) []sim.Time
	// liveFn walks drain-time live bytes (session/flowcache entries)
	// and emits them per (vnic, role, cause).
	liveFn func(emit func(vnic uint32, role Role, cause Cause, bytes uint64))

	lastT    sim.Time
	lastBusy []sim.Time
	scratch  []sim.Time
	windows  []CoreWindow
	wHead    int // ring start when len(windows) == timelineCap
}

// NewNode builds a node's attribution state, registered with no
// profiler. A vSwitch owns one from construction and charges it
// whether or not a profiler ever exports it.
func NewNode(name string, cores int) *NodeProf {
	return &NodeProf{Node: name, Cores: cores}
}

// Slot returns the accumulator for (vnic, role), claiming a fresh
// slot on first use and the role's overflow slot once maxSlots are
// claimed, so spilled work keeps its role. Called on install paths
// only — datapath code caches the returned pointer.
func (n *NodeProf) Slot(vnic uint32, role Role) *VNICProf {
	if s := n.find(vnic, role); s != nil {
		return s
	}
	if len(n.slots) >= maxSlots {
		if s := n.find(OverflowVNIC, role); s != nil {
			return s
		}
		vnic = OverflowVNIC
	}
	if len(n.free) == 0 {
		n.free = make([]VNICProf, slotSlab)
	}
	s := &n.free[0]
	n.free = n.free[1:]
	s.VNIC, s.Role = vnic, role
	if n.slots == nil {
		n.slots = n.firstSlots[:0]
	}
	n.slots = append(n.slots, s)
	return s
}

// find returns the claimed slot for (vnic, role), or nil.
func (n *NodeProf) find(vnic uint32, role Role) *VNICProf {
	for _, s := range n.slots {
		if s.VNIC == vnic && s.Role == role {
			return s
		}
	}
	return nil
}

// RoleCycles returns the node's cycles charged under role: every
// slot of that role, its overflow slot included.
func (n *NodeProf) RoleCycles(role Role) uint64 {
	var t uint64
	for _, s := range n.slots {
		if s.Role == role {
			t += s.Total()
		}
	}
	return t
}

// Relocatable calls fn once per claimed tenant slot with its
// slow-path and session-install cycles over every direction — the
// work an offload moves. Overflow and control-plane slots are skipped:
// they name no vNIC the controller can relocate.
func (n *NodeProf) Relocatable(fn func(vnic uint32, rule, sess uint64)) {
	for _, s := range n.slots {
		if s.VNIC == OverflowVNIC || s.Role == RoleCtrl {
			continue
		}
		var rule, sess uint64
		for d := range s.cycles {
			rule += s.cycles[d][StageSlowpath]
			sess += s.cycles[d][StageSessionInstall]
		}
		fn(s.VNIC, rule, sess)
	}
}

// SetCoreBusy installs the cumulative per-core busy sampler used to
// derive utilization timelines.
func (n *NodeProf) SetCoreBusy(fn func(out []sim.Time) []sim.Time) { n.busyFn = fn }

// SetLive installs the drain-time live-bytes walker.
func (n *NodeProf) SetLive(fn func(emit func(vnic uint32, role Role, cause Cause, bytes uint64))) {
	n.liveFn = fn
}

// advance closes the utilization window [lastT, now] from the busy
// sampler and appends it to the ring.
func (n *NodeProf) advance(now sim.Time) {
	if n.busyFn == nil || now <= n.lastT {
		return
	}
	n.scratch = n.busyFn(n.scratch[:0])
	if n.lastBusy == nil {
		n.lastBusy = append([]sim.Time(nil), n.scratch...)
		n.lastT = now
		return
	}
	dt := float64(now - n.lastT)
	w := CoreWindow{T0: n.lastT, T1: now, Util: make([]float64, len(n.scratch))}
	for i := range n.scratch {
		prev := sim.Time(0)
		if i < len(n.lastBusy) {
			prev = n.lastBusy[i]
		}
		w.Util[i] = float64(n.scratch[i]-prev) / dt
	}
	n.lastBusy = append(n.lastBusy[:0], n.scratch...)
	n.lastT = now
	if len(n.windows) < timelineCap {
		n.windows = append(n.windows, w)
	} else {
		n.windows[n.wHead] = w
		n.wHead = (n.wHead + 1) % timelineCap
	}
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

// Sample is one drained attribution point. Cycle samples carry
// Cycles>0 with Cause derived from the stage; memory samples carry
// Bytes>0 (live bytes at drain time), Dir=DirNone, and the cause's
// synthetic stage.
type Sample struct {
	Node   string
	VNIC   uint32
	Role   Role
	Dir    Dir
	Stage  Stage
	Cause  Cause
	Cycles uint64
	Bytes  uint64
}

// Profiler is the region-wide attribution store: one NodeProf per
// vSwitch. Node registration happens at wiring time (never on the
// datapath), so the map and mutex here are off the hot path.
type Profiler struct {
	mu    sync.Mutex
	nodes map[string]*NodeProf
	order []*NodeProf
	clock func() sim.Time
}

// New builds an empty profiler.
func New() *Profiler {
	return &Profiler{nodes: make(map[string]*NodeProf)}
}

// SetClock installs the sim clock used to timestamp utilization
// windows when the profiler is drained through the obs registry.
func (p *Profiler) SetClock(fn func() sim.Time) { p.clock = fn }

// Node returns (creating if needed) the per-node accumulator.
func (p *Profiler) Node(name string, cores int) *NodeProf {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.nodes[name]; ok {
		return n
	}
	n := NewNode(name, cores)
	p.add(n)
	return n
}

// Register exports an existing node's accumulators through this
// profiler, replacing any node registered under the same name.
func (p *Profiler) Register(n *NodeProf) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if old, ok := p.nodes[n.Node]; ok {
		p.order[slices.Index(p.order, old)] = n
		p.nodes[n.Node] = n
		return
	}
	p.add(n)
}

func (p *Profiler) add(n *NodeProf) {
	p.nodes[n.Node] = n
	i, _ := slices.BinarySearchFunc(p.order, n.Node, func(m *NodeProf, name string) int { return strings.Compare(m.Node, name) })
	p.order = slices.Insert(p.order, i, n)
}

// Nodes returns the registered nodes sorted by name.
func (p *Profiler) Nodes() []*NodeProf {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*NodeProf(nil), p.order...)
}

// Advance closes the current utilization window on every node.
func (p *Profiler) Advance(now sim.Time) {
	for _, n := range p.Nodes() {
		n.advance(now)
	}
}

// Samples drains the accumulators into a deterministic flat list
// sorted by (node, vnic, role, dir, stage, cause). Memory samples
// report live bytes (alloc − free, plus the drain-time walker's
// session/flowcache residency).
func (p *Profiler) Samples() []Sample {
	var out []Sample
	for _, n := range p.Nodes() {
		emitSlot := func(v *VNICProf) {
			for d := Dir(0); d < NumDirs; d++ {
				for s := Stage(0); s < NumStages; s++ {
					if c := v.cycles[d][s]; c != 0 {
						out = append(out, Sample{
							Node: n.Node, VNIC: v.VNIC, Role: v.Role,
							Dir: d, Stage: s, Cause: stageCause[s], Cycles: c,
						})
					}
				}
			}
			for c := Cause(0); c < NumCauses; c++ {
				if live := v.LiveBytes(c); live != 0 {
					out = append(out, Sample{
						Node: n.Node, VNIC: v.VNIC, Role: v.Role,
						Dir: DirNone, Stage: memStage[c], Cause: c, Bytes: live,
					})
				}
			}
		}
		for _, v := range n.slots {
			emitSlot(v)
		}
		if n.liveFn != nil {
			n.liveFn(func(vnic uint32, role Role, cause Cause, bytes uint64) {
				if bytes == 0 {
					return
				}
				out = append(out, Sample{
					Node: n.Node, VNIC: vnic, Role: role,
					Dir: DirNone, Stage: memStage[cause], Cause: cause, Bytes: bytes,
				})
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.VNIC != b.VNIC {
			return a.VNIC < b.VNIC
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Cause < b.Cause
	})
	return out
}

// Attach registers the profiler's drain into an obs registry: its
// table's Collect (at snapshot time, on the sim goroutine) advances the
// utilization timelines and emits prof_cycles_total,
// prof_mem_live_bytes, and prof_core_util series. No loop events are
// scheduled and no counters outside the registry are touched, so
// chaos digests are unchanged by attaching.
func (p *Profiler) Attach(reg *obs.Registry) { obs.Register(reg, p, nil, &profTable) }

var profTable = obs.Table[Profiler]{
	Series: []obs.Series[Profiler]{
		{Name: "prof_cycles_total", Help: "Attributed CPU cycles by node/vnic/role/dir/stage/cause."},
		{Name: "prof_mem_live_bytes", Help: "Attributed live session memory by node/vnic/role/cause."},
		{Name: "prof_core_util", Help: "Per-core datapath utilization in the last attribution window, 0..1."},
	},
	Collect: (*Profiler).collect,
}

func (p *Profiler) collect(emit obs.Emit) {
	if p.clock != nil {
		p.Advance(p.clock())
	}
	for _, s := range p.Samples() {
		vnic := fmt.Sprintf("%d", s.VNIC)
		if s.VNIC == OverflowVNIC {
			vnic = "overflow"
		}
		if s.Cycles > 0 {
			emit("prof_cycles_total", obs.L(
				"node", s.Node, "vnic", vnic, "role", s.Role.String(),
				"dir", s.Dir.String(), "stage", s.Stage.String(), "cause", s.Cause.String(),
			), obs.KindCounter, float64(s.Cycles))
		} else {
			emit("prof_mem_live_bytes", obs.L(
				"node", s.Node, "vnic", vnic, "role", s.Role.String(),
				"cause", s.Cause.String(),
			), obs.KindGauge, float64(s.Bytes))
		}
	}
	for _, n := range p.Nodes() {
		ws := n.windowsTail()
		if len(ws) == 0 {
			continue
		}
		for core, u := range ws[0].Util {
			emit("prof_core_util", obs.L(
				"node", n.Node, "core", fmt.Sprintf("%d", core),
			), obs.KindGauge, u)
		}
	}
}
