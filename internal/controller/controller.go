// Package controller implements Nezha's control plane (§4): periodic
// utilization monitoring, seamless vNIC offload and fallback through
// the dual-running → final stage workflow, FE selection (same-ToR
// idle vSwitches with similar attributes), remote-pool scale-out and
// scale-in per the Fig 8 thresholds, and failover on FE crashes
// reported by the health monitor.
//
// All mutations travel over the ctrlrpc transport: acked requests on
// the fabric with bounded retries, exponential backoff, and per-vNIC
// config epochs. Offload and scale-out are two-phase — prepare
// (install rule tables on the target FEs, gather acks) then commit
// (flip the BE config and the gateway) — so the gateway never steers
// traffic at an FE that has not acknowledged its tables. A failed
// prepare or commit rolls partially-installed FEs back and leaves the
// vNIC in its previous, safe configuration; an aborted offload is
// retriable after a cooldown, and a pool stuck below MinFEs enters an
// explicit degraded state that a periodic repair loop keeps trying to
// replenish and reconcile.
package controller

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"nezha/internal/ctrlrpc"
	"nezha/internal/fabric"
	"nezha/internal/journal"
	"nezha/internal/metrics"
	"nezha/internal/nic"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

// DefaultRPCAddr is the controller transport's fabric address.
var DefaultRPCAddr = packet.MakeIP(10, 0, 0, 253)

// DefaultGatewayAddr is the gateway agent's fabric address.
var DefaultGatewayAddr = packet.MakeIP(10, 0, 0, 252)

// The control-plane policy: the paper's production values.
const (
	// offloadThreshold triggers remote offloading of local vNICs
	// (70 %, Fig 8).
	offloadThreshold = 0.70
	// scaleThreshold triggers scale-out/in of the FE pool (40 %,
	// Fig 8).
	scaleThreshold = 0.40
	// safeLevel is the utilization offloading aims to get under.
	safeLevel = 0.40
	// idleBar is the maximum utilization for an FE candidate.
	idleBar = 0.30
	// reportInterval is how often vSwitches report utilization.
	reportInterval = 500 * sim.Millisecond
	// configPushMu/Sigma parameterize the lognormal per-FE config push
	// delay (median ~0.58 s); completion times (Table 4) derive from
	// the slowest push plus the learning interval.
	configPushMu    = -0.54
	configPushSigma = 0.40
	// rttAllowance pads the dual-running stage beyond the learning
	// interval before deleting BE tables ("200ms + RTT", §4.2.1).
	rttAllowance = 5 * sim.Millisecond
	// fallbackCheckInterval paces fallback evaluation.
	fallbackCheckInterval = 10 * sim.Second
	// scaleCooldown is the minimum spacing between scale-outs of one
	// vNIC's pool, covering config pushes and the learning interval
	// so a single pressure episode scales once (Fig 11: 4 → 8).
	scaleCooldown = 3 * sim.Second
	// badLinkTTL is how long a BE-FE pair reported unreachable by the
	// mutual ping (§C.1) is kept out of FE selection for that BE —
	// without it, replenishment happily re-picks the partitioned FE.
	badLinkTTL = 60 * sim.Second
	// prepareDeadline bounds the prepare phase: installs not acked by
	// then are treated as failed and the transaction resolves.
	prepareDeadline = 4 * sim.Second
	// offloadRetryCooldown keeps an aborted offload fully local (and
	// rejects retries) for this long.
	offloadRetryCooldown = 5 * sim.Second
	// repairInterval paces the degraded-pool repair / reconciliation
	// loop.
	repairInterval = 2 * sim.Second
)

// Config holds the control-plane settings callers choose, defaulting
// to the paper's production values.
type Config struct {
	// InitialFEs is the starting FE count (4, Appendix B.2).
	InitialFEs int
	// MinFEs is the floor maintained through failover (4, §4.4).
	MinFEs int

	// RPCAddr / GatewayAddr are the fabric addresses of the
	// controller's RPC transport and the gateway's management agent.
	RPCAddr     packet.IPv4
	GatewayAddr packet.IPv4
	// PrepareQuorumFrac is the fraction of prepare targets that must
	// ack for an offload to commit (1.0 = all). Scale-out commits with
	// any non-empty acked subset.
	PrepareQuorumFrac float64
	// ExternalPolicy disables the controller's built-in threshold
	// decision tree (tick-driven offload/scale/fallback): monitoring,
	// failover, and repair keep running, but offload/fallback/scale
	// decisions are expected from an external driver — the
	// internal/policy loop — through the Actuator methods.
	ExternalPolicy bool
	// UnsafeDirectCommit restores the pre-transactional behavior:
	// fire-and-forget installs with the gateway flipped immediately,
	// before any FE has acked its tables. It exists as a negative
	// control so tests can prove the chaos no-blackhole invariant
	// catches exactly this bug.
	UnsafeDirectCommit bool
}

// DefaultConfig returns the production-calibrated policy.
func DefaultConfig() Config {
	cfg := Config{InitialFEs: 4, MinFEs: 4}
	cfg.fill()
	return cfg
}

// fill normalizes zero-valued addresses and the prepare quorum, so
// configs built field-by-field keep working.
func (cfg *Config) fill() {
	if cfg.RPCAddr == 0 {
		cfg.RPCAddr = DefaultRPCAddr
	}
	if cfg.GatewayAddr == 0 {
		cfg.GatewayAddr = DefaultGatewayAddr
	}
	if cfg.PrepareQuorumFrac <= 0 {
		cfg.PrepareQuorumFrac = 1.0
	}
}

// VNICInfo describes a manageable vNIC to the controller.
type VNICInfo struct {
	VNIC uint32
	// Home is the server hosting the vNIC's VM (its BE).
	Home packet.IPv4
	// MakeRules builds a fresh copy of the vNIC's rule tables, used
	// to configure FE instances and fallback.
	MakeRules func() *tables.RuleSet
	// Decap marks stateful decapsulation (§5.2).
	Decap bool
}

type nodeState struct {
	vs    *vswitch.VSwitch
	agent *ctrlrpc.Agent
	meter *nic.UtilMeter

	lastLocal, lastRemote uint64
	cpuUtil               float64
	memUtil               float64
	remoteShare           float64

	fronted map[uint32]bool // vNICs this node serves as FE
	down    bool
	// pendingRemoval tracks FE teardowns this node has not acked yet
	// (vNIC → epoch of the removal). The repair loop retries them so a
	// node that was unreachable during cleanup does not keep tables
	// forever.
	pendingRemoval map[uint32]uint64
}

// txnKind classifies a two-phase transaction.
type txnKind int

const (
	txnOffload txnKind = iota
	txnScaleOut
	txnFallback
)

// String names the kind as its obs spans do.
func (k txnKind) String() string {
	switch k {
	case txnOffload:
		return "offload"
	case txnScaleOut:
		return "scaleout"
	default:
		return "fallback"
	}
}

// txn is one in-flight two-phase mutation of a vNIC's pool. A vNIC
// has at most one transaction at a time.
type txn struct {
	kind    txnKind
	epoch   uint64
	targets []packet.IPv4
	acked   map[packet.IPv4]bool
	failed  map[packet.IPv4]bool
	// committed, once set, is the FE subset the commit phase is
	// installing; a straggler install ack outside it is rolled back.
	committed []packet.IPv4
	resolved  bool
	deadline  sim.EventRef
	t0        sim.Time
}

// settled reports whether every prepare target has acked or failed.
func (tx *txn) settled() bool {
	for _, fa := range tx.targets {
		if !tx.acked[fa] && !tx.failed[fa] {
			return false
		}
	}
	return true
}

type vnicState struct {
	VNICInfo
	offloaded  bool
	inProgress bool
	fes        []packet.IPv4
	// epoch is the vNIC's config-epoch counter: reserved (bumped) when
	// a transaction or config push is created, so later pushes always
	// carry higher epochs and a stale transaction loses its commit.
	epoch      uint64
	txn        *txn
	memTrigger bool     // offload was triggered by memory, not CPU
	lastScale  sim.Time // last scale-out, for the cooldown
	// degraded marks a pool stuck below MinFEs with no candidates; the
	// repair loop keeps trying to replenish it.
	degraded bool
	// dirty marks committed state whose propagation (gateway or BE
	// push) failed; the repair loop re-pushes it at a fresh epoch.
	dirty bool
	// gwPushes counts in-flight gateway config pushes. FE teardowns
	// and repair re-pushes wait for zero: until the gateway acks (or
	// definitively fails) a push, removing an FE's tables could
	// blackhole traffic the gateway still steers there.
	gwPushes int
	// retryAt blocks offload retries until the abort cooldown passes.
	retryAt sim.Time
	// pinned marks an operator-directed pool (§7.2): the controller
	// keeps it alive but does not grow it back to MinFEs — the
	// operator chose exactly those targets.
	pinned bool
	// staleFEs are installs from an aborted offload whose BE outcome
	// is unknown (OffloadStart timed out): they must not be torn down
	// until the BE acks an abort, or a revived BE could transmit at
	// ruleless FEs. Reconciled on NodeUp / repair ticks.
	staleFEs []packet.IPv4
}

// Events counts control-plane actions for the experiments.
type Events struct {
	Offloads  uint64
	Fallbacks uint64
	ScaleOuts uint64
	ScaleIns  uint64
	Failovers uint64
	FEsAdded  uint64
	// Aborts counts transactions (offload, scale-out, fallback) that
	// resolved without committing; Rollbacks counts FE installs torn
	// back down because their transaction aborted or superseded them.
	Aborts    uint64
	Rollbacks uint64
	// DegradedEnters / DegradedExits count pools crossing in and out
	// of the alarmed below-MinFEs state; RepairRuns counts repair-loop
	// replenish attempts.
	DegradedEnters uint64
	DegradedExits  uint64
	RepairRuns     uint64
}

// Controller is the centralized Nezha control plane.
type Controller struct {
	loop *sim.Loop
	fab  *fabric.Fabric
	gw   *fabric.Gateway
	rng  *sim.Rand
	cfg  Config

	rpc     *ctrlrpc.Transport
	gwAgent *ctrlrpc.GatewayAgent

	nodes map[packet.IPv4]*nodeState
	vnics map[uint32]*vnicState
	// badLinks[home][fe] records when the BE at home last reported fe
	// unreachable (§C.1).
	badLinks map[packet.IPv4]map[packet.IPv4]sim.Time
	// failoverAt records when NodeDown last ran for an address. Readers
	// (FailoverTime, the recovery stamps below) may sit outside the sim
	// goroutine — statMu makes those reads race-free.
	statMu     sync.Mutex
	failoverAt map[packet.IPv4]sim.Time

	ticker       *sim.Ticker
	repairTicker *sim.Ticker
	fbTicker     *sim.Ticker
	tickAddrs    []packet.IPv4 // tick's scratch

	// journal, when attached, is the write-ahead log every control
	// plane mutation lands on before its RPCs leave the controller.
	journal *journal.Journal
	// down marks a crashed controller; gen is bumped at every crash so
	// callbacks and scheduled events captured by a dead incarnation
	// no-op instead of mutating the recovered one's state.
	down bool
	gen  uint64
	// bufferedEvents holds monitor declarations (node down/up, bad
	// links) that arrived during an outage; Recover drains them in
	// arrival order once the journal is replayed.
	bufferedEvents []monEvent
	// recoverWait counts outstanding per-vNIC reconciliation chains;
	// recovery is complete when it reaches zero.
	recoverWait int
	// recoveries / recoverStart / recoveredAt (under statMu: the chaos
	// recovery-bound checker reads them off-goroutine) time recoveries.
	recoveries   uint64
	recoverStart sim.Time
	recoveredAt  sim.Time

	// prepareHook observes prepare-phase starts (vNIC, targets) — the
	// chaos engine uses it to kill or partition an FE mid-push.
	prepareHook func(uint32, []packet.IPv4)

	// ob, when set by EnableObs, publishes controller gauges and
	// records transaction spans and lifecycle events.
	ob *obs.Obs

	// OffloadCompletion records, per offload, the time from trigger
	// until all traffic flows through the FEs (Table 4).
	OffloadCompletion *metrics.Histogram
	Stats             Events
}

// New builds a controller. The fabric carries its config RPCs: the
// transport and the gateway's management agent register themselves at
// cfg.RPCAddr and cfg.GatewayAddr.
func New(loop *sim.Loop, fab *fabric.Fabric, gw *fabric.Gateway, cfg Config) *Controller {
	if cfg.InitialFEs == 0 {
		cfg = DefaultConfig()
	}
	cfg.fill()
	c := &Controller{
		loop:              loop,
		fab:               fab,
		gw:                gw,
		rng:               sim.NewRand(int64(loop.Rand().Uint64())),
		cfg:               cfg,
		nodes:             make(map[packet.IPv4]*nodeState),
		vnics:             make(map[uint32]*vnicState),
		badLinks:          make(map[packet.IPv4]map[packet.IPv4]sim.Time),
		failoverAt:        make(map[packet.IPv4]sim.Time),
		OffloadCompletion: metrics.NewHistogram("offload-completion-ms"),
	}
	c.rpc = ctrlrpc.NewTransport(loop, fab, sim.NewRand(int64(loop.Rand().Uint64())), cfg.RPCAddr)
	c.gwAgent = ctrlrpc.NewGatewayAgent(loop, fab, c.rpc, gw, cfg.GatewayAddr)
	return c
}

// RegisterNode adds a vSwitch to the managed fleet and attaches its
// control-RPC agent.
func (c *Controller) RegisterNode(vs *vswitch.VSwitch) {
	c.nodes[vs.Addr()] = &nodeState{
		vs:             vs,
		agent:          ctrlrpc.NewAgent(c.loop, c.fab, c.rpc, vs),
		meter:          nic.NewUtilMeter(vs.CPU()),
		fronted:        make(map[uint32]bool),
		pendingRemoval: make(map[uint32]uint64),
	}
}

// RegisterVNIC makes a vNIC manageable (it must already be installed
// at its home vSwitch and present in the gateway). The vNIC's epoch
// counter picks up from the gateway's installed entry.
func (c *Controller) RegisterVNIC(info VNICInfo) {
	v := &vnicState{VNICInfo: info, epoch: c.gw.Epoch(info.VNIC)}
	c.vnics[info.VNIC] = v
	c.journalPlacement(v)
}

// Start begins the periodic monitoring/decision loop and the
// degraded-pool repair loop.
func (c *Controller) Start() {
	c.ticker = c.loop.Every(reportInterval, c.tick)
	c.repairTicker = c.loop.Every(repairInterval, c.repairTick)
	if !c.cfg.ExternalPolicy {
		c.fbTicker = c.loop.Every(fallbackCheckInterval, c.checkFallbacks)
	}
}

// Stop halts the decision, repair, and fallback loops.
func (c *Controller) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
	if c.repairTicker != nil {
		c.repairTicker.Stop()
	}
	if c.fbTicker != nil {
		c.fbTicker.Stop()
	}
}

// Offloaded reports whether the controller considers vnic offloaded.
func (c *Controller) Offloaded(vnic uint32) bool {
	v, ok := c.vnics[vnic]
	return ok && v.offloaded
}

// FEsOf returns the FE addresses serving an offloaded vNIC.
func (c *Controller) FEsOf(vnic uint32) []packet.IPv4 {
	if v, ok := c.vnics[vnic]; ok {
		return append([]packet.IPv4(nil), v.fes...)
	}
	return nil
}

// Epoch reports a vNIC's current config epoch counter.
func (c *Controller) Epoch(vnic uint32) uint64 {
	if v, ok := c.vnics[vnic]; ok {
		return v.epoch
	}
	return 0
}

// SetPrepareHook installs an observer fired when a prepare phase
// starts, with the vNIC and its target FEs. The chaos engine uses it
// to kill or partition targets mid-push.
func (c *Controller) SetPrepareHook(fn func(vnic uint32, targets []packet.IPv4)) {
	c.prepareHook = fn
}

// RPCAddr returns the controller transport's fabric address.
func (c *Controller) RPCAddr() packet.IPv4 { return c.rpc.Addr() }

// RPCStats returns a copy of the transport's counters.
func (c *Controller) RPCStats() ctrlrpc.Stats { return c.rpc.Stats }

// sortedNodeAddrs returns registered node addresses ascending, so
// decision order never depends on map iteration (the determinism
// contract).
func (c *Controller) sortedNodeAddrs() []packet.IPv4 {
	return c.nodeAddrsInto(make([]packet.IPv4, 0, len(c.nodes)))
}

// nodeAddrsInto is sortedNodeAddrs written over buf's storage.
func (c *Controller) nodeAddrsInto(buf []packet.IPv4) []packet.IPv4 {
	buf = buf[:0]
	for a := range c.nodes {
		buf = append(buf, a)
	}
	slices.Sort(buf)
	return buf
}

// sortedVNICs returns registered vNIC ids ascending.
func (c *Controller) sortedVNICs() []uint32 { return sortedIDs(c.vnics) }

// sortedIDs returns a vNIC-keyed map's keys ascending.
func sortedIDs[T any](m map[uint32]T) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// tick samples every node and applies the Fig 8 decision tree.
func (c *Controller) tick() {
	// The ticker never re-enters tick, so it keeps one scratch slice;
	// the decisions below take their own sorted copies.
	c.tickAddrs = c.nodeAddrsInto(c.tickAddrs)
	addrs := c.tickAddrs
	for _, addr := range addrs {
		n := c.nodes[addr]
		if n.down {
			continue
		}
		n.cpuUtil = n.meter.Sample()
		n.memUtil = n.vs.MemUtilization()
		local, remote := n.vs.CyclesLocal(), n.vs.CyclesRemote()
		dl, dr := local-n.lastLocal, remote-n.lastRemote
		n.lastLocal, n.lastRemote = local, remote
		if dl+dr > 0 {
			n.remoteShare = float64(dr) / float64(dl+dr)
		} else {
			n.remoteShare = 0
		}
	}
	if c.cfg.ExternalPolicy {
		// Meters sampled above stay fresh (FE selection, fallback
		// estimates); the decision tree below belongs to the external
		// policy loop.
		return
	}
	for _, addr := range addrs {
		n := c.nodes[addr]
		if n.down {
			continue
		}
		util := n.cpuUtil
		if n.memUtil > util {
			util = n.memUtil
		}
		if util <= scaleThreshold {
			continue
		}
		if n.remoteShare > 0.5 && len(n.fronted) > 0 {
			// Hot because of hosted-FE work: scale out the pools.
			c.scaleOutFrom(addr, n)
			continue
		}
		// Hot because of local traffic.
		if len(n.fronted) > 0 {
			c.scaleIn(addr, n)
		}
		if util > offloadThreshold {
			c.offloadFrom(addr, n)
		}
	}
}

// --- Offload ---------------------------------------------------------

// ErrNoIdleNodes reports that FE selection found no candidates.
var ErrNoIdleNodes = errors.New("controller: no idle vSwitches available as FEs")

// ErrCoolingDown reports an offload retry inside the abort cooldown.
var ErrCoolingDown = errors.New("controller: offload cooling down after abort")

// ErrBusy reports a mutation attempted while another transaction for
// the same vNIC is in flight.
var ErrBusy = errors.New("controller: vNIC has a transaction in flight")

// offloadFrom offloads vNICs from a hot node, in descending order of
// the triggering resource, until the projection falls to safeLevel.
func (c *Controller) offloadFrom(addr packet.IPv4, n *nodeState) {
	memTriggered := n.memUtil > offloadThreshold && n.memUtil >= n.cpuUtil
	loads := n.vs.VNICLoads()
	if memTriggered {
		sort.Slice(loads, func(i, j int) bool { return loads[i].RuleBytes > loads[j].RuleBytes })
	} else {
		sort.Slice(loads, func(i, j int) bool { return loads[i].Cycles > loads[j].Cycles })
	}
	util := n.cpuUtil
	if memTriggered {
		util = n.memUtil
	}
	totalCycles := uint64(0)
	for _, l := range loads {
		totalCycles += l.Cycles
	}
	for _, l := range loads {
		if util <= safeLevel {
			break
		}
		v, ok := c.vnics[l.VNIC]
		if !ok || v.offloaded || v.inProgress || v.txn != nil || v.Home != addr {
			continue
		}
		if err := c.startOffload(v, nil); err != nil {
			continue
		}
		v.memTrigger = memTriggered
		// Project the relief: CPU relief ∝ the vNIC's cycle share;
		// memory relief ∝ its rule bytes.
		if memTriggered {
			util -= float64(l.RuleBytes) / float64(1<<30)
		} else if totalCycles > 0 {
			util -= n.cpuUtil * float64(l.Cycles) / float64(totalCycles) * 0.85
		}
	}
}

// ForceOffload triggers the offload workflow for one vNIC regardless
// of thresholds (used by experiments and operators).
func (c *Controller) ForceOffload(vnic uint32) error {
	v, ok := c.vnics[vnic]
	if !ok {
		return fmt.Errorf("controller: unknown vNIC %d", vnic)
	}
	if v.offloaded || v.inProgress {
		return nil
	}
	return c.startOffload(v, nil)
}

// OffloadTo offloads a vNIC to an operator-chosen FE set — the §7.2
// capabilities: steering a vNIC onto upgraded vSwitches to use a new
// feature, or onto bug-free (older) vSwitches for cost-effective
// fault recovery, without migrating the VM.
func (c *Controller) OffloadTo(vnic uint32, targets []packet.IPv4) error {
	v, ok := c.vnics[vnic]
	if !ok {
		return fmt.Errorf("controller: unknown vNIC %d", vnic)
	}
	if v.offloaded || v.inProgress || v.txn != nil {
		return fmt.Errorf("controller: vNIC %d already offloaded or in progress", vnic)
	}
	if len(targets) == 0 {
		return fmt.Errorf("controller: empty target set")
	}
	for _, a := range targets {
		n, ok := c.nodes[a]
		if !ok || n.down {
			return fmt.Errorf("controller: target %v unavailable", a)
		}
		if a == v.Home {
			return fmt.Errorf("controller: home cannot front itself")
		}
	}
	return c.startOffload(v, targets)
}

func (c *Controller) pushDelay() sim.Time {
	s := c.rng.LogNormal(configPushMu, configPushSigma)
	return sim.Time(s * float64(sim.Second))
}

// selectFEs picks count idle vSwitches, preferring the BE's ToR and
// low, similar utilization (§4.2.1, Appendix B.1).
func (c *Controller) selectFEs(home packet.IPv4, count int, exclude map[packet.IPv4]bool) []packet.IPv4 {
	homeToR := -1
	if hn, ok := c.nodes[home]; ok {
		homeToR = hn.vs.ToR()
	}
	type cand struct {
		addr  packet.IPv4
		tor   int
		util  float64
		vnics int
	}
	bad := c.badLinks[home]
	var cands []cand
	for addr, n := range c.nodes {
		if addr == home || n.down || exclude[addr] {
			continue
		}
		if when, isBad := bad[addr]; isBad && c.loop.Now()-when < badLinkTTL {
			continue
		}
		util := n.cpuUtil
		if n.memUtil > util {
			util = n.memUtil
		}
		if util > idleBar {
			continue
		}
		cands = append(cands, cand{addr, n.vs.ToR(), util, n.vs.NumVNICs()})
	}
	sort.Slice(cands, func(i, j int) bool {
		si, sj := cands[i].tor == homeToR, cands[j].tor == homeToR
		if si != sj {
			return si // same-ToR first
		}
		// Prefer truly idle machines: fewer resident vNICs means less
		// local traffic to collide with later.
		if cands[i].vnics != cands[j].vnics {
			return cands[i].vnics < cands[j].vnics
		}
		if cands[i].util != cands[j].util {
			return cands[i].util < cands[j].util
		}
		return cands[i].addr < cands[j].addr
	})
	if len(cands) > count {
		cands = cands[:count]
	}
	out := make([]packet.IPv4, len(cands))
	for i, cd := range cands {
		out[i] = cd.addr
	}
	return out
}

// floorOf is the FE count below which a pool is considered short:
// MinFEs normally, 1 for operator-pinned pools (which must stay
// routable but are never grown beyond the operator's choice).
func (c *Controller) floorOf(v *vnicState) int {
	if v.pinned {
		return 1
	}
	return c.cfg.MinFEs
}

// quorum is the number of acked prepare targets an offload needs.
func (c *Controller) quorum(targets int) int {
	q := int(math.Ceil(c.cfg.PrepareQuorumFrac * float64(targets)))
	if q < 1 {
		q = 1
	}
	if q > targets {
		q = targets
	}
	return q
}

// startOffload runs the §4.2.1 workflow as a two-phase transaction:
// prepare installs rule tables on every target over acked RPCs; the
// commit phase flips the BE and then the gateway only once the
// prepare quorum is in. targets, when non-nil, bypasses FE selection
// (operator-directed redirection, §7.2).
func (c *Controller) startOffload(v *vnicState, targets []packet.IPv4) error {
	if v.txn != nil {
		return ErrBusy
	}
	now := c.loop.Now()
	if now < v.retryAt {
		return ErrCoolingDown
	}
	if _, ok := c.nodes[v.Home]; !ok {
		return fmt.Errorf("controller: vNIC %d home %v not registered", v.VNIC, v.Home)
	}
	feAddrs := targets
	if feAddrs == nil {
		feAddrs = c.selectFEs(v.Home, c.cfg.InitialFEs, nil)
	}
	if len(feAddrs) == 0 {
		return ErrNoIdleNodes
	}
	v.inProgress = true
	v.pinned = targets != nil
	c.prepare(v, txnOffload, feAddrs)
	return nil
}

// openTxn reserves a fresh epoch for a transaction on v, journals its
// intent and opens its span — all before any RPC of it leaves.
func (c *Controller) openTxn(v *vnicState, kind txnKind, targets []packet.IPv4) *txn {
	v.epoch++
	tx := &txn{
		kind:    kind,
		epoch:   v.epoch,
		targets: targets,
		acked:   make(map[packet.IPv4]bool),
		failed:  make(map[packet.IPv4]bool),
		t0:      c.loop.Now(),
	}
	v.txn = tx
	c.journalIntent(v, tx)
	c.spanBegin(kind.String(), v.VNIC, tx.epoch)
	return tx
}

// prepare runs the prepare phase of an offload or scale-out: install
// the rule tables on every target over acked RPCs and resolve once all
// targets settle or the deadline fires.
func (c *Controller) prepare(v *vnicState, kind txnKind, targets []packet.IPv4) {
	tx := c.openTxn(v, kind, targets)
	if c.prepareHook != nil {
		c.prepareHook(v.VNIC, targets)
	}
	if kind == txnOffload && c.cfg.UnsafeDirectCommit {
		c.unsafeCommitOffload(v, tx)
		return
	}
	for _, fa := range targets {
		fa := fa
		c.call(fa, c.installReq(v, tx.epoch), func(err error) { c.prepareAck(v, tx, fa, err) })
	}
	tx.deadline = c.schedule(prepareDeadline, func() { c.resolvePrepare(v, tx) })
}

// installReq builds the InstallFE request that gives an FE v's tables.
func (c *Controller) installReq(v *vnicState, epoch uint64) *ctrlrpc.Request {
	return &ctrlrpc.Request{
		Op: ctrlrpc.OpInstallFE, VNIC: v.VNIC, Epoch: epoch,
		Rules: v.MakeRules(), BE: v.Home, Decap: v.Decap,
		ApplyDelay: c.pushDelay(),
	}
}

// prepareAck records one prepare target's outcome and resolves the
// transaction when all targets settled. Acks arriving after
// resolution are stragglers: an install that took hold but is not in
// the committed set is torn back down.
func (c *Controller) prepareAck(v *vnicState, tx *txn, fa packet.IPv4, err error) {
	if tx.resolved {
		if err == nil && !slices.Contains(tx.committed, fa) {
			c.rollbackFE(v, fa, tx.epoch)
		}
		return
	}
	if err != nil {
		tx.failed[fa] = true
	} else {
		tx.acked[fa] = true
	}
	if tx.settled() {
		c.resolvePrepare(v, tx)
	}
}

// failTxnTarget marks a prepare target unreachable (NodeDown /
// LinkDown racing the push): even if its install acked, an offload
// must not commit to an FE already reported dead.
func (c *Controller) failTxnTarget(v *vnicState, fa packet.IPv4) {
	tx := v.txn
	if tx == nil || tx.resolved || !slices.Contains(tx.targets, fa) {
		return
	}
	tx.failed[fa] = true
	if tx.settled() {
		c.resolvePrepare(v, tx)
	}
}

// resolvePrepare closes the prepare phase (all targets settled, or
// the deadline fired) and either commits or aborts.
func (c *Controller) resolvePrepare(v *vnicState, tx *txn) {
	if tx.resolved || v.txn != tx {
		return
	}
	tx.resolved = true
	tx.deadline.Cancel()
	good := make([]packet.IPv4, 0, len(tx.targets))
	for _, fa := range tx.targets {
		if !tx.acked[fa] || tx.failed[fa] {
			continue
		}
		if n, ok := c.nodes[fa]; !ok || n.down {
			continue
		}
		good = append(good, fa)
	}
	switch tx.kind {
	case txnOffload:
		if len(good) < c.quorum(len(tx.targets)) {
			c.abortOffload(v, tx, false)
			return
		}
		c.commitOffload(v, tx, good)
	case txnScaleOut:
		if len(good) == 0 {
			c.abortScaleOut(v, tx)
			return
		}
		c.commitScaleOut(v, tx, good)
	}
}

// abortOffload rolls an uncommitted offload back: targets lose their
// installs, the vNIC stays fully local, and retries are rejected for
// the cooldown. beUnknown marks an abort whose OffloadStart timed out
// — the BE may believe it is offloaded, so the installs are parked in
// staleFEs and only torn down after the BE acks an abort (NodeUp /
// repair reconciliation).
func (c *Controller) abortOffload(v *vnicState, tx *txn, beUnknown bool) {
	c.Stats.Aborts++
	outcome := "aborted"
	if beUnknown {
		outcome = "aborted-be-unknown"
	}
	c.spanEnd("offload", v.VNIC, tx.epoch, outcome)
	c.ob.Event(c.loop.Now(), "txn-abort", v.Home, v.VNIC, "kind=offload epoch=%d be_unknown=%v", tx.epoch, beUnknown)
	v.txn = nil
	v.inProgress = false
	v.retryAt = c.loop.Now() + offloadRetryCooldown
	c.journalResolve(v.VNIC, tx.epoch, false, nil)
	if beUnknown {
		v.staleFEs = append([]packet.IPv4(nil), tx.targets...)
		c.journalPlacement(v)
		c.reconcileStale(v)
		return
	}
	c.journalPlacement(v)
	c.rollbackTargets(v, tx)
}

// rollbackTargets tears down every prepare target of an aborted
// transaction. Targets whose install state is unknown (timeout) are
// included: RemoveFE of an absent instance is a no-op.
func (c *Controller) rollbackTargets(v *vnicState, tx *txn) {
	for _, fa := range tx.targets {
		c.rollbackFE(v, fa, tx.epoch)
	}
}

// rollbackFE removes one FE install of an aborted transaction.
func (c *Controller) rollbackFE(v *vnicState, fa packet.IPv4, epoch uint64) {
	c.Stats.Rollbacks++
	c.ob.Event(c.loop.Now(), "txn-rollback", fa, v.VNIC, "epoch=%d", epoch)
	c.teardown(v, fa, epoch, rollback)
}

// teardownCause is what a caller knows about the gateway when it asks
// for an FE's tables to go; teardown's verdict depends on it.
type teardownCause int

const (
	// gwShrunk: the gateway acked a set without the FE — a confirmed
	// pool shrink, or a fallback's flip home.
	gwShrunk teardownCause = iota
	// gwUnknown: the shrink was never pushed, or its push failed, so
	// the gateway may still steer traffic at the FE.
	gwUnknown
	// rollback: the FE is a prepare target no commit adopted.
	rollback
	// retry: the repair loop re-sends a parked removal.
	retry
)

// teardown is the one owner of FE-table removal: every path that wants
// fa's tables for v gone calls it, and it alone decides whether the
// RemoveFE goes out now, parks in fa's pendingRemoval for the repair
// loop, or is skipped. The rules:
//   - an FE that is a member of v's pool again keeps its tables;
//   - a retry waits, parked, until v's gateway view has converged;
//   - a removal the gateway may still be steering at parks: one whose
//     shrink is unconfirmed, or a rollback while v's gateway view is
//     unconverged (a member dropped a moment ago may still be routed);
//   - anything else is sent at epoch, the epoch of the change that
//     dropped fa, so the FE's epoch fence spares a later re-install.
//
// A sent removal stays parked until fa acks it, so the repair loop
// retries nodes that were unreachable.
func (c *Controller) teardown(v *vnicState, fa packet.IPv4, epoch uint64, cause teardownCause) {
	if slices.Contains(v.fes, fa) || cause == retry && v.unconverged() {
		return
	}
	vnic := v.VNIC
	if n, ok := c.nodes[fa]; ok {
		delete(n.fronted, vnic)
		if n.park(vnic, epoch) {
			c.journalRemoval(fa, vnic, epoch, false)
		}
	}
	if cause == gwUnknown || cause == rollback && (v.dirty || v.gwPushes > 0) {
		return
	}
	c.call(fa, &ctrlrpc.Request{Op: ctrlrpc.OpRemoveFE, VNIC: vnic, Epoch: epoch}, func(err error) {
		if err != nil {
			return // left parked for the repair loop
		}
		if n, ok := c.nodes[fa]; ok && n.pendingRemoval[vnic] <= epoch {
			delete(n.pendingRemoval, vnic)
			c.journalRemoval(fa, vnic, epoch, true)
		}
	})
}

// park records that the node owes a removal of vnic's tables at epoch,
// keeping the highest epoch; it reports whether the record changed.
func (n *nodeState) park(vnic uint32, epoch uint64) bool {
	if old, has := n.pendingRemoval[vnic]; has && old >= epoch {
		return false
	}
	n.pendingRemoval[vnic] = epoch
	return true
}

// unconverged reports whether the gateway may still steer v's traffic
// somewhere its committed pool does not: a push failed (dirty) or is in
// flight, a transaction or workflow is mid-way, or an emptied pool's
// shrink was deliberately never pushed.
func (v *vnicState) unconverged() bool {
	return v.dirty || v.txn != nil || v.inProgress || v.gwPushes > 0 ||
		(v.offloaded && len(v.fes) == 0)
}

// commitOffload runs the commit phase: acked OffloadStart at the BE,
// then the acked gateway flip. Only after both does the controller
// consider the vNIC offloaded.
func (c *Controller) commitOffload(v *vnicState, tx *txn, good []packet.IPv4) {
	tx.committed = good
	c.call(v.Home, &ctrlrpc.Request{
		Op: ctrlrpc.OpOffloadStart, VNIC: v.VNIC, Epoch: tx.epoch, FEs: good,
	}, func(err error) {
		if err != nil {
			// The startOffload leak fix: a BE that rejected (or never
			// answered) OffloadStart must not leave the prepared FEs
			// holding tables and fronted entries forever.
			tx.committed = nil
			c.abortOffload(v, tx, errors.Is(err, ctrlrpc.ErrTimeout))
			return
		}
		c.call(c.gwAgent.Addr(), &ctrlrpc.Request{
			Op: ctrlrpc.OpGatewaySet, VNIC: v.VNIC, Epoch: tx.epoch, FEs: good,
		}, func(gerr error) {
			// The BE is dual-running: both the old route (BE, rules
			// retained) and the new one (prepared FEs) can serve, so
			// whatever the gateway did, adopting the commit is safe.
			// A failed or unknown gateway push just marks the vNIC
			// dirty for re-push at a fresh epoch.
			c.finishOffload(v, tx, good, gerr != nil)
		})
	})
}

// finishOffload installs the committed state controller-side.
func (c *Controller) finishOffload(v *vnicState, tx *txn, good []packet.IPv4, dirty bool) {
	outcome := "committed"
	if dirty {
		outcome = "committed-dirty"
	}
	c.spanEnd("offload", v.VNIC, tx.epoch, outcome)
	c.ob.Event(c.loop.Now(), "txn-commit", v.Home, v.VNIC, "kind=offload epoch=%d fes=%d dirty=%v", tx.epoch, len(good), dirty)
	v.txn = nil
	v.inProgress = false
	v.dirty = dirty
	c.Stats.FEsAdded += uint64(c.adopt(v, txnOffload, tx.epoch, nil, good))
	if len(v.fes) < c.floorOf(v) {
		// A quorum commit short of the floor is degraded from the start.
		c.enterDegraded(v)
	}
	completion := c.loop.Now() + fabric.LearnInterval - tx.t0
	c.OffloadCompletion.Observe(completion.Millis())
	// When dirty the gateway may still route at the home: the BE stays
	// dual-running (tables retained) until the repair loop lands a
	// clean push. Finalizing now could delete rules traffic still uses.
	if !dirty {
		c.finalizeLater(v, tx.epoch)
	}
	c.pruneDown(v)
}

// finalizeLater runs the offload's final stage once the learning
// interval has passed: the BE deletes its tables. A failed push leaves
// the vNIC dual-running — safe, just not reclaiming memory — and a
// later fallback/offload cycle re-resolves it.
func (c *Controller) finalizeLater(v *vnicState, epoch uint64) {
	c.schedule(fabric.LearnInterval+rttAllowance, func() {
		c.call(v.Home, &ctrlrpc.Request{
			Op: ctrlrpc.OpOffloadFinalize, VNIC: v.VNIC, Epoch: epoch,
		}, nil)
	})
}

// adopt commits fes as pool members of v on top of base: their union
// becomes v.fes, and adopt is the one place the pool grows. It
// journals the commit at epoch, marks each adopted FE fronted and
// clears any parked removal on it (its tables serve the vNIC again),
// counts the kind's commit, and takes a pool back at its floor out of
// the degraded state. It returns how many FEs joined.
func (c *Controller) adopt(v *vnicState, kind txnKind, epoch uint64, base, fes []packet.IPv4) int {
	v.offloaded = true
	v.fes = mergeAddrs(base, fes)
	c.journalResolve(v.VNIC, epoch, true, v.fes)
	c.journalPlacement(v)
	for _, fa := range fes {
		if n, ok := c.nodes[fa]; ok {
			n.fronted[v.VNIC] = true
			c.clearRemoval(n, fa, v.VNIC)
		}
	}
	if kind == txnOffload {
		c.Stats.Offloads++
	} else {
		c.Stats.ScaleOuts++
	}
	if len(v.fes) >= c.floorOf(v) {
		c.exitDegraded(v)
	}
	return len(v.fes) - len(base)
}

// unsafeCommitOffload is the negative-control path: fire-and-forget
// installs with the BE and gateway flipped immediately — the gateway
// steers traffic at FEs that have not acked tables yet, which is
// precisely what the chaos no-blackhole invariant fires on.
func (c *Controller) unsafeCommitOffload(v *vnicState, tx *txn) {
	c.spanEnd("offload", v.VNIC, tx.epoch, "unsafe-commit")
	c.ob.Event(c.loop.Now(), "unsafe-commit", v.Home, v.VNIC, "epoch=%d fes=%d", tx.epoch, len(tx.targets))
	for _, fa := range tx.targets {
		c.call(fa, c.installReq(v, tx.epoch), nil)
	}
	c.call(v.Home, &ctrlrpc.Request{
		Op: ctrlrpc.OpOffloadStart, VNIC: v.VNIC, Epoch: tx.epoch, FEs: tx.targets,
	}, nil)
	c.call(c.gwAgent.Addr(), &ctrlrpc.Request{
		Op: ctrlrpc.OpGatewaySet, VNIC: v.VNIC, Epoch: tx.epoch, FEs: tx.targets,
	}, nil)
	tx.resolved = true
	v.txn = nil
	v.inProgress = false
	c.Stats.FEsAdded += uint64(c.adopt(v, txnOffload, tx.epoch, nil, tx.targets))
	c.finalizeLater(v, tx.epoch)
}

// --- Pool maintenance -------------------------------------------------

// pushConfig propagates v's current committed pool to the gateway and
// the BE at a fresh epoch. A failed push marks the vNIC dirty; the
// repair loop re-pushes until both endpoints ack.
func (c *Controller) pushConfig(v *vnicState) {
	c.pushConfigThen(v, nil)
}

// pushConfigThen is pushConfig with a completion hook on the gateway
// leg: then(epoch, gwErr) fires with the push's epoch once the gateway
// push acks or definitively fails. Teardown paths use it to order FE
// removal strictly after the gateway stops steering traffic there.
// In-flight pushes are counted in v.gwPushes so the repair loop does
// not race a pending ack.
func (c *Controller) pushConfigThen(v *vnicState, then func(epoch uint64, gwErr error)) {
	if v.offloaded && len(v.fes) == 0 {
		// An emptied pool has no pushable state: an empty gateway set
		// routes at nothing, and flipping home is unsafe until the BE
		// re-acks its tables. Keep the gateway's last entry (its FEs
		// retain their tables) and stay dirty for the repair loop,
		// which replenishes the pool or runs the acked fallback.
		v.dirty = true
		return
	}
	v.epoch++
	epoch := v.epoch
	v.dirty = false
	c.journalPlacement(v)
	set := []packet.IPv4{v.Home}
	if v.offloaded {
		set = append([]packet.IPv4(nil), v.fes...)
	}
	v.gwPushes++
	c.call(c.gwAgent.Addr(), &ctrlrpc.Request{
		Op: ctrlrpc.OpGatewaySet, VNIC: v.VNIC, Epoch: epoch, FEs: set,
	}, func(err error) {
		v.gwPushes--
		if err != nil && v.epoch == epoch {
			v.dirty = true
		}
		if then != nil {
			then(epoch, err)
		}
	})
	if !v.offloaded {
		return
	}
	if hn, ok := c.nodes[v.Home]; ok && !hn.down {
		c.call(v.Home, &ctrlrpc.Request{
			Op: ctrlrpc.OpSetFEs, VNIC: v.VNIC, Epoch: epoch, FEs: set,
		}, func(err error) {
			if err != nil && v.epoch == epoch {
				v.dirty = true
			}
		})
	}
}

// removeFromPool drops fa from v's pool, pushes the shrunk config,
// and tears the FE instance down — but only once the gateway ack
// confirms traffic is no longer steered at fa (plus the learning
// interval when graceful: stale senders may still steer there). If
// the gateway push fails the removal is parked in pendingRemoval for
// the repair loop rather than risking a blackhole. Reports whether fa
// was a member.
func (c *Controller) removeFromPool(v *vnicState, fa packet.IPv4, graceful bool) bool {
	before := len(v.fes)
	v.fes = slices.DeleteFunc(v.fes, func(a packet.IPv4) bool { return a == fa })
	if len(v.fes) == before {
		return false
	}
	if n, ok := c.nodes[fa]; ok {
		delete(n.fronted, v.VNIC)
	}
	if v.offloaded && len(v.fes) == 0 {
		// The pool just emptied (e.g. its last member crashed with no
		// replacement candidates). Pushing the empty set would leave
		// the gateway routing at nothing, and flipping home is unsafe
		// until the BE re-acks its tables — so do neither: keep the
		// gateway entry as-is (fa retains its tables; the removal is
		// parked, not sent), flag the pool degraded, and let the
		// repair loop either replenish it or run the acked two-step
		// fallback.
		c.enterDegraded(v)
		c.teardown(v, fa, v.epoch, gwUnknown)
		c.journalPlacement(v)
		return true
	}
	// The teardown carries the shrink's own epoch: by its ack the vNIC
	// may have moved on, and even re-adopted fa at a higher epoch.
	c.pushConfigThen(v, func(epoch uint64, gwErr error) {
		switch n, ok := c.nodes[fa]; {
		case gwErr != nil:
			c.teardown(v, fa, epoch, gwUnknown)
		case graceful && !(ok && n.down):
			// A crashed victim skips the grace: RemoveFE cannot apply,
			// and the parked removal is retried on its revival.
			c.schedule(fabric.LearnInterval+rttAllowance, func() {
				c.teardown(v, fa, epoch, gwShrunk)
			})
		default:
			c.teardown(v, fa, epoch, gwShrunk)
		}
	})
	return true
}

// pruneDown sweeps pool members that were declared down while a
// commit was in flight (the monitor's declaration raced the
// transaction) and replenishes toward the floor.
func (c *Controller) pruneDown(v *vnicState) {
	if !v.offloaded {
		return
	}
	for _, fa := range append([]packet.IPv4(nil), v.fes...) {
		if n, ok := c.nodes[fa]; ok && n.down {
			c.removeFromPool(v, fa, false)
		}
	}
	if len(v.fes) < c.floorOf(v) {
		c.scaleOutOpts(v, c.floorOf(v)-len(v.fes), true)
	}
}

// enterDegraded flags a pool stuck below MinFEs.
func (c *Controller) enterDegraded(v *vnicState) {
	if v.degraded {
		return
	}
	v.degraded = true
	c.Stats.DegradedEnters++
	c.ob.Event(c.loop.Now(), "degraded-enter", v.Home, v.VNIC, "fes=%d floor=%d", len(v.fes), c.floorOf(v))
}

func (c *Controller) exitDegraded(v *vnicState) {
	if !v.degraded {
		return
	}
	v.degraded = false
	c.Stats.DegradedExits++
	c.ob.Event(c.loop.Now(), "degraded-exit", v.Home, v.VNIC, "fes=%d", len(v.fes))
}

// reconcileStale retries the abort of an offload whose BE outcome was
// unknown: once the BE acks OffloadAbort (it is definitively local),
// the parked installs are safe to tear down.
func (c *Controller) reconcileStale(v *vnicState) {
	if len(v.staleFEs) == 0 {
		return
	}
	hn, ok := c.nodes[v.Home]
	if !ok || hn.down {
		return // retried on NodeUp / next repair tick
	}
	epoch := v.epoch
	stale := append([]packet.IPv4(nil), v.staleFEs...)
	c.call(v.Home, &ctrlrpc.Request{
		Op: ctrlrpc.OpOffloadAbort, VNIC: v.VNIC, Epoch: epoch,
	}, func(err error) {
		if err != nil {
			return
		}
		if v.offloaded || v.txn != nil {
			// A newer offload won the race; its commit owns the pool
			// and the stale set was absorbed or re-installed at a
			// higher epoch (which rollback at `epoch` cannot touch).
			v.staleFEs = nil
			c.journalPlacement(v)
			return
		}
		for _, fa := range stale {
			c.rollbackFE(v, fa, epoch)
		}
		v.staleFEs = nil
		c.journalPlacement(v)
	})
}

// repairTick is the periodic reconciliation loop: re-push dirty
// config, replenish degraded pools, finish deferred fallback
// cleanups, resolve unknown-BE aborts, and retry pending FE removals.
func (c *Controller) repairTick() {
	for _, vnic := range c.sortedVNICs() {
		v := c.vnics[vnic]
		if v.txn != nil {
			continue
		}
		if len(v.staleFEs) > 0 {
			c.reconcileStale(v)
		}
		if v.inProgress || v.gwPushes > 0 {
			// A gateway push is still in flight (the RPC retry window
			// can outlast a repair period); repairing on top of it
			// would race the pending ack's dirty verdict.
			continue
		}
		switch {
		case v.offloaded && len(v.fes) == 0:
			// Emptied pool: the gateway still routes at the last (dead
			// or unreachable) member, whose tables are retained. First
			// choice is replenishing; failing that, the acked two-step
			// fallback returns the vNIC home safely.
			c.enterDegraded(v)
			c.Stats.RepairRuns++
			if !c.scaleOutOpts(v, c.floorOf(v), true) {
				c.startFallback(v)
			}
		case v.dirty:
			c.Stats.RepairRuns++
			c.pushConfig(v)
		case v.offloaded && len(v.fes) < c.floorOf(v):
			c.enterDegraded(v)
			c.Stats.RepairRuns++
			c.scaleOutOpts(v, c.floorOf(v)-len(v.fes), true)
		case v.offloaded && len(v.fes) >= c.floorOf(v):
			c.exitDegraded(v)
		case !v.offloaded && len(v.fes) > 0:
			// Fallback committed but its FE cleanup was deferred
			// (gateway push had failed): the gateway now points home,
			// so tear the old FEs down after the learning interval.
			c.exitDegraded(v)
			c.retireFEs(v)
		case !v.offloaded:
			c.exitDegraded(v)
		}
	}
	for _, addr := range c.sortedNodeAddrs() {
		n := c.nodes[addr]
		if n.down {
			continue
		}
		c.retryPendingRemovals(addr, n)
	}
}

// retryPendingRemovals re-sends parked FE teardowns on a reachable
// node — but only for vNICs whose gateway view has converged. A
// removal parks when its gateway shrink failed; until a clean push
// lands, the gateway may still steer traffic at the FE, and tearing
// its tables down would blackhole that traffic.
func (c *Controller) retryPendingRemovals(addr packet.IPv4, n *nodeState) {
	for _, id := range sortedIDs(n.pendingRemoval) {
		if v, ok := c.vnics[id]; ok {
			c.teardown(v, addr, n.pendingRemoval[id], retry)
		}
	}
}

// --- Scale-out / scale-in ---------------------------------------------

// scaleOutFrom relieves an FE-hosting node by doubling the FE pools
// of the vNICs it fronts (Fig 11 scales 4 → 8).
func (c *Controller) scaleOutFrom(addr packet.IPv4, n *nodeState) {
	for _, vnic := range sortedIDs(n.fronted) {
		v, ok := c.vnics[vnic]
		if !ok || !v.offloaded {
			continue
		}
		c.scaleOut(v, len(v.fes))
	}
}

// scaleOut adds count FEs to a vNIC's pool (§4.3). A cooldown keeps
// one pressure episode from scaling the same pool repeatedly while
// the configuration is still propagating.
func (c *Controller) scaleOut(v *vnicState, count int) {
	c.scaleOutOpts(v, count, false)
}

// scaleOutOpts runs the scale-out two-phase transaction. The repair
// loop and failover replenishment bypass the cooldown. Reports
// whether a transaction was started.
func (c *Controller) scaleOutOpts(v *vnicState, count int, bypassCooldown bool) bool {
	if count < 1 {
		count = 1
	}
	if !v.offloaded || v.txn != nil || v.inProgress {
		return false
	}
	now := c.loop.Now()
	if !bypassCooldown && v.lastScale > 0 && now-v.lastScale < scaleCooldown {
		return false
	}
	exclude := map[packet.IPv4]bool{}
	for _, fa := range v.fes {
		exclude[fa] = true
	}
	newFEs := c.selectFEs(v.Home, count, exclude)
	if len(newFEs) == 0 {
		// No candidates: a pool below the floor is now formally
		// degraded (alarmed, repaired periodically) instead of
		// silently staying short.
		if len(v.fes) < c.floorOf(v) {
			c.enterDegraded(v)
		}
		return false
	}
	v.lastScale = now
	c.prepare(v, txnScaleOut, newFEs)
	return true
}

// abortScaleOut rolls an uncommitted scale-out back; the pool keeps
// its previous membership.
func (c *Controller) abortScaleOut(v *vnicState, tx *txn) {
	c.Stats.Aborts++
	c.spanEnd("scaleout", v.VNIC, tx.epoch, "aborted")
	c.ob.Event(c.loop.Now(), "txn-abort", v.Home, v.VNIC, "kind=scaleout epoch=%d", tx.epoch)
	v.txn = nil
	c.journalResolve(v.VNIC, tx.epoch, false, nil)
	c.rollbackTargets(v, tx)
	if v.offloaded && len(v.fes) < c.floorOf(v) {
		c.enterDegraded(v)
	}
}

// commitScaleOut merges the acked targets into the pool and pushes
// the grown set to the BE and the gateway. Commit-phase failures
// adopt the grown set anyway — every member holds acked rules, so the
// superset is safe — and mark the vNIC dirty for re-push.
func (c *Controller) commitScaleOut(v *vnicState, tx *txn, good []packet.IPv4) {
	newSet := mergeAddrs(v.fes, good)
	if len(newSet) == len(v.fes) {
		c.spanEnd("scaleout", v.VNIC, tx.epoch, "noop")
		v.txn = nil
		c.journalResolve(v.VNIC, tx.epoch, true, v.fes)
		return
	}
	tx.committed = good
	finish := func(dirty bool) {
		v.txn = nil
		// Adopt onto the pool as it is now, not the snapshot pushed
		// below: an FE removed while the commit RPCs were in flight
		// stays out. Its shrink pushed a newer set that lacks the new
		// members, so the endpoints need a re-push.
		dirty = dirty || v.epoch != tx.epoch
		if dirty {
			v.dirty = true
		}
		added := c.adopt(v, txnScaleOut, tx.epoch, v.fes, good)
		c.Stats.FEsAdded += uint64(added)
		outcome := "committed"
		if dirty {
			outcome = "committed-dirty"
		}
		c.spanEnd("scaleout", v.VNIC, tx.epoch, outcome)
		c.ob.Event(c.loop.Now(), "txn-commit", v.Home, v.VNIC, "kind=scaleout epoch=%d added=%d dirty=%v", tx.epoch, added, dirty)
		c.pruneDown(v)
	}
	c.call(v.Home, &ctrlrpc.Request{
		Op: ctrlrpc.OpSetFEs, VNIC: v.VNIC, Epoch: tx.epoch, FEs: newSet,
	}, func(err error) {
		if err != nil {
			finish(true)
			return
		}
		c.call(c.gwAgent.Addr(), &ctrlrpc.Request{
			Op: ctrlrpc.OpGatewaySet, VNIC: v.VNIC, Epoch: tx.epoch, FEs: newSet,
		}, func(gerr error) { finish(gerr != nil) })
	})
}

// scaleIn removes every FE hosted on a node that now needs its
// resources for local traffic (§4.3). The FE's rule tables are
// retained for the learning interval + RTT before deletion.
func (c *Controller) scaleIn(addr packet.IPv4, n *nodeState) {
	if len(n.fronted) == 0 {
		return
	}
	c.Stats.ScaleIns++
	c.evictFEHost(addr, n, false)
}

// evictFEHost removes a node from every FE pool it participates in.
// immediate skips the grace period (failover).
func (c *Controller) evictFEHost(addr packet.IPv4, n *nodeState, immediate bool) {
	for _, vnic := range sortedIDs(n.fronted) {
		v, ok := c.vnics[vnic]
		if !ok {
			delete(n.fronted, vnic)
			continue
		}
		c.removeFromPool(v, addr, !immediate)
		// Below the floor: add a replacement (§4.4); no candidates
		// flags the pool degraded for the repair loop.
		if v.offloaded && len(v.fes) < c.floorOf(v) {
			c.scaleOutOpts(v, c.floorOf(v)-len(v.fes), true)
		}
	}
}

// --- Failover ---------------------------------------------------------

// NodeDown is invoked by the health monitor when an FE host stops
// answering probes (§4.4). In-flight transactions targeting the node
// are failed so they never commit to it.
func (c *Controller) NodeDown(addr packet.IPv4) {
	if c.down {
		c.bufferedEvents = append(c.bufferedEvents, monEvent{kind: evNodeDown, a: addr})
		return
	}
	n, ok := c.nodes[addr]
	if !ok || n.down {
		return
	}
	n.down = true
	c.journalNode(addr, true)
	c.Stats.Failovers++
	c.statMu.Lock()
	c.failoverAt[addr] = c.loop.Now()
	c.statMu.Unlock()
	c.ob.Event(c.loop.Now(), "node-down", addr, 0, "fronted=%d", len(n.fronted))
	c.evictFEHost(addr, n, true)
	for _, vnic := range c.sortedVNICs() {
		c.failTxnTarget(c.vnics[vnic], addr)
	}
}

// FailoverTime reports when the controller last processed a crash
// declaration for addr (the rebalance away from it starts then). ok
// is false if addr never failed over.
func (c *Controller) FailoverTime(addr packet.IPv4) (sim.Time, bool) {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	t, ok := c.failoverAt[addr]
	return t, ok
}

// LinkDown handles a BE-reported FE connectivity failure (§C.1):
// the FE itself may be healthy (the central monitor still sees it),
// but this BE cannot reach it, so it is removed from the pools of
// vNICs homed at `home` only, with replenishment to the floor. An
// in-flight prepare targeting the FE fails that target, so the
// transaction cannot commit to an FE its BE already cannot reach.
func (c *Controller) LinkDown(home, fe packet.IPv4) {
	if c.down {
		c.bufferedEvents = append(c.bufferedEvents, monEvent{kind: evLinkDown, a: home, b: fe})
		return
	}
	if c.badLinks[home] == nil {
		c.badLinks[home] = make(map[packet.IPv4]sim.Time)
	}
	c.badLinks[home][fe] = c.loop.Now()
	c.ob.Event(c.loop.Now(), "link-down", fe, 0, "home=%v", home)
	for _, vnic := range c.sortedVNICs() {
		v := c.vnics[vnic]
		if v.Home != home {
			continue
		}
		c.failTxnTarget(v, fe)
		if !v.offloaded {
			continue
		}
		// Graceful: the FE is alive (only this BE's link to it is bad),
		// and other senders may still be steered there until the
		// gateway shrink propagates — tear down after LearnInterval.
		if !c.removeFromPool(v, fe, true) {
			continue
		}
		if len(v.fes) < c.floorOf(v) {
			c.scaleOutOpts(v, c.floorOf(v)-len(v.fes), false)
		}
	}
}

// NodeUp marks a node healthy again (after repair) and reconciles:
// pools homed there re-push their config, unknown-BE aborts resolve,
// and pending FE removals on the node are retried.
func (c *Controller) NodeUp(addr packet.IPv4) {
	if c.down {
		c.bufferedEvents = append(c.bufferedEvents, monEvent{kind: evNodeUp, a: addr})
		return
	}
	n, ok := c.nodes[addr]
	if !ok {
		return
	}
	n.down = false
	c.journalNode(addr, false)
	c.ob.Event(c.loop.Now(), "node-up", addr, 0, "")
	for _, vnic := range c.sortedVNICs() {
		v := c.vnics[vnic]
		if v.Home != addr {
			continue
		}
		if len(v.staleFEs) > 0 && v.txn == nil {
			c.reconcileStale(v)
		}
		if v.offloaded && v.txn == nil && !v.inProgress {
			// The revived BE may hold arbitrarily stale FE config;
			// re-push the committed state at a fresh epoch.
			c.pushConfig(v)
		}
	}
	c.retryPendingRemovals(addr, n)
}

// --- Fallback ----------------------------------------------------------

// checkFallbacks returns offloaded vNICs to local processing when the
// home vSwitch could absorb them below the safe level (§4.2.2).
func (c *Controller) checkFallbacks() {
	for _, vnic := range c.sortedVNICs() {
		v := c.vnics[vnic]
		if !v.offloaded || v.inProgress || v.txn != nil {
			continue
		}
		hn, ok := c.nodes[v.Home]
		if !ok || hn.down {
			continue
		}
		// Estimate what the vNIC consumes remotely.
		extra := 0.0
		for _, fa := range v.fes {
			fn, ok := c.nodes[fa]
			if !ok || len(fn.fronted) == 0 {
				continue
			}
			extra += fn.cpuUtil * fn.remoteShare / float64(len(fn.fronted))
		}
		if hn.cpuUtil+extra < safeLevel && hn.memUtil < safeLevel {
			c.startFallback(v)
		}
	}
}

// ForceFallback triggers fallback for one vNIC regardless of load.
func (c *Controller) ForceFallback(vnic uint32) error {
	v, ok := c.vnics[vnic]
	if !ok {
		return fmt.Errorf("controller: unknown vNIC %d", vnic)
	}
	if !v.offloaded || v.inProgress || v.txn != nil {
		return nil
	}
	c.startFallback(v)
	return nil
}

// startFallback runs the reverse two-stage workflow (§4.2.2) as a
// transaction: an acked FallbackStart reinstalls the rule tables at
// the BE, then the gateway flips home. A failed BE push aborts with
// the FE pool untouched (the vNIC simply stays offloaded, retriable);
// a failed gateway push commits dirty — the BE serves locally while
// the FEs keep their tables, and the repair loop re-pushes the
// gateway before the old FEs are torn down.
func (c *Controller) startFallback(v *vnicState) {
	if _, ok := c.nodes[v.Home]; !ok {
		return
	}
	if v.txn != nil || v.inProgress {
		return
	}
	v.inProgress = true
	tx := c.openTxn(v, txnFallback, nil)
	c.call(v.Home, &ctrlrpc.Request{
		Op: ctrlrpc.OpFallbackStart, VNIC: v.VNIC, Epoch: tx.epoch,
		Rules: v.MakeRules(), ApplyDelay: c.pushDelay(),
	}, func(err error) {
		if err != nil {
			// Satellite fix: a BE that cannot take its tables back
			// (e.g. memory pressure) aborts the fallback cleanly; the
			// FE pool still serves and the periodic check retries.
			v.txn = nil
			v.inProgress = false
			c.Stats.Aborts++
			c.journalResolve(v.VNIC, tx.epoch, false, nil)
			c.spanEnd("fallback", v.VNIC, tx.epoch, "aborted")
			c.ob.Event(c.loop.Now(), "txn-abort", v.Home, v.VNIC, "kind=fallback epoch=%d", tx.epoch)
			return
		}
		c.call(c.gwAgent.Addr(), &ctrlrpc.Request{
			Op: ctrlrpc.OpGatewaySet, VNIC: v.VNIC, Epoch: tx.epoch, FEs: []packet.IPv4{v.Home},
		}, func(gerr error) {
			v.txn = nil
			outcome := "committed"
			if gerr != nil {
				outcome = "committed-dirty"
			}
			c.spanEnd("fallback", v.VNIC, tx.epoch, outcome)
			c.ob.Event(c.loop.Now(), "txn-commit", v.Home, v.VNIC, "kind=fallback epoch=%d dirty=%v", tx.epoch, gerr != nil)
			if !c.commitFallback(v, tx.epoch, gerr != nil) {
				v.inProgress = false
			}
		})
	})
}

// commitFallback records a committed fallback: the vNIC is local
// again. dirty — the gateway's flip home unconfirmed — keeps the FEs
// alive until the repair loop lands a fresh push and cleans up;
// otherwise the old FEs are retired now, and commitFallback reports
// true: their deferred teardown owns the vNIC until it runs.
func (c *Controller) commitFallback(v *vnicState, epoch uint64, dirty bool) bool {
	v.offloaded = false
	c.Stats.Fallbacks++
	c.journalResolve(v.VNIC, epoch, true, nil)
	if dirty {
		v.dirty = true
		c.journalPlacement(v)
		return false
	}
	c.retireFEs(v)
	return true
}

// retireFEs empties a fallen-back vNIC's FE list and tears the old FEs
// down after the learning interval (stale senders may steer at them
// until then); v stays inProgress until the teardown runs.
func (c *Controller) retireFEs(v *vnicState) {
	v.inProgress = true
	fes := v.fes
	v.fes = nil
	c.journalPlacement(v)
	c.schedule(fabric.LearnInterval+rttAllowance, func() {
		c.teardownFallbackFEs(v, fes)
		v.inProgress = false
	})
}

// teardownFallbackFEs finishes a fallback: the BE releases its FE
// config and BE data, and the old FE instances are removed.
func (c *Controller) teardownFallbackFEs(v *vnicState, fes []packet.IPv4) {
	if hn, ok := c.nodes[v.Home]; ok && !hn.down {
		c.call(v.Home, &ctrlrpc.Request{
			Op: ctrlrpc.OpFallbackFinalize, VNIC: v.VNIC, Epoch: v.epoch,
		}, nil)
	}
	for _, fa := range fes {
		c.teardown(v, fa, v.epoch, gwShrunk)
	}
}
