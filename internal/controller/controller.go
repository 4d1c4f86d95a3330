// Package controller implements Nezha's control plane (§4): periodic
// utilization monitoring, seamless vNIC offload and fallback through
// the dual-running → final stage workflow, FE selection (same-ToR
// idle vSwitches with similar attributes), remote-pool scale-out and
// scale-in per the Fig 8 thresholds, and failover on FE crashes
// reported by the health monitor.
//
// The controller is one transition function and a thin driver. step
// (step.go) takes one event — a tick's samples, an RPC ack or query
// reply, a timer, a monitor declaration, an operator or policy
// request, a journal record at recovery — changes only the
// controller's own state, and returns the ordered effects: RPCs over
// ctrlrpc, journal records, timers, obs events. The driver (driver.go)
// is the only code that talks to the world. Offload, scale-out and
// fallback are transactions with one commit and one abort path: the
// gateway never steers traffic at an FE that has not acked its tables
// (DESIGN §8), and crash recovery is replay into step (§13).
package controller

import (
	"errors"
	"sync"

	"nezha/internal/ctrlrpc"
	"nezha/internal/fabric"
	"nezha/internal/journal"
	"nezha/internal/nic"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/policy"
	"nezha/internal/sim"
	"nezha/internal/slo"
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

// facts is everything step may read of a vSwitch. *vswitch.VSwitch
// implements it; a step test supplies its own.
type facts interface {
	ToR() int
	NumVNICs() int
	VNICLoads() []vswitch.VNICLoad
	Relocatable(fn func(vnic uint32, rule, sess uint64))
}

type nodeState struct {
	view facts

	lastLocal, lastRemote uint64
	cpuUtil               float64
	memUtil               float64
	remoteShare           float64

	// fronted holds the vNICs this node serves as FE; front makes it.
	fronted map[uint32]bool
	down    bool
	// pendingRemoval tracks FE teardowns this node has not acked yet
	// (vNIC → epoch of the removal); park makes it. The repair loop
	// retries them so a node that was unreachable during cleanup does
	// not keep tables forever.
	pendingRemoval map[uint32]uint64
}

// front records that the node serves vnic as an FE.
func (n *nodeState) front(vnic uint32) {
	if n.fronted == nil {
		n.fronted = make(map[uint32]bool)
	}
	n.fronted[vnic] = true
}

// txnKind classifies a two-phase transaction.
type txnKind int

const (
	txnOffload txnKind = iota
	txnScaleOut
	txnFallback
)

// String names the kind as its obs spans do.
func (k txnKind) String() string { return [...]string{"offload", "scaleout", "fallback"}[k] }

// txn is one in-flight two-phase mutation of a vNIC's pool. A vNIC
// has at most one transaction at a time.
type txn struct {
	kind    txnKind
	epoch   uint64
	targets []packet.IPv4
	pinned  bool
	acked   map[packet.IPv4]bool
	failed  map[packet.IPv4]bool
	// resolved closes the prepare phase: later install acks are
	// stragglers. committed is the FE subset the commit adopts, and set
	// the FE list its BE and gateway legs push.
	resolved       bool
	committed, set []packet.IPv4
	t0             sim.Time
	// recovered marks an intent replayed from the journal: its prepare
	// outcome died with the old incarnation (recover.go).
	recovered bool
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
	epoch uint64
	txn   *txn
	// recovered is an intent replayed from the journal, kept beside txn
	// until a known gateway answer closes it through commit or abort:
	// the declarations queued during the outage are delivered before
	// that answer and may open a transaction of their own.
	recovered *txn
	lastScale sim.Time // last scale-out, for the cooldown
	// degraded marks a pool stuck below its floor with no candidates;
	// the repair loop keeps trying to replenish it.
	degraded bool
	// dirty marks committed state whose gateway or BE push failed; the
	// repair loop re-pushes it at a fresh epoch.
	dirty bool
	// gwPushes counts in-flight gateway pushes: until the gateway acks
	// or fails one, it may still steer traffic at a dropped FE.
	gwPushes int
	// retryAt blocks offload retries until the abort cooldown passes.
	retryAt sim.Time
	// pinned marks an operator-directed pool (§7.2): kept alive, never
	// grown back to MinFEs.
	pinned bool
	// staleFEs are installs from aborted offloads whose BE outcome is
	// unknown: they go only after the BE acks an abort, or a revived BE
	// could transmit at ruleless FEs.
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

// port is the driver's handle on one registered vSwitch.
type port struct {
	vs    *vswitch.VSwitch
	agent *ctrlrpc.Agent
	meter *nic.UtilMeter
}

// Controller is the centralized Nezha control plane.
type Controller struct {
	// --- state: step reads and writes only these ---
	cfg   Config
	rng   *sim.Rand
	now   sim.Time // the current event's time
	nodes map[packet.IPv4]*nodeState
	vnics map[uint32]*vnicState
	// badLinks[home][fe] records when the BE at home last reported fe
	// unreachable (§C.1).
	badLinks    map[packet.IPv4]map[packet.IPv4]sim.Time
	wal         bool           // a journal is attached: emit records
	policy      *policy.Engine // when set, decides on each tick in place of the Fig 8 tree
	recoverWait int            // vNICs still reconciling after a recovery
	fx          []effect       // the current step's effects

	// failoverAt records when NodeDown last ran for an address; it and
	// the recovery stamps are read off the sim goroutine, so statMu
	// guards them.
	statMu                    sync.Mutex
	failoverAt                map[packet.IPv4]sim.Time
	recoveries                uint64
	recoverStart, recoveredAt sim.Time

	// OffloadCompletion records, per offload, the time from trigger
	// until all traffic flows through the FEs (Table 4).
	OffloadCompletion slo.Samples
	Stats             Events

	// --- driver: the only fields that reach the world ---
	loop    *sim.Loop
	fab     *fabric.Fabric
	gw      *fabric.Gateway
	rpc     *ctrlrpc.Transport
	gwAgent *ctrlrpc.GatewayAgent
	journal *journal.Journal
	ob      *obs.Obs
	ports   map[packet.IPv4]port
	// prepareHook observes prepare-phase starts (vNIC, targets) — the
	// chaos engine uses it to kill or partition an FE mid-push.
	prepareHook func(uint32, []packet.IPv4)
	// tickHook observes each tick once its effects are carried out.
	tickHook                     func()
	ticker, repairTicker, fbTick *sim.Ticker
	// deadlines holds each vNIC's armed prepare-deadline timer.
	deadlines map[uint32]sim.EventRef
	// down marks a crashed controller; gen is bumped at every crash so
	// acks and timers issued by a dead incarnation are dropped.
	down bool
	gen  uint64
	// queued holds monitor declarations that arrived during an outage;
	// Recover delivers them in arrival order after the replay.
	queued  []event
	addrs   []packet.IPv4 // sampling scratch
	samples []sample
}

// newState builds the controller's state with no driver: what New
// wraps, and what a step test drives directly.
func newState(cfg Config, seed int64) *Controller {
	if cfg.InitialFEs == 0 {
		cfg = DefaultConfig()
	}
	cfg.fill()
	return &Controller{
		cfg:        cfg,
		rng:        sim.NewRand(seed),
		nodes:      make(map[packet.IPv4]*nodeState),
		vnics:      make(map[uint32]*vnicState),
		badLinks:   make(map[packet.IPv4]map[packet.IPv4]sim.Time),
		failoverAt: make(map[packet.IPv4]sim.Time),
		fx:         make([]effect, 0, 16),
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

// FailoverTime reports when the controller last processed a crash
// declaration for addr (the rebalance away from it starts then). ok
// is false if addr never failed over.
func (c *Controller) FailoverTime(addr packet.IPv4) (sim.Time, bool) {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	t, ok := c.failoverAt[addr]
	return t, ok
}

// ErrNoIdleNodes reports that FE selection found no candidates.
var ErrNoIdleNodes = errors.New("controller: no idle vSwitches available as FEs")

// ErrCoolingDown reports an offload retry inside the abort cooldown.
var ErrCoolingDown = errors.New("controller: offload cooling down after abort")

// ErrBusy reports a mutation attempted while another transaction for
// the same vNIC is in flight.
var ErrBusy = errors.New("controller: vNIC has a transaction in flight")

// ErrNotOffloaded reports a pool resize on a vNIC with no pool.
var ErrNotOffloaded = errors.New("controller: vNIC is not offloaded")

// errDown refuses requests while the controller process is dead.
var errDown = errors.New("controller: down")

// NodeDown is invoked by the health monitor when an FE host stops
// answering probes (§4.4).
func (c *Controller) NodeDown(addr packet.IPv4) { c.deliver(event{kind: evNodeDown, a: addr}) }

// NodeUp marks a node healthy again (after repair) and reconciles it.
func (c *Controller) NodeUp(addr packet.IPv4) { c.deliver(event{kind: evNodeUp, a: addr}) }

// LinkDown handles a BE-reported FE connectivity failure (§C.1).
func (c *Controller) LinkDown(home, fe packet.IPv4) {
	c.deliver(event{kind: evLinkDown, a: home, b: fe})
}

// ForceOffload triggers the offload workflow for one vNIC regardless
// of thresholds (used by experiments and operators).
func (c *Controller) ForceOffload(vnic uint32) error {
	return c.deliver(event{kind: evForceOffload, vnic: vnic})
}

// OffloadTo offloads a vNIC to an operator-chosen FE set — the §7.2
// capabilities: steering a vNIC onto upgraded vSwitches to use a new
// feature, or onto bug-free (older) vSwitches for cost-effective
// fault recovery, without migrating the VM.
func (c *Controller) OffloadTo(vnic uint32, targets []packet.IPv4) error {
	return c.deliver(event{kind: evOffloadTo, vnic: vnic, addrs: targets})
}
