// Package vswitch implements the SmartNIC-accelerated virtual switch
// (Fig 1): a slow path walking per-vNIC rule tables to produce
// pre-actions, a fast path doing exact-match session-table lookups,
// and the stateful final-action computation
// Action = process_pkt(pre-actions, states).
//
// A single VSwitch can play all three Nezha roles simultaneously:
//
//   - monolithic local vSwitch for its resident vNICs,
//   - vNIC backend (BE) for resident vNICs that have been offloaded —
//     it keeps only states locally and relays TX packets (carrying
//     encoded state) to frontends,
//   - vNIC frontend (FE) for remote vNICs whose stateless rule tables
//     and cached flows the controller has installed here.
//
// Resource semantics: every packet charges CPU cycles on the NIC's
// queueing model (overload drops and queueing latency emerge here),
// rule tables charge the shared memory budget, and the session table
// gets whatever rule tables do not use — so offloading a vNIC's rule
// tables to remote FEs directly grows local state capacity, the
// paper's #concurrent-flows gain.
//
// Modeling note: table lookups and state mutations happen at packet
// arrival; the CPU model then delays (or drops) the packet's egress
// side effects. A packet dropped at admission may therefore have
// touched state, matching a NIC that parses before its queues
// overflow.
package vswitch

import (
	"errors"
	"fmt"

	"nezha/internal/dense"
	"nezha/internal/fabric"
	"nezha/internal/flowcache"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slab"
	"nezha/internal/slo"
	"nezha/internal/tables"
)

// ProbePort is the UDP destination port health probes use; flow-direct
// rules steer these straight to the vSwitch (§4.4).
const ProbePort = 9999

// CtrlPort is the UDP destination port control-plane RPCs use. Like
// probes, a flow-direct rule steers these straight to the vSwitch's
// management agent — but they still ride the fabric, so partitions,
// loss, and jitter apply to config pushes exactly as to data traffic.
const CtrlPort = 9998

// BEDataBytes is the local memory an offloaded vNIC still needs at the
// BE: FE locations and essential metadata ("2KB memory to store BE
// data", §6.2.1).
const BEDataBytes = 2048

// DropReason classifies packet drops.
type DropReason int

// Drop reasons.
const (
	DropOverload  DropReason = iota // CPU queueing bound exceeded
	DropACL                         // final action denied
	DropNoMemory                    // session table budget exhausted
	DropNoRoute                     // destination unresolvable
	DropNoRules                     // vNIC has no rules here (post-offload stale sender)
	DropCrashed                     // vSwitch software crashed
	DropMalformed                   // undecodable Nezha metadata
	DropRateLimit                   // VM-level rate limit exceeded
	numDropReasons
)

func (r DropReason) String() string {
	switch r {
	case DropOverload:
		return "overload"
	case DropACL:
		return "acl"
	case DropNoMemory:
		return "no-memory"
	case DropNoRoute:
		return "no-route"
	case DropNoRules:
		return "no-rules"
	case DropCrashed:
		return "crashed"
	case DropMalformed:
		return "malformed"
	case DropRateLimit:
		return "rate-limit"
	default:
		return "unknown"
	}
}

// Delivery receives packets accepted for a local VM. latency is the
// end-to-end virtual time since p.SentAt.
type Delivery func(vnic uint32, p *packet.Packet, latency sim.Time)

// Config sizes a vSwitch.
type Config struct {
	Addr packet.IPv4
	ToR  int
	// Cores / CoreHz / NetMemBytes default to the nic package's
	// calibrated values when zero.
	Cores       int
	CoreHz      uint64
	NetMemBytes int
}

// Counters exposes the vSwitch's datapath statistics.
//
// FromVM/FromNet count every packet entering the vSwitch (including
// ones a crashed vSwitch immediately drops), and every such packet
// terminates in exactly one of Sent (forwarded onto the fabric),
// Delivered (handed to a local VM), a Drops bucket, or Absorbed
// (consumed by the vSwitch itself: health probes answered, mutual
// pongs, notify packets applied). Packets queued inside the CPU model
// are reported by InFlightCPU. The chaos packet-conservation
// invariant checks this ledger at event boundaries:
//
//	FromVM + FromNet == Sent + Delivered + TotalDrops + Absorbed + InFlightCPU
type Counters struct {
	FromVM      uint64
	FromNet     uint64
	Delivered   uint64
	Sent        uint64
	Absorbed    uint64
	SlowPath    uint64
	FastPath    uint64
	NotifySent  uint64
	NotifyRecv  uint64
	ProbesSeen  uint64
	Mirrored    uint64
	FlowLogged  uint64
	NATRewrites uint64
	Drops       [numDropReasons]uint64
}

// TotalDrops sums all drop reasons.
func (c *Counters) TotalDrops() uint64 {
	var t uint64
	for _, d := range c.Drops {
		t += d
	}
	return t
}

type vnicState struct {
	id        uint32
	vpc       uint32
	rules     *tables.RuleSet
	ruleBytes int
	decap     bool
	offloaded bool
	fes       []packet.IPv4
	// feEpoch versions the BE's FE-set config. Epoch-aware mutators
	// reject pushes older than this, so a retried or reordered config
	// RPC can never regress newer state.
	feEpoch   uint64
	beCharged bool
	// pinned overrides the 5-tuple hash for specific sessions —
	// elephant flows steered to a dedicated FE (§7.5).
	pinned map[packet.SessionKey]packet.IPv4
	// limiter enforces the VM-level rate limit. It lives in the BE
	// data: because every packet of an offloaded vNIC still passes
	// its BE, Nezha enforces VM-level limits at one point — unlike a
	// Sirius-style pool, which needs distributed rate limiting across
	// cards (§2.3.3).
	limiter *tokenBucket

	// slot is the vNIC's local-role ledger slot, claimed at install.
	slot *prof.VNICProf
}

// tokenBucket is a byte-rate limiter on virtual time.
type tokenBucket struct {
	rateBps float64 // bytes per second
	burst   float64
	tokens  float64
	last    sim.Time
}

func (tb *tokenBucket) allow(now sim.Time, bytes int) bool {
	dt := (now - tb.last).Seconds()
	tb.last = now
	tb.tokens += dt * tb.rateBps
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	if tb.tokens < float64(bytes) {
		return false
	}
	tb.tokens -= float64(bytes)
	return true
}

// VNICLoad summarizes one resident vNIC's resource consumption — the
// controller offloads vNICs in descending order of the triggering
// resource (§4.2.1).
type VNICLoad struct {
	VNIC      uint32
	Cycles    uint64
	RuleBytes int
	Offloaded bool
}

type feInstance struct {
	vnic      uint32
	vpc       uint32
	rules     *tables.RuleSet
	ruleBytes int
	beAddr    packet.IPv4
	decap     bool
	// epoch is the config epoch that installed (or last refreshed)
	// this instance. Rollbacks carry the epoch they are undoing, so a
	// straggling rollback never removes a newer install.
	epoch uint64

	// slot is the instance's FE-role ledger slot, claimed at install.
	slot *prof.VNICProf
}

// VSwitch is one SmartNIC's virtual switch. Its per-server parts —
// CPU model, memory budget, meters, learner, ledger, session table and
// mutual-ping state — live inside it, so New allocates them with the
// switch; none of them may be copied out.
type VSwitch struct {
	loop    *sim.Loop
	fab     *fabric.Fabric
	learner fabric.Learner
	cfg     Config

	cpu      nic.CPU
	mem      nic.Memory // rule-table memory; sessions get the rest
	sessions flowcache.Table
	// util is the meter the control plane samples (UtilMeter); it is
	// zero until the controller starts it.
	util nic.UtilMeter

	// vnics and fes are the resident-vNIC and hosted-FE tables, indexed
	// by the gateway's vNIC index (package dense); gw resolves it.
	gw    *fabric.Gateway
	vnics dense.Table[vnicState]
	fes   dense.Table[feInstance]

	deliver    Delivery
	deliverObs Delivery // observer invoked alongside deliver (chaos)
	crashed    bool

	// ctrlHandler receives control-plane RPC packets (CtrlPort). The
	// packets are absorbed by the vSwitch either way; without a handler
	// they are counted and dropped on the floor.
	ctrlHandler func(*packet.Packet)

	// inFlightCPU counts packets submitted to the CPU model whose
	// completion callback has not fired yet (the ledger's in-NIC term).
	inFlightCPU int

	// mirrorSink receives clones of mirrored traffic (0 = count only).
	mirrorSink packet.IPv4

	// mutual is the BE-side FE connectivity checker (§C.1).
	mutual mutualPing

	// qosBuckets enforces per-class rate limits from QoS pre-actions,
	// keyed by (vNIC, class); the first rate-limited class makes it.
	qosBuckets map[uint64]*tokenBucket

	// ob, when set by EnableObs, holds pre-bound telemetry handles;
	// nil means observability is off and the datapath pays nothing.
	ob *vsObs

	// node is the work ledger (prof.go), kept from New whether or not
	// EnableProf exports it; ctrl is its node-level control-plane slot.
	node prof.NodeProf
	ctrl *prof.VNICProf

	// slo, when set by EnableSLO, receives per-packet latency and drop
	// accounting at the terminal points (deliverToVM, drop); nil means
	// the SLO layer is off and the datapath pays nothing.
	slo *slo.Tracker

	// Pipeline scratch (see burst.go). The sim loop is single-threaded,
	// so one set per vSwitch suffices: planBuf holds a run's planned
	// acts until runPlan submits them, burstCosts is consumed
	// synchronously by SubmitBurstTo, pend accumulates egress within one
	// completion wave, admitBuf/sendBuf live only within one call.
	planBuf    []burstAct
	burstCosts []uint64
	pend       []pendSend
	admitBuf   []*packet.Packet
	sendBuf    []*packet.Packet

	// runs pools burst sinks and stages lone-act CPU tasks (burstRun
	// and stageTask in burst.go); boxes pools zero-copy header-view
	// boxes (viewpool.go).
	runs   slab.Pool[burstRun]
	stages slab.Pool[stageTask]
	boxes  slab.Pool[viewBox]

	Stats Counters
}

// New builds a vSwitch, registers it on the fabric, and returns it.
func New(loop *sim.Loop, fab *fabric.Fabric, gw *fabric.Gateway, cfg Config) *VSwitch {
	if cfg.Cores == 0 {
		cfg.Cores = nic.DefaultCores
	}
	if cfg.CoreHz == 0 {
		cfg.CoreHz = nic.DefaultCoreHz
	}
	if cfg.NetMemBytes == 0 {
		cfg.NetMemBytes = nic.DefaultRuleTableBytes + nic.DefaultSessionTableBytes
	}
	vs := &VSwitch{
		loop:    loop,
		fab:     fab,
		learner: *fabric.NewLearner(loop, gw),
		cfg:     cfg,
		gw:      gw,
		node:    prof.NodeProf{Node: cfg.Addr.String(), Cores: cfg.Cores},
	}
	vs.cpu.Init(loop, cfg.Cores, cfg.CoreHz, nic.DefaultMaxQueueDelay)
	vs.mem.Init(cfg.NetMemBytes)
	vs.ctrl = vs.node.Slot(0, prof.RoleCtrl)
	vs.sessions.Init(flowcache.Config{MaxBytes: cfg.NetMemBytes})
	vs.refreshSessionBudget()
	fab.Register(cfg.Addr, cfg.ToR, vs.HandleUnderlay)
	_ = fab.SetBurstHandler(cfg.Addr, vs.HandleUnderlayBurst)
	return vs
}

// resolve looks a vNIC ID up once in the gateway's vNIC index and
// returns the resident vNIC and the hosted FE instance this switch
// holds for it; either may be nil.
func (vs *VSwitch) resolve(id uint32) (*vnicState, *feInstance) {
	i, ok := vs.gw.Index(id)
	if !ok {
		return nil, nil
	}
	return vs.vnics.At(i), vs.fes.At(i)
}

// vnic resolves a resident vNIC by ID.
func (vs *VSwitch) vnic(id uint32) (*vnicState, bool) {
	vn, _ := vs.resolve(id)
	return vn, vn != nil
}

// fe resolves a hosted FE instance by its vNIC's ID.
func (vs *VSwitch) fe(id uint32) (*feInstance, bool) {
	_, fe := vs.resolve(id)
	return fe, fe != nil
}

// Addr returns the vSwitch's underlay address.
func (vs *VSwitch) Addr() packet.IPv4 { return vs.cfg.Addr }

// ToR returns the vSwitch's rack.
func (vs *VSwitch) ToR() int { return vs.cfg.ToR }

// CPU exposes the CPU model (for meters).
func (vs *VSwitch) CPU() *nic.CPU { return &vs.cpu }

// UtilMeter returns the CPU utilisation meter the control plane
// samples each report interval. The controller starts it
// (UtilMeter.Start) when it registers the switch.
func (vs *VSwitch) UtilMeter() *nic.UtilMeter { return &vs.util }

// CyclesLocal returns the ledger's cumulative cycles for local-vNIC
// work: the local-role slots' sum.
func (vs *VSwitch) CyclesLocal() uint64 { return vs.node.RoleCycles(prof.RoleLocal) }

// CyclesRemote returns the ledger's cumulative cycles for hosted-FE
// work: the FE-role slots' sum.
func (vs *VSwitch) CyclesRemote() uint64 { return vs.node.RoleCycles(prof.RoleFE) }

// Relocatable reports the ledger's cumulative relocatable cycles per
// tenant slot, local and FE roles alike (prof.NodeProf.Relocatable):
// the policy engine's input.
func (vs *VSwitch) Relocatable(fn func(vnic uint32, rule, sess uint64)) {
	vs.node.Relocatable(fn)
}

// Sessions exposes the session table (read-mostly, for experiments).
func (vs *VSwitch) Sessions() *flowcache.Table { return &vs.sessions }

// EnableSLO attaches the latency/hot-flow SLO tracker: the terminal
// points (deliverToVM, drop) then record end-to-end latency,
// violations, and heavy-hitter observations. Nil detaches. Drop-cause
// names are installed so tracker views label causes with DropReason
// strings.
func (vs *VSwitch) EnableSLO(t *slo.Tracker) {
	vs.slo = t
	if t != nil {
		t.SetCauseNames(dropCauseNames)
	}
}

// dropCauseNames names each DropReason, for the telemetry that labels
// drops by cause; its readers share it and never write it.
var dropCauseNames = func() []string {
	names := make([]string, numDropReasons)
	for r := DropReason(0); r < numDropReasons; r++ {
		names[r] = r.String()
	}
	return names
}()

// SetDelivery installs the VM delivery callback.
func (vs *VSwitch) SetDelivery(d Delivery) { vs.deliver = d }

// SetDeliveryObserver installs a tap invoked for every VM delivery in
// addition to the Delivery callback — the chaos engine's
// no-duplicate-delivery hook. Nil removes it.
func (vs *VSwitch) SetDeliveryObserver(d Delivery) { vs.deliverObs = d }

// InFlightCPU reports packets currently queued in the CPU model.
func (vs *VSwitch) InFlightCPU() int { return vs.inFlightCPU }

// SetMirrorSink points traffic mirroring at a collector address
// (0 disables forwarding; mirrored packets are then only counted).
func (vs *VSwitch) SetMirrorSink(addr packet.IPv4) { vs.mirrorSink = addr }

// SetControlHandler installs the receiver for control-plane RPC
// packets addressed to CtrlPort (the ctrlrpc agent). Nil removes it.
// The vSwitch releases each packet when h returns, so h must not keep
// it.
func (vs *VSwitch) SetControlHandler(h func(*packet.Packet)) { vs.ctrlHandler = h }

// Crash simulates a vSwitch software crash: all packets (including
// health probes) are silently dropped until Revive.
func (vs *VSwitch) Crash() { vs.crashed = true }

// Revive restores a crashed vSwitch.
func (vs *VSwitch) Revive() { vs.crashed = false }

// Crashed reports crash state.
func (vs *VSwitch) Crashed() bool { return vs.crashed }

// MemUsedBytes reports rule-table plus session-table memory in use.
func (vs *VSwitch) MemUsedBytes() int { return vs.mem.Used() + vs.sessions.MemBytes() }

// MemUtilization reports combined memory utilization in 0..1.
func (vs *VSwitch) MemUtilization() float64 {
	return float64(vs.MemUsedBytes()) / float64(vs.cfg.NetMemBytes)
}

// MemFreeBytes reports unreserved config memory — what a new rule
// table or pressure spike could still allocate.
func (vs *VSwitch) MemFreeBytes() int { return vs.mem.Total() - vs.mem.Used() }

// InjectMemPressure reserves bytes of NIC memory, squeezing the
// session-table budget the way a co-resident workload spike would.
// The returned release func refunds the reservation; ok is false (and
// nothing is charged) when the rule-table budget cannot fit the
// spike. Chaos schedules use this to drive the memory-triggered
// offload and DropNoMemory paths.
func (vs *VSwitch) InjectMemPressure(bytes int) (release func(), ok bool) {
	if bytes <= 0 || !vs.reserve(vs.ctrl, prof.CausePressure, bytes) {
		return nil, false
	}
	vs.refreshSessionBudget()
	return func() {
		vs.release(vs.ctrl, prof.CausePressure, bytes)
		vs.refreshSessionBudget()
	}, true
}

func (vs *VSwitch) refreshSessionBudget() {
	rest := vs.cfg.NetMemBytes - vs.mem.Used()
	if rest < 0 {
		rest = 0
	}
	vs.sessions.SetMaxBytes(rest)
}

// --- vNIC lifecycle -------------------------------------------------

// ErrNoRuleMemory reports that the rule-table budget cannot fit a new
// vNIC's tables — the paper's #vNICs-limited-by-memory bottleneck.
var ErrNoRuleMemory = errors.New("vswitch: rule table memory exhausted")

// ErrExists reports a duplicate install.
var ErrExists = errors.New("vswitch: already installed")

// ErrUnknownVNIC reports an operation on an absent vNIC.
var ErrUnknownVNIC = errors.New("vswitch: unknown vNIC")

// ErrStaleEpoch reports an epoch-versioned config push older than the
// state it would replace (a reordered or retried RPC that lost the
// race to a newer push).
var ErrStaleEpoch = errors.New("vswitch: stale config epoch")

// AddVNIC installs a resident vNIC with its rule tables. decap
// enables stateful decapsulation for it (§5.2).
func (vs *VSwitch) AddVNIC(rules *tables.RuleSet, decap bool) error {
	if _, dup := vs.vnic(rules.VNIC); dup {
		return ErrExists
	}
	sz := rules.SizeBytes()
	slot := vs.node.Slot(rules.VNIC, prof.RoleLocal)
	if !vs.reserve(slot, prof.CauseRuleTable, sz) {
		return ErrNoRuleMemory
	}
	vs.vnics.Set(vs.gw.Intern(rules.VNIC), &vnicState{
		id: rules.VNIC, vpc: rules.VPC, rules: rules, ruleBytes: sz, decap: decap, slot: slot,
	})
	vs.refreshSessionBudget()
	return nil
}

// RemoveVNIC uninstalls a resident vNIC and its sessions.
func (vs *VSwitch) RemoveVNIC(vnic uint32) {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return
	}
	vs.release(vn.slot, prof.CauseRuleTable, vn.ruleBytes)
	if vn.beCharged {
		vs.release(vn.slot, prof.CauseBEData, BEDataBytes)
	}
	vs.vnics.Set(vs.gw.Intern(vnic), nil)
	vs.sessions.InvalidateVNIC(vnic)
	vs.refreshSessionBudget()
}

// NumVNICs reports how many vNICs are resident here.
func (vs *VSwitch) NumVNICs() int { return vs.vnics.Len() }

// HasVNIC reports whether vnic is resident here.
func (vs *VSwitch) HasVNIC(vnic uint32) bool {
	_, ok := vs.vnic(vnic)
	return ok
}

// VNICRuleBytes reports a resident vNIC's rule memory (0 if offloaded
// past the final stage).
func (vs *VSwitch) VNICRuleBytes(vnic uint32) int {
	if vn, ok := vs.vnic(vnic); ok {
		return vn.ruleBytes
	}
	return 0
}

// VNICLoads reports every resident vNIC's consumption. Cycles is the
// vNIC's local-role ledger slot: every cycle its plans priced on this
// node, since the vNIC was first installed here.
func (vs *VSwitch) VNICLoads() []VNICLoad {
	out := make([]VNICLoad, 0, vs.vnics.Len())
	vs.vnics.Each(func(vn *vnicState) {
		out = append(out, VNICLoad{
			VNIC: vn.id, Cycles: vn.slot.Total(), RuleBytes: vn.ruleBytes,
			Offloaded: vn.offloaded,
		})
	})
	return out
}

// --- BE-side offload control (invoked by the controller) -----------

// OffloadStart enters the dual-running stage for a resident vNIC:
// TX traffic starts flowing via the FEs while the local rule tables
// are retained for stale direct senders (§4.2.1). The unversioned
// form keeps the current FE-set epoch.
func (vs *VSwitch) OffloadStart(vnic uint32, fes []packet.IPv4) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	return vs.OffloadStartEpoch(vnic, fes, vn.feEpoch)
}

// OffloadStartEpoch is OffloadStart with an explicit config epoch:
// pushes older than the installed FE-set config are rejected.
func (vs *VSwitch) OffloadStartEpoch(vnic uint32, fes []packet.IPv4, epoch uint64) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	if epoch < vn.feEpoch {
		return ErrStaleEpoch
	}
	if !vn.beCharged {
		if !vs.reserve(vn.slot, prof.CauseBEData, BEDataBytes) {
			return ErrNoRuleMemory
		}
		vn.beCharged = true
	}
	vn.offloaded = true
	vn.fes = append([]packet.IPv4(nil), fes...)
	vn.feEpoch = epoch
	vs.refreshSessionBudget()
	return nil
}

// OffloadAbort undoes OffloadStart before finalization: the vNIC
// returns to fully local processing (its rule tables were never
// deleted during dual-running) and the BE data charge is released.
// The two-phase controller uses this to roll back a commit whose
// gateway flip failed.
func (vs *VSwitch) OffloadAbort(vnic uint32) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	vn.offloaded = false
	vn.fes = nil
	if vn.beCharged {
		vs.release(vn.slot, prof.CauseBEData, BEDataBytes)
		vn.beCharged = false
	}
	vs.refreshSessionBudget()
	return nil
}

// OffloadFinalize enters the final stage: the BE deletes its local
// rule tables and cached flows, keeping only states (and 2 KB of BE
// data). Stale senders hitting the BE directly after this are
// dropped with DropNoRules.
func (vs *VSwitch) OffloadFinalize(vnic uint32) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	if !vn.offloaded {
		return fmt.Errorf("vswitch: vNIC %d not offloaded", vnic)
	}
	if vn.rules != nil {
		vs.release(vn.slot, prof.CauseRuleTable, vn.ruleBytes)
		vn.rules = nil
		vn.ruleBytes = 0
	}
	// Drop cached pre-actions; keep states.
	vs.sessions.Range(func(e *flowcache.Entry) bool {
		if vs.sessions.Key(e).VNIC == vnic {
			vs.sessions.DropPre(e)
		}
		return true
	})
	vs.refreshSessionBudget()
	return nil
}

// SetFEsEpoch replaces the FE list at an explicit config epoch,
// rejecting pushes older than the installed config.
func (vs *VSwitch) SetFEsEpoch(vnic uint32, fes []packet.IPv4, epoch uint64) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	if epoch < vn.feEpoch {
		return ErrStaleEpoch
	}
	vn.fes = append([]packet.IPv4(nil), fes...)
	vn.feEpoch = epoch
	return nil
}

// FESetEpoch reports the config epoch of the BE's FE-set for vnic.
func (vs *VSwitch) FESetEpoch(vnic uint32) uint64 {
	if vn, ok := vs.vnic(vnic); ok {
		return vn.feEpoch
	}
	return 0
}

// FEList returns the BE's current FE list for vnic.
func (vs *VSwitch) FEList(vnic uint32) []packet.IPv4 {
	if vn, ok := vs.vnic(vnic); ok {
		return append([]packet.IPv4(nil), vn.fes...)
	}
	return nil
}

// SetRateLimit installs (or clears, with 0) a VM-level byte-rate
// limit on a resident vNIC, enforced at this vSwitch for both
// directions. Under Nezha the BE remains the single enforcement
// point since every packet of the vNIC still traverses it.
func (vs *VSwitch) SetRateLimit(vnic uint32, bytesPerSec float64) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	if bytesPerSec <= 0 {
		vn.limiter = nil
		return nil
	}
	burst := bytesPerSec / 10 // 100 ms of burst...
	if burst < 3000 {
		burst = 3000 // ...but always at least a couple of MTUs
	}
	vn.limiter = &tokenBucket{
		rateBps: bytesPerSec,
		burst:   burst,
		tokens:  burst,
		last:    vs.loop.Now(),
	}
	return nil
}

// qosAdmit enforces the per-class rate limit a QoS pre-action
// carries. The bucket materializes on first use at the node that
// computes the final action.
func (vs *VSwitch) qosAdmit(vnic uint32, pre tables.PreAction, p *packet.Packet) bool {
	if pre.RateBps == 0 {
		return true
	}
	key := uint64(vnic)<<8 | uint64(pre.QoSClass)
	tb := vs.qosBuckets[key]
	if tb == nil {
		burst := float64(pre.RateBps) / 10
		if burst < 3000 {
			burst = 3000
		}
		tb = &tokenBucket{rateBps: float64(pre.RateBps), burst: burst, tokens: burst, last: vs.loop.Now()}
		if vs.qosBuckets == nil {
			vs.qosBuckets = make(map[uint64]*tokenBucket)
		}
		vs.qosBuckets[key] = tb
	}
	if tb.allow(vs.loop.Now(), p.SizeBytes) {
		return true
	}
	vs.drop(p, DropRateLimit)
	return false
}

// rateAdmit charges a packet against the vNIC's VM-level limiter.
func (vs *VSwitch) rateAdmit(vn *vnicState, p *packet.Packet) bool {
	if vn.limiter == nil {
		return true
	}
	if vn.limiter.allow(vs.loop.Now(), p.SizeBytes) {
		return true
	}
	vs.drop(p, DropRateLimit)
	return false
}

// PinFlow steers one session of an offloaded vNIC to a dedicated FE,
// overriding the 5-tuple hash — the §7.5 elephant-flow isolation.
// The FE address need not be in the vNIC's regular pool.
func (vs *VSwitch) PinFlow(vnic uint32, ft packet.FiveTuple, fe packet.IPv4) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	key, _ := packet.SessionKeyOf(vnic, vn.vpc, ft)
	if vn.pinned == nil {
		vn.pinned = make(map[packet.SessionKey]packet.IPv4)
	}
	vn.pinned[key] = fe
	return nil
}

// UnpinFlow removes an elephant-flow pin.
func (vs *VSwitch) UnpinFlow(vnic uint32, ft packet.FiveTuple) {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return
	}
	key, _ := packet.SessionKeyOf(vnic, vn.vpc, ft)
	delete(vn.pinned, key)
}

// FallbackStart re-enters dual-running in the reverse direction:
// rule tables are reinstalled locally while FEs are still configured
// (§4.2.2).
func (vs *VSwitch) FallbackStart(vnic uint32, rules *tables.RuleSet) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	if vn.rules == nil {
		sz := rules.SizeBytes()
		if !vs.reserve(vn.slot, prof.CauseRuleTable, sz) {
			return ErrNoRuleMemory
		}
		vn.rules = rules
		vn.ruleBytes = sz
	}
	// TX switches back to local processing immediately.
	vn.offloaded = false
	vs.refreshSessionBudget()
	return nil
}

// FallbackFinalize completes fallback: FE config and BE data are
// released.
func (vs *VSwitch) FallbackFinalize(vnic uint32) error {
	vn, ok := vs.vnic(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	vn.offloaded = false
	vn.fes = nil
	if vn.beCharged {
		vs.release(vn.slot, prof.CauseBEData, BEDataBytes)
		vn.beCharged = false
	}
	vs.refreshSessionBudget()
	return nil
}

// Offloaded reports whether a resident vNIC is currently offloaded.
func (vs *VSwitch) Offloaded(vnic uint32) bool {
	vn, ok := vs.vnic(vnic)
	return ok && vn.offloaded
}

// --- FE-side control ------------------------------------------------

// InstallFE installs an FE instance for a remote vNIC: a copy of its
// stateless rule tables plus the BE location.
func (vs *VSwitch) InstallFE(rules *tables.RuleSet, beAddr packet.IPv4, decap bool) error {
	if _, dup := vs.fe(rules.VNIC); dup {
		return ErrExists
	}
	return vs.InstallFEEpoch(rules, beAddr, decap, 0)
}

// InstallFEEpoch installs an FE instance at an explicit config epoch.
// A duplicate install at the same or newer epoch refreshes the
// instance and succeeds (idempotent RPC retry); an older push is
// rejected with ErrStaleEpoch.
func (vs *VSwitch) InstallFEEpoch(rules *tables.RuleSet, beAddr packet.IPv4, decap bool, epoch uint64) error {
	if fe, dup := vs.fe(rules.VNIC); dup {
		if epoch < fe.epoch {
			return ErrStaleEpoch
		}
		fe.beAddr = beAddr
		fe.decap = decap
		fe.epoch = epoch
		return nil
	}
	sz := rules.SizeBytes()
	slot := vs.node.Slot(rules.VNIC, prof.RoleFE)
	if !vs.reserve(slot, prof.CauseRuleTable, sz) {
		return ErrNoRuleMemory
	}
	vs.fes.Set(vs.gw.Intern(rules.VNIC), &feInstance{
		vnic: rules.VNIC, vpc: rules.VPC, rules: rules, ruleBytes: sz,
		beAddr: beAddr, decap: decap, epoch: epoch, slot: slot,
	})
	vs.refreshSessionBudget()
	return nil
}

// RemoveFE removes an FE instance, its rules, and its cached flows.
func (vs *VSwitch) RemoveFE(vnic uint32) {
	vs.RemoveFEEpoch(vnic, ^uint64(0))
}

// RemoveFEEpoch removes an FE instance unless it was installed by a
// config push newer than epoch — a straggling rollback of an aborted
// transaction must not tear down the instance a later, committed
// transaction installed. Removing an absent instance is a no-op.
func (vs *VSwitch) RemoveFEEpoch(vnic uint32, epoch uint64) {
	fe, ok := vs.fe(vnic)
	if !ok || fe.epoch > epoch {
		return
	}
	vs.release(fe.slot, prof.CauseRuleTable, fe.ruleBytes)
	vs.fes.Set(vs.gw.Intern(vnic), nil)
	vs.sessions.InvalidateVNIC(vnic)
	vs.refreshSessionBudget()
}

// FEEpoch reports the config epoch of a hosted FE instance. ok is
// false when no instance exists.
func (vs *VSwitch) FEEpoch(vnic uint32) (uint64, bool) {
	if fe, ok := vs.fe(vnic); ok {
		return fe.epoch, true
	}
	return 0, false
}

// CanServe reports whether a packet for vnic steered at this vSwitch
// has rule tables to land on: either a hosted FE instance, or a
// resident vNIC that still holds its tables (monolithic or
// dual-running). The chaos no-blackhole invariant checks this for
// every address the gateway routes a vNIC at.
func (vs *VSwitch) CanServe(vnic uint32) bool {
	if _, ok := vs.fe(vnic); ok {
		return true
	}
	vn, ok := vs.vnic(vnic)
	return ok && vn.rules != nil
}

// HostsFE reports whether this vSwitch hosts an FE for vnic.
func (vs *VSwitch) HostsFE(vnic uint32) bool {
	_, ok := vs.fe(vnic)
	return ok
}

// SetBELocation updates the BE address of a hosted FE (VM live
// migration redirection, §7.2).
func (vs *VSwitch) SetBELocation(vnic uint32, beAddr packet.IPv4) error {
	fe, ok := vs.fe(vnic)
	if !ok {
		return ErrUnknownVNIC
	}
	fe.beAddr = beAddr
	return nil
}

// SweepSessions evicts aged session entries (periodic task).
func (vs *VSwitch) SweepSessions() int {
	return vs.sessions.Sweep(int64(vs.loop.Now()))
}

// drop terminally consumes a packet: it is counted, traced, and
// returned to the pool. Callers must not touch p afterward.
func (vs *VSwitch) drop(p *packet.Packet, r DropReason) {
	vs.Stats.Drops[r]++
	if vs.ob != nil {
		vs.hopDrop(p, r)
	}
	if vs.slo != nil {
		vs.slo.RecordDrop(int64(vs.loop.Now()), p.VNIC, uint8(r))
	}
	// Release sends a still-attached header view's box home.
	p.Release()
}
