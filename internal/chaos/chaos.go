// Package chaos is a deterministic fault-injection engine with
// runtime invariant checking, layered onto the simulation substrate.
//
// The engine drives faults the clean-path experiments never exercise
// — stochastic per-link packet loss and latency jitter, link flaps,
// rolling partitions, FE crash/revive schedules, and memory-pressure
// spikes — from either scripted schedules or a seeded random schedule
// generator. Because every fault decision draws from a sim.Rand and
// executes on the virtual clock, a campaign is bit-reproducible from
// its seed: a failing soak run prints the seed, and re-running with
// that seed replays the exact interleaving.
//
// Alongside the faults, an invariant registry turns the paper's
// robustness claims into continuously checked properties. Invariants
// are evaluated on sim-loop observer hooks (every Config.CheckEvery
// of virtual time), so a violation is caught within milliseconds of
// virtual time of its occurrence, not at the end of the run:
//
//   - packet conservation: every packet offered to the fabric or a
//     vSwitch is delivered, absorbed, in flight, or accounted in a
//     drop counter — nothing vanishes silently;
//   - single-copy session-state residency: a session's state lives on
//     exactly one BE (its vNIC's home) at all times — the paper's "no
//     state sync between FEs" design holds under any fault mix;
//   - failover bound: a crashed vSwitch is declared down by the
//     monitor and rebalanced away from by the controller within the
//     configured detection window (§4.4, Fig 14's ~2 s claim);
//   - no duplicate delivery: dual-running, failover, and rebalancing
//     never deliver the same packet to a VM twice;
//   - no blackhole: the gateway never routes a vNIC at an address
//     without committed rule tables of the current epoch — the
//     transactional control plane's two-phase commit guarantee.
package chaos

import (
	"fmt"

	"nezha/internal/controller"
	"nezha/internal/fabric"
	"nezha/internal/monitor"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

// System is the slice of the simulation the engine injects faults
// into and checks invariants over. Mon, Ctrl, and GW are optional;
// without them the failover-bound and no-blackhole invariants have
// nothing to check.
type System struct {
	Loop     *sim.Loop
	Fab      *fabric.Fabric
	GW       *fabric.Gateway
	Switches []*vswitch.VSwitch
	Mon      *monitor.Monitor
	Ctrl     *controller.Controller
}

// Config tunes the engine.
type Config struct {
	// CheckEvery is the virtual-time period between invariant
	// evaluations (default 20 ms).
	CheckEvery sim.Time
	// DetectWindow is the failover-bound allowance: a crash lasting
	// longer than this must be declared within it. Derive it from the
	// monitor config as ProbeInterval*(monitor.Misses+2) plus slack; 0
	// disables the failover-bound expectation for crashes.
	DetectWindow sim.Time
}

// maxViolations caps recorded violations.
const maxViolations = 64

// Invariant is a property checked on sim-loop hooks. Check returns
// nil while the property holds; a non-nil error records a violation
// and retires the invariant (the first breakage is the actionable
// one; repeats at every subsequent check would only be noise).
type Invariant interface {
	Name() string
	Check(now sim.Time) error
}

// Violation is one invariant breakage.
type Violation struct {
	Invariant string
	At        sim.Time
	Err       error
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v invariant %q violated: %v", v.At, v.Invariant, v.Err)
}

// linkFault is the loss/jitter model for one link (or the default).
type linkFault struct {
	loss   float64  // drop probability per packet
	jitter sim.Time // max extra latency, drawn uniformly
}

type crashEpisode struct {
	addr     packet.IPv4
	start    sim.Time
	reviveAt sim.Time
	// exempt marks episodes the failover bound must not judge: the
	// widespread-failure guard was active during the window, so
	// automatic declaration was deliberately suspended (§C.2).
	exempt bool
	// judged marks episodes already evaluated.
	judged bool
}

// Engine injects faults and evaluates invariants.
type Engine struct {
	sys System
	rng *sim.Rand
	cfg Config

	// faultSeed keys the per-packet fault hash. Fault decisions are
	// stateless — a hash of (seed, link, packet identity) rather than
	// draws from a shared stream — so they are independent of the
	// order in which sends execute within an event. (The monitor's
	// probe wave and the controller's config pushes iterate Go maps;
	// a sequential rng stream would make the whole run depend on map
	// iteration order.)
	faultSeed uint64

	global linkFault
	links  map[[2]packet.IPv4]linkFault

	// unaccounted makes chaos drops bypass the fabric's ChaosLost
	// counter. This deliberately breaks packet conservation; tests set
	// it to prove the invariant checker catches exactly this class of
	// accounting bug.
	unaccounted bool

	crashes []*crashEpisode

	// ctrlOutages are controller crash/revive episodes (ctrlcrash.go).
	ctrlOutages []*ctrlOutage

	invariants []Invariant
	violations []Violation
	nextCheck  sim.Time

	// ob, when set, records chaos crash/revive episodes as
	// flight-recorder events (nil-safe).
	ob *obs.Obs
	// firstViolation, when set, runs once, at the first violation: a
	// replay writes its artefacts there (see Replay).
	firstViolation func(Violation)

	// hist, when set by AttachHistory, receives every invariant
	// violation so the live ops surface can serve them.
	hist *obs.History
}

// NewEngine wires an engine into the system: it installs the fabric
// fault injector and a sim-loop observer that paces invariant
// checks. rng must be a dedicated stream (seeded from the campaign
// seed), so fault draws do not perturb workload randomness.
func NewEngine(sys System, rng *sim.Rand, cfg Config) *Engine {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 20 * sim.Millisecond
	}
	e := &Engine{
		sys:       sys,
		rng:       rng,
		cfg:       cfg,
		links:     make(map[[2]packet.IPv4]linkFault),
		faultSeed: rng.Uint64(),
	}
	sys.Fab.SetFaultInjector(e.verdict)
	sys.Loop.Observe(func(now sim.Time) {
		if now < e.nextCheck {
			return
		}
		e.nextCheck = now + e.cfg.CheckEvery
		e.CheckNow()
	})
	return e
}

// Register adds an invariant to the checked set.
func (e *Engine) Register(inv Invariant) { e.invariants = append(e.invariants, inv) }

// Violations returns every recorded breakage, in occurrence order.
func (e *Engine) Violations() []Violation { return e.violations }

// Failed reports whether any invariant broke.
func (e *Engine) Failed() bool { return len(e.violations) > 0 }

// CheckNow evaluates all live invariants immediately (also called at
// campaign end, after the loop drains).
func (e *Engine) CheckNow() {
	now := e.sys.Loop.Now()
	live := e.invariants[:0]
	for _, inv := range e.invariants {
		if err := inv.Check(now); err != nil {
			e.violate(inv.Name(), now, err)
			continue
		}
		live = append(live, inv)
	}
	e.invariants = live
}

func (e *Engine) violate(name string, at sim.Time, err error) {
	if len(e.violations) >= maxViolations {
		return
	}
	v := Violation{Invariant: name, At: at, Err: err}
	e.violations = append(e.violations, v)
	e.hist.AddInvariant(obs.InvariantEvent{At: at, Invariant: name, Err: err.Error()})
	if len(e.violations) == 1 && e.firstViolation != nil {
		e.firstViolation(v)
	}
}

// AttachHistory mirrors every invariant violation into the ops-surface
// history store (nil-safe on both sides; recording is a bounded append
// under the History mutex, so it does not perturb the run).
func (e *Engine) AttachHistory(h *obs.History) { e.hist = h }

// --- Fault model -----------------------------------------------------

func linkKey(a, b packet.IPv4) [2]packet.IPv4 {
	if a > b {
		a, b = b, a
	}
	return [2]packet.IPv4{a, b}
}

// SetGlobalFault sets the default loss probability and maximum jitter
// applied to every link without a per-link override.
func (e *Engine) SetGlobalFault(loss float64, jitter sim.Time) {
	e.global = linkFault{loss: loss, jitter: jitter}
}

// SetLinkFault overrides the fault model for one server pair (both
// directions). Loss 0 and jitter 0 still overrides — use ClearLinkFault
// to fall back to the global model.
func (e *Engine) SetLinkFault(a, b packet.IPv4, loss float64, jitter sim.Time) {
	e.links[linkKey(a, b)] = linkFault{loss: loss, jitter: jitter}
}

// ClearLinkFault removes a per-link override.
func (e *Engine) ClearLinkFault(a, b packet.IPv4) { delete(e.links, linkKey(a, b)) }

// verdict is the fabric.FaultInjector: a stateless deterministic
// draw per (link, packet traversal) against the link's fault model.
func (e *Engine) verdict(from, to packet.IPv4, p *packet.Packet) fabric.FaultVerdict {
	lf, ok := e.links[linkKey(from, to)]
	if !ok {
		lf = e.global
	}
	if lf.loss <= 0 && lf.jitter <= 0 {
		return fabric.FaultVerdict{}
	}
	var id, hops uint64
	if p != nil {
		id, hops = p.ID, uint64(p.Hops)
	}
	h := mix(e.faultSeed, uint64(from)<<32|uint64(to), id, hops)
	if lf.loss > 0 && hashFloat(h) < lf.loss {
		return fabric.FaultVerdict{Drop: true, SkipAccounting: e.unaccounted}
	}
	var jitter sim.Time
	if lf.jitter > 0 {
		jitter = sim.Time(hashFloat(mix(h, 0x9e3779b97f4a7c15)) * float64(lf.jitter))
	}
	return fabric.FaultVerdict{Jitter: jitter}
}

// mix folds the words into a splitmix64-finalized hash.
func mix(words ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, w := range words {
		h ^= w
		h += 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// hashFloat maps a hash to [0, 1) with 53-bit precision.
func hashFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// --- Mid-push kill ----------------------------------------------------

// ArmMidPushKill arms a one-shot fault aimed at the transactional
// control plane's window of maximum vulnerability: the gap between
// prepare (FE rule installs in flight) and commit (gateway flip). On
// the first prepare the controller starts, the engine picks one
// prepare target and — after a short delay placed inside the prepare
// window — either crashes it or partitions it from the controller's
// RPC endpoint, forcing the transaction through its abort/rollback or
// quorum path while the no-blackhole invariant watches the gateway.
func (e *Engine) ArmMidPushKill() {
	ctrl := e.sys.Ctrl
	if ctrl == nil {
		return
	}
	window := e.cfg.DetectWindow
	if window <= 0 {
		window = 2 * sim.Second
	}
	byAddr := make(map[packet.IPv4]int, len(e.sys.Switches))
	for i, vs := range e.sys.Switches {
		byAddr[vs.Addr()] = i
	}
	armed := true
	ctrl.SetPrepareHook(func(vnic uint32, targets []packet.IPv4) {
		if !armed || len(targets) == 0 {
			return
		}
		armed = false
		victim := targets[e.rng.Intn(len(targets))]
		delay := 50*sim.Millisecond + sim.Time(e.rng.Float64()*float64(600*sim.Millisecond))
		dur := window + 1500*sim.Millisecond
		if e.rng.Intn(2) == 0 {
			e.sys.Loop.Schedule(delay, func() {
				if i, ok := byAddr[victim]; ok {
					e.crash(i, dur)
				}
			})
			return
		}
		rpcAddr := ctrl.RPCAddr()
		e.sys.Loop.Schedule(delay, func() {
			e.sys.Fab.Partition(rpcAddr, victim)
		})
		e.sys.Loop.Schedule(delay+dur, func() {
			e.sys.Fab.Heal(rpcAddr, victim)
		})
	})
}

// --- Crash bookkeeping ----------------------------------------------

// crash executes a crash/revive episode on switch index i and records
// the expectation the failover-bound invariant judges.
func (e *Engine) crash(i int, dur sim.Time) {
	vs := e.sys.Switches[i]
	if vs.Crashed() {
		return // overlapping schedule; the first episode governs
	}
	vs.Crash()
	e.ob.Event(e.sys.Loop.Now(), "chaos-crash", vs.Addr(), 0, "dur=%v", dur)
	ep := &crashEpisode{
		addr:     vs.Addr(),
		start:    e.sys.Loop.Now(),
		reviveAt: e.sys.Loop.Now() + dur,
	}
	e.crashes = append(e.crashes, ep)
	e.sys.Loop.Schedule(dur, func() {
		e.ob.Event(e.sys.Loop.Now(), "chaos-revive", vs.Addr(), 0, "")
		vs.Revive()
	})
}
