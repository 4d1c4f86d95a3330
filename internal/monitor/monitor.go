// Package monitor implements Nezha's centralized FE health checking
// (§4.4, Appendix C): periodic ping polling against the vSwitches
// hosting FEs (probes use a dedicated destination port that
// flow-direct rules steer straight to the vSwitch), crash declaration
// after K consecutive misses, and the widespread-failure guard that
// suspends automatic removal when most targets appear down at once —
// which production experience says is usually a monitoring bug, not
// a real outage (§C.2).
package monitor

import (
	"slices"
	"sync/atomic"

	"nezha/internal/fabric"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/vswitch"
)

// Misses is how many consecutive unanswered probes declare a crash
// (K in §4.4). At the default probe interval it yields ~1.5–2 s
// detection, matching the paper's failover window (Fig 14).
const Misses = 3

// guardFraction suspends automatic removal when more than this
// fraction of targets would be declared down in the same round (§C.2).
const guardFraction = 0.5

// Config tunes the monitor.
type Config struct {
	// Addr is the monitor's own underlay address.
	Addr packet.IPv4
	// ProbeInterval is the ping polling period.
	ProbeInterval sim.Time
}

// DefaultConfig probes every 500 ms: ~1.5–2 s detection.
func DefaultConfig(addr packet.IPv4) Config {
	return Config{Addr: addr, ProbeInterval: 500 * sim.Millisecond}
}

type target struct {
	missed     int
	down       bool
	pending    bool     // probe outstanding
	pendingID  uint64   // ID of the outstanding probe
	declaredAt sim.Time // when the current down state was declared
	firstMiss  sim.Time // when the current miss streak started
}

// Monitor is the centralized health checker.
type Monitor struct {
	loop *sim.Loop
	fab  *fabric.Fabric
	cfg  Config

	targets map[packet.IPv4]*target
	order   []packet.IPv4 // sortedTargets' scratch
	onDown  func(packet.IPv4)
	onUp    func(packet.IPv4)
	ticker  *sim.Ticker
	probeID uint64

	// Counters. These are read by tests and CLI status printers from
	// outside the sim goroutine, so they are atomics: the probe loop
	// pays a cheap atomic add, readers are race-free.
	ProbesSent  atomic.Uint64
	PongsSeen   atomic.Uint64
	StalePongs  atomic.Uint64
	Declared    atomic.Uint64
	GuardTrips  atomic.Uint64
	guardActive bool

	// ob, when set by EnableObs, publishes detection latency and
	// recorder events.
	ob         *obs.Obs
	declareLat slo.Hist
}

// New builds a monitor and registers it on the fabric. onDown fires
// once per crash declaration (typically controller.NodeDown).
func New(loop *sim.Loop, fab *fabric.Fabric, cfg Config, onDown func(packet.IPv4)) *Monitor {
	m := &Monitor{
		loop:    loop,
		fab:     fab,
		cfg:     cfg,
		targets: make(map[packet.IPv4]*target),
		onDown:  onDown,
	}
	fab.Register(cfg.Addr, -1, m.handlePong)
	return m
}

// SetOnUp installs a recovery callback (fired when a down target
// answers again).
func (m *Monitor) SetOnUp(fn func(packet.IPv4)) { m.onUp = fn }

// EnableObs publishes the monitor's counters, the crash-detection
// latency histogram (first missed probe to declaration), and
// flight-recorder events for declarations, recoveries, and guard
// trips.
func (m *Monitor) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	m.ob = o
	obs.Register(o.Reg, m, nil, &monitorTable)
}

func counter(name, help string, c func(*Monitor) *atomic.Uint64) obs.Series[Monitor] {
	return obs.Series[Monitor]{Name: name, Help: help, Kind: obs.KindCounter,
		Value: func(m *Monitor) float64 { return float64(c(m).Load()) }}
}

var monitorTable = obs.Table[Monitor]{Series: []obs.Series[Monitor]{
	{Name: "monitor_declare_latency_ns", Help: "First missed probe to node-down declaration, nanoseconds.", Kind: obs.KindHistogram,
		Hist: func(m *Monitor) *slo.Hist { return &m.declareLat }},
	counter("monitor_probes_sent_total", "Health probes sent.", func(m *Monitor) *atomic.Uint64 { return &m.ProbesSent }),
	counter("monitor_pongs_seen_total", "Probe responses received.", func(m *Monitor) *atomic.Uint64 { return &m.PongsSeen }),
	counter("monitor_stale_pongs_total", "Responses arriving after their round closed.", func(m *Monitor) *atomic.Uint64 { return &m.StalePongs }),
	counter("monitor_declared_total", "Node-down declarations issued.", func(m *Monitor) *atomic.Uint64 { return &m.Declared }),
	counter("monitor_guard_trips_total", "Mass-declaration guard activations.", func(m *Monitor) *atomic.Uint64 { return &m.GuardTrips }),
	{Name: "monitor_targets", Help: "vSwitches under health monitoring.", Kind: obs.KindGauge,
		Value: func(m *Monitor) float64 { return float64(len(m.targets)) }},
	{Name: "monitor_targets_down", Help: "Targets currently declared down.", Kind: obs.KindGauge,
		Value: func(m *Monitor) float64 {
			n := 0
			for _, t := range m.targets {
				if t.down {
					n++
				}
			}
			return float64(n)
		}},
	{Name: "monitor_guard_active", Help: "1 while the mass-declaration guard is holding declarations.", Kind: obs.KindGauge,
		Value: func(m *Monitor) float64 {
			if m.guardActive {
				return 1
			}
			return 0
		}},
}}

// Watch adds a vSwitch to the probe set.
func (m *Monitor) Watch(addr packet.IPv4) {
	if _, ok := m.targets[addr]; !ok {
		m.targets[addr] = &target{}
	}
}

// DeclaredAt returns when addr's current down declaration happened.
// ok is false while the target is healthy (or unknown). The chaos
// failover-bound invariant compares this against the crash time.
func (m *Monitor) DeclaredAt(addr packet.IPv4) (sim.Time, bool) {
	t, ok := m.targets[addr]
	if !ok || !t.down {
		return 0, false
	}
	return t.declaredAt, true
}

// declare marks a target down and fires the crash callback.
func (m *Monitor) declare(addr packet.IPv4, t *target) {
	t.down = true
	t.declaredAt = m.loop.Now()
	m.Declared.Add(1)
	if m.ob != nil {
		if t.firstMiss > 0 {
			m.declareLat.Observe(uint64(t.declaredAt - t.firstMiss))
		}
		m.ob.Event(t.declaredAt, "mon-declare", addr, 0, "missed=%d", t.missed)
	}
	if m.onDown != nil {
		m.onDown(addr)
	}
}

// GuardActive reports whether the widespread-failure guard has
// suspended automatic removal.
func (m *Monitor) GuardActive() bool { return m.guardActive }

// ClearGuard re-enables automatic removal after manual verification
// (§C.2: "manual intervention to verify"). Verification confirms the
// widespread failure is real, so targets already past the miss
// threshold are declared immediately.
// Targets already declared down are skipped — a second ClearGuard (or
// one following a partial outage) must not re-fire onDown for them.
func (m *Monitor) ClearGuard() {
	m.guardActive = false
	for _, addr := range m.sortedTargets() {
		if t := m.targets[addr]; t.missed >= Misses && !t.down {
			m.declare(addr, t)
		}
	}
}

// sortedTargets returns the probe set in address order. Probe and
// declaration order must not depend on map iteration: probe IDs and
// onDown callbacks are assigned in this order, and the determinism
// contract requires identical runs for identical seeds. The slice is
// the monitor's scratch, valid until the next call; neither round nor
// ClearGuard can be re-entered from the callbacks they fire.
func (m *Monitor) sortedTargets() []packet.IPv4 {
	addrs := m.order[:0]
	for addr := range m.targets {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	m.order = addrs
	return addrs
}

// Start begins probing.
func (m *Monitor) Start() {
	m.ticker = m.loop.Every(m.cfg.ProbeInterval, m.round)
}

// Stop halts probing.
func (m *Monitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// round settles the previous probes, applies the guard, declares
// crashes, then sends the next wave.
func (m *Monitor) round() {
	addrs := m.sortedTargets()
	// Settle: any probe still pending is a miss.
	var newlyDead []packet.IPv4
	for _, addr := range addrs {
		t := m.targets[addr]
		if t.pending {
			t.missed++
			t.pending = false
			if t.missed == 1 {
				t.firstMiss = m.loop.Now()
			}
			if t.missed >= Misses && !t.down {
				newlyDead = append(newlyDead, addr)
			}
		}
	}
	// Widespread-failure guard: if most of the fleet looks dead at
	// once, suspend automatic removal (likely a monitoring bug).
	if len(m.targets) > 1 &&
		float64(len(newlyDead)) > guardFraction*float64(len(m.targets)) {
		m.GuardTrips.Add(1)
		m.guardActive = true
		if m.ob != nil {
			m.ob.Event(m.loop.Now(), "mon-guard-trip", 0, 0, "newly_dead=%d targets=%d", len(newlyDead), len(m.targets))
		}
	}
	if !m.guardActive {
		for _, addr := range newlyDead {
			m.declare(addr, m.targets[addr])
		}
	}
	// Probe wave.
	for _, addr := range addrs {
		t := m.targets[addr]
		m.probeID++
		t.pending = true
		t.pendingID = m.probeID
		probe := packet.Get(m.probeID, 0, 0, packet.FiveTuple{
			SrcIP: m.cfg.Addr, DstIP: addr,
			SrcPort: 40000, DstPort: vswitch.ProbePort,
			Proto: packet.ProtoUDP,
		}, packet.DirTX, 0, 0)
		probe.Encap(m.cfg.Addr, addr)
		m.ProbesSent.Add(1)
		m.fab.Send(m.cfg.Addr, addr, probe)
	}
}

// handlePong clears the pending flag for the answering target — but
// only for the probe of the current round. The vSwitch echoes the
// probe's ID in its pong; a late pong from round N-1 arriving after
// round N's wave must not vouch for round N (a target that answered
// once just before dying could otherwise stay "healthy" an extra
// round per queued pong, stretching crash detection past its bound).
// The monitor is the pong's terminal consumer (DESIGN.md §10): it reads
// the source and probe ID, then releases the packet.
func (m *Monitor) handlePong(p *packet.Packet) {
	m.PongsSeen.Add(1)
	addr, id := p.OuterSrc, p.ID
	p.Release()
	t, ok := m.targets[addr]
	if !ok {
		return
	}
	if !t.pending || id != t.pendingID {
		m.StalePongs.Add(1)
		return
	}
	t.pending = false
	t.missed = 0
	t.firstMiss = 0
	if t.down {
		t.down = false
		if m.ob != nil {
			m.ob.Event(m.loop.Now(), "mon-recover", addr, 0, "")
		}
		if m.onUp != nil {
			m.onUp(addr)
		}
	}
}
