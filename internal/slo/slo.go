package slo

import (
	"slices"

	"nezha/internal/packet"
)

// Defaults applied by NewTracker for zero Config fields.
const (
	// DefaultObjective is the per-vNIC p99 latency objective:
	// deliveries slower than this (and all drops) are SLO violations.
	DefaultObjective = 100_000_000 // 100ms in virtual ns

	// DefaultBurnWindow is the burn-rate evaluation window.
	DefaultBurnWindow = 1_000_000_000 // 1 virtual second

	// DefaultBurnThreshold: with a p99 objective the error budget is
	// 1% of packets; burn = violating-fraction / budget, so burn 1.0
	// means exactly on budget and 2.0 means burning it twice as fast.
	DefaultBurnThreshold = 2.0

	// DefaultDecayEvery halves the heavy-hitter sketch every 10
	// virtual seconds.
	DefaultDecayEvery = 10_000_000_000

	// topK heavy hitters are reported per view.
	topK = 10
)

const (
	numPaths = int(packet.NumPaths)
	numDirs  = 2
	// maxCauses bounds the per-drop-cause counters; causes fold
	// modulo this (internal/vswitch has far fewer DropReasons).
	maxCauses = 16
)

// BurnEvent describes one window in which a vNIC burned its error
// budget past the threshold.
type BurnEvent struct {
	VNIC        uint32
	Burn        float64 // violating-fraction / 1% budget over the window
	Consecutive int     // how many windows in a row, this one included
	Window      uint64  // packets observed in the window
	Violations  uint64  // violations in the window
}

// Config parameterizes a Tracker. The zero value gets the Default*
// constants above.
type Config struct {
	// Objective is the latency objective in virtual nanoseconds:
	// deliveries above it count against the 1% error budget.
	Objective int64
	// BurnWindow is the burn evaluation period in virtual ns.
	BurnWindow int64
	// BurnThreshold is the burn rate at or above which a window is
	// "burning" and OnBurn fires.
	BurnThreshold float64
	// DecayEvery is the sketch halving period in virtual ns (<0
	// disables decay; 0 means default).
	DecayEvery int64
	// OnBurn, when set, is invoked synchronously from the record path
	// whenever a window closes burning. It must not mutate simulation
	// state (flight-recorder events are the intended sink).
	OnBurn func(now int64, ev BurnEvent)
}

// vnicLedger is one vNIC's latency account: a histogram per
// (path, dir), violation counters, drop causes, and the burn window
// cursor. ~24 KB, allocated once on the vNIC's first packet.
type vnicLedger struct {
	hists [numPaths][numDirs]Hist

	total uint64 // deliveries + drops
	viol  uint64 // deliveries over objective + drops
	drops [maxCauses]uint64
	dropN uint64

	// Burn window state: counters snapshotted at the last window
	// close, plus the streak.
	prevTotal uint64
	prevViol  uint64
	burn      float64
	burning   int
	burnPeak  int
}

// Tracker is the per-process SLO account: one ledger per vNIC plus
// one shared heavy-hitter sketch. Single-goroutine (the sim loop);
// record methods are alloc-free after a vNIC's first packet.
type Tracker struct {
	cfg    Config
	ledger map[uint32]*vnicLedger

	// Single-entry memo: bursts hit the same vNIC repeatedly, so the
	// common case skips the map.
	lastVNIC uint32
	lastLed  *vnicLedger

	sketch Sketch

	windowEnd  int64
	burnEvents uint64
	order      []uint32 // vNIC-order scratch; nil while evaluate runs

	causeNames []string
}

// NewTracker builds a tracker, applying defaults for zero fields.
func NewTracker(cfg Config) *Tracker {
	if cfg.Objective <= 0 {
		cfg.Objective = DefaultObjective
	}
	if cfg.BurnWindow <= 0 {
		cfg.BurnWindow = DefaultBurnWindow
	}
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = DefaultBurnThreshold
	}
	if cfg.DecayEvery == 0 {
		cfg.DecayEvery = DefaultDecayEvery
	}
	t := &Tracker{cfg: cfg, ledger: make(map[uint32]*vnicLedger)}
	if cfg.DecayEvery > 0 {
		t.sketch.SetDecay(cfg.DecayEvery)
	}
	return t
}

// Objective returns the configured latency objective (virtual ns).
func (t *Tracker) Objective() int64 { return t.cfg.Objective }

// SetCauseNames installs drop-cause names for views (index = cause
// code). Kept as strings to avoid importing the datapath package.
func (t *Tracker) SetCauseNames(names []string) { t.causeNames = names }

func (t *Tracker) led(vnic uint32) *vnicLedger {
	if t.lastLed != nil && t.lastVNIC == vnic {
		return t.lastLed
	}
	l := t.ledger[vnic]
	if l == nil {
		l = &vnicLedger{}
		t.ledger[vnic] = l
	}
	t.lastVNIC, t.lastLed = vnic, l
	return l
}

// RecordDeliver accounts one delivered packet: latency into the
// (path, dir) histogram, objective check, and a heavy-hitter
// observation keyed by the packet's memoized session-key hash.
func (t *Tracker) RecordDeliver(now int64, vnic uint32, path packet.PathKind, dir packet.Direction, lat int64, hash uint64, key packet.SessionKey, bytes int) {
	if vnic == 0 {
		// vNIC 0 is the infrastructure pseudo-vNIC (monitor probes,
		// control traffic) — no tenant SLO applies.
		return
	}
	if lat < 0 {
		lat = 0
	}
	p, d := int(path), int(dir)
	if p >= numPaths {
		p = 0
	}
	if d >= numDirs {
		d = 0
	}
	l := t.led(vnic)
	l.hists[p][d].Observe(uint64(lat))
	l.total++
	if lat > t.cfg.Objective {
		l.viol++
	}
	t.sketch.Observe(now, hash, key, uint64(bytes))
	t.maybeEvaluate(now)
}

// RecordDrop accounts one dropped packet as an SLO violation with its
// cause.
func (t *Tracker) RecordDrop(now int64, vnic uint32, cause uint8) {
	if vnic == 0 {
		// Infrastructure pseudo-vNIC; see RecordDeliver. Probe pongs to
		// a partitioned peer drop here constantly — a 100%-violation
		// "SLO" on traffic no tenant owns.
		return
	}
	l := t.led(vnic)
	l.total++
	l.viol++
	l.drops[int(cause)&(maxCauses-1)]++
	l.dropN++
	t.maybeEvaluate(now)
}

// maybeEvaluate closes burn windows lazily off the record path — no
// scheduled events, so the evaluator is invisible to the event loop
// and to campaign digests.
func (t *Tracker) maybeEvaluate(now int64) {
	if t.windowEnd == 0 {
		t.windowEnd = now + t.cfg.BurnWindow
		return
	}
	if now < t.windowEnd {
		return
	}
	t.evaluate(now)
	// Re-anchor rather than tick through idle windows: a gap with no
	// packets has no violations to report.
	t.windowEnd = now + t.cfg.BurnWindow
}

func (t *Tracker) evaluate(now int64) {
	// Deterministic order so OnBurn event streams are reproducible. The
	// walk borrows the tracker's scratch slice; an evaluation that
	// OnBurn re-enters sorts into one of its own.
	vnics := t.vnicsInto(t.order)
	t.order = nil
	for _, vnic := range vnics {
		l := t.ledger[vnic]
		total := l.total - l.prevTotal
		viol := l.viol - l.prevViol
		l.prevTotal, l.prevViol = l.total, l.viol
		if total == 0 {
			l.burn = 0
			l.burning = 0
			continue
		}
		// p99 objective → 1% error budget; burn = violFrac / budget.
		l.burn = (float64(viol) / float64(total)) / 0.01
		if l.burn >= t.cfg.BurnThreshold {
			l.burning++
			if l.burning > l.burnPeak {
				l.burnPeak = l.burning
			}
			t.burnEvents++
			if t.cfg.OnBurn != nil {
				t.cfg.OnBurn(now, BurnEvent{
					VNIC:        vnic,
					Burn:        l.burn,
					Consecutive: l.burning,
					Window:      total,
					Violations:  viol,
				})
			}
		} else {
			l.burning = 0
		}
	}
	t.order = vnics
}

// vnicsInto returns the tracked vNICs in ascending order, written over
// buf's storage.
func (t *Tracker) vnicsInto(buf []uint32) []uint32 {
	buf = buf[:0]
	for v := range t.ledger {
		buf = append(buf, v)
	}
	slices.Sort(buf)
	return buf
}

// BurnEvents returns how many burning windows have closed in total.
func (t *Tracker) BurnEvents() uint64 { return t.burnEvents }

// BurningAtLeast returns the lowest-id vNIC that has been burning for
// at least limit consecutive windows as of the last closed window, and
// that streak; ok is false when none has. It allocates nothing, so an
// invariant sweep can ask it on every check.
func (t *Tracker) BurningAtLeast(limit int) (vnic uint32, streak int, ok bool) {
	for v, l := range t.ledger {
		if l.burning >= limit && (!ok || v < vnic) {
			vnic, streak, ok = v, l.burning, true
		}
	}
	return vnic, streak, ok
}

// aggregate folds every (path, dir) histogram of l into one bucket
// array and returns the total count.
func (l *vnicLedger) aggregate(out *[NumBuckets]uint64) uint64 {
	var n uint64
	for p := 0; p < numPaths; p++ {
		for d := 0; d < numDirs; d++ {
			n += l.hists[p][d].AddTo(out)
		}
	}
	return n
}

func (l *vnicLedger) p99() uint64 {
	var agg [NumBuckets]uint64
	n := l.aggregate(&agg)
	return QuantileOf(&agg, n, 0.99)
}

// Worst returns the vNIC with the highest cumulative p99 latency (ok
// = false when nothing was recorded). Ties break to the lowest vNIC.
func (t *Tracker) Worst() (vnic uint32, p99 uint64, ok bool) {
	t.order = t.vnicsInto(t.order)
	for _, v := range t.order {
		if q := t.ledger[v].p99(); !ok || q > p99 {
			vnic, p99, ok = v, q, true
		}
	}
	return vnic, p99, ok
}

// --- views -----------------------------------------------------------

// PathView is one (path, dir) histogram summary.
type PathView struct {
	Path  string `json:"path"`
	Dir   string `json:"dir"`
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50_ns"`
	P99   uint64 `json:"p99_ns"`
	Max   uint64 `json:"max_ns"`
}

// VNICView is one vNIC's SLO summary.
type VNICView struct {
	VNIC       uint32            `json:"vnic"`
	Total      uint64            `json:"total"`
	Violations uint64            `json:"violations"`
	Drops      uint64            `json:"drops"`
	DropCauses map[string]uint64 `json:"drop_causes,omitempty"`
	P99        uint64            `json:"p99_ns"`
	Burn       float64           `json:"burn"`
	Burning    int               `json:"burning_windows"`
	Paths      []PathView        `json:"paths,omitempty"`
}

// View is the JSON-serializable SLO snapshot embedded in
// obs.Snapshot and served at /api/v1/slo.
type View struct {
	ObjectiveNS int64      `json:"objective_ns"`
	BurnEvents  uint64     `json:"burn_events"`
	VNICs       []VNICView `json:"vnics"`
	HotFlows    []HotFlow  `json:"hot_flows,omitempty"`
}

var dirNames = [numDirs]string{"tx", "rx"}

// View builds a snapshot view with the tracker's configured top-K.
// Snapshot-path only — it allocates.
func (t *Tracker) View() *View {
	v := &View{
		ObjectiveNS: t.cfg.Objective,
		BurnEvents:  t.burnEvents,
		HotFlows:    t.sketch.Top(topK),
	}
	t.order = t.vnicsInto(t.order)
	for _, vnic := range t.order {
		l := t.ledger[vnic]
		vv := VNICView{
			VNIC:       vnic,
			Total:      l.total,
			Violations: l.viol,
			Drops:      l.dropN,
			P99:        l.p99(),
			Burn:       l.burn,
			Burning:    l.burning,
		}
		if l.dropN > 0 {
			vv.DropCauses = make(map[string]uint64)
			for c, n := range l.drops {
				if n == 0 {
					continue
				}
				vv.DropCauses[t.causeName(c)] = n
			}
		}
		for p := 0; p < numPaths; p++ {
			for d := 0; d < numDirs; d++ {
				h := &l.hists[p][d]
				if h.Count() == 0 {
					continue
				}
				vv.Paths = append(vv.Paths, PathView{
					Path:  packet.PathKind(p).String(),
					Dir:   dirNames[d],
					Count: h.Count(),
					P50:   h.Quantile(0.50),
					P99:   h.Quantile(0.99),
					Max:   h.Max(),
				})
			}
		}
		v.VNICs = append(v.VNICs, vv)
	}
	return v
}

func (t *Tracker) causeName(c int) string {
	if c < len(t.causeNames) && t.causeNames[c] != "" {
		return t.causeNames[c]
	}
	return "cause-" + itoa(c)
}

// itoa avoids strconv for one tiny snapshot-path use.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 && i > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Ledger accessors for exporters and tests.

// VNICs returns the tracked vNICs in ascending order.
func (t *Tracker) VNICs() []uint32 { return t.vnicsInto(make([]uint32, 0, len(t.ledger))) }

// VNICStats returns cumulative (total, violations, drops, p99, burn)
// for one vNIC.
func (t *Tracker) VNICStats(vnic uint32) (total, viol, drops, p99 uint64, burn float64) {
	l := t.ledger[vnic]
	if l == nil {
		return 0, 0, 0, 0, 0
	}
	return l.total, l.viol, l.dropN, l.p99(), l.burn
}
