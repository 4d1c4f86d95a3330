// Package policy closes the loop from attribution to action: a
// deterministic decision engine that consumes the profiler's windowed
// series (per-vNIC slow-path + session-install cycles, table bytes,
// per-node core utilization), extrapolates each vNIC's relocatable
// load a short horizon ahead, and issues offload / fallback /
// scale-out / scale-in decisions.
//
// The engine is pure decision logic: it holds no references to the
// controller or the cluster, takes one prof.Window per step, and
// returns the decisions as data. Actuation is the Loop's business
// (loop.go), which routes every decision through the controller's
// two-phase transaction machinery — the engine can never bypass the
// prepare/commit protocol, so no-blackhole holds under policy churn
// exactly as it does under operator-driven churn.
//
// Stability comes from three mechanisms, each a config knob:
//
//   - hysteresis bands: offload triggers at OffloadHigh, fallback only
//     below FallbackLow (< OffloadHigh), and a pool scales in only
//     when the desired size undershoots by ScaleInSlack;
//   - sustain counts: a trigger must persist SustainWindows
//     consecutive windows before acting, so one bursty window cannot
//     flip a vNIC;
//   - cooldowns: FlipCooldown spaces offload/fallback transitions of
//     one vNIC, ScaleCooldown spaces pool resizes.
//
// The engine also self-reports thrash: an offload→fallback→offload
// triple for the same (vnic, table) inside one ThrashWindow is
// recorded as a ThrashEvent. With a sane FlipCooldown the triple is
// impossible by construction (two flips are at least two cooldowns
// apart); the chaos harness registers an invariant over this count
// and proves it fires with a deliberately thrash-prone config.
package policy

import (
	"fmt"
	"math"
	"sort"

	"nezha/internal/journal"
	"nezha/internal/nic"
	"nezha/internal/prof"
	"nezha/internal/sim"
)

// Action is a decision kind.
type Action uint8

// Actions.
const (
	ActOffload Action = iota
	ActFallback
	ActScaleOut
	ActScaleIn
)

func (a Action) String() string {
	switch a {
	case ActOffload:
		return "offload"
	case ActFallback:
		return "fallback"
	case ActScaleOut:
		return "scale-out"
	case ActScaleIn:
		return "scale-in"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Decision is one policy output. All fields derive deterministically
// from the drained attribution windows and the engine's own state, so
// two runs that drain identical windows log identical decisions.
type Decision struct {
	Seq    int
	At     sim.Time
	VNIC   uint32
	Table  string
	Action Action
	// Delta is the FE count change for scale actions (positive for
	// scale-out, positive count removed for scale-in).
	Delta int
	// Load / Pred are the current and horizon-extrapolated relocatable
	// load, as a fraction of the relevant capacity (BE capacity for
	// offload/fallback, pool budget for scaling).
	Load float64
	Pred float64
	// Pool is the FE pool size before the decision.
	Pool int
}

// String renders the canonical decision-log line. Every field is
// integer or fixed-precision, so the line is byte-stable across runs
// and schedulers.
func (d Decision) String() string {
	return fmt.Sprintf("#%04d t=%dus vnic=%d %s table=%s delta=%+d load=%.4f pred=%.4f pool=%d",
		d.Seq, int64(d.At/sim.Microsecond), d.VNIC, d.Action, d.Table, d.Delta, d.Load, d.Pred, d.Pool)
}

// ThrashEvent records an offload→fallback→offload triple for one
// (vnic, table) completed within Span ≤ ThrashWindow.
type ThrashEvent struct {
	VNIC  uint32
	Table string
	At    sim.Time
	Span  sim.Time
}

func (t ThrashEvent) String() string {
	return fmt.Sprintf("t=%dus vnic=%d table=%s span=%dus", int64(t.At/sim.Microsecond), t.VNIC, t.Table, int64(t.Span/sim.Microsecond))
}

// Config tunes the decision engine.
type Config struct {
	// Interval is the decision cadence the Loop runs Step at.
	Interval sim.Time
	// Windows is how many past windows feed the trend fit.
	Windows int
	// Horizon is how far ahead the linear trend is extrapolated.
	Horizon sim.Time

	// BECapacityHz is the home vSwitch's relocatable-cycle budget:
	// offload/fallback compare the vNIC's relocatable cycles/s against
	// it. FECapacityHz is one FE's absorb capacity; the desired pool
	// is ceil(load / (FECapacityHz · TargetUtil)).
	BECapacityHz float64
	FECapacityHz float64
	TargetUtil   float64

	// OffloadHigh / FallbackLow are the hysteresis band edges, as
	// fractions of BECapacityHz.
	OffloadHigh float64
	FallbackLow float64

	// MinFEs / MaxFEs clamp the desired pool size.
	MinFEs int
	MaxFEs int
	// ScaleInSlack is the scale-in hysteresis: shrink only when the
	// desired size is below pool − ScaleInSlack.
	ScaleInSlack int
	// ScaleInUtilBar blocks scale-in while the pool's mean FE core
	// utilization is above it (live mode only; dry runs have no view).
	ScaleInUtilBar float64

	// SustainWindows is how many consecutive windows a band crossing
	// must persist before the engine acts on it.
	SustainWindows int
	// FlipCooldown spaces offload/fallback transitions per vNIC;
	// ScaleCooldown spaces pool resizes per vNIC.
	FlipCooldown  sim.Time
	ScaleCooldown sim.Time
	// ThrashWindow is the judging window for the thrash self-report
	// (default: FlipCooldown). It is a separate knob so a negative
	// control can zero the cooldown while keeping the judge armed.
	ThrashWindow sim.Time
}

// fill normalizes zero values so configs built field-by-field work.
func (cfg *Config) fill() {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * sim.Millisecond
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 6
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2 * cfg.Interval
	}
	if cfg.BECapacityHz <= 0 {
		cfg.BECapacityHz = float64(nic.DefaultCores) * float64(nic.DefaultCoreHz)
	}
	if cfg.FECapacityHz <= 0 {
		cfg.FECapacityHz = cfg.BECapacityHz
	}
	if cfg.TargetUtil <= 0 {
		cfg.TargetUtil = 0.40
	}
	if cfg.OffloadHigh <= 0 {
		cfg.OffloadHigh = 0.70
	}
	if cfg.FallbackLow <= 0 {
		cfg.FallbackLow = 0.15
	}
	if cfg.MinFEs <= 0 {
		cfg.MinFEs = 4
	}
	if cfg.MaxFEs <= 0 {
		cfg.MaxFEs = 16
	}
	if cfg.MaxFEs < cfg.MinFEs {
		cfg.MaxFEs = cfg.MinFEs
	}
	if cfg.ScaleInUtilBar <= 0 {
		cfg.ScaleInUtilBar = 0.60
	}
	if cfg.SustainWindows <= 0 {
		cfg.SustainWindows = 2
	}
	if cfg.ThrashWindow <= 0 {
		cfg.ThrashWindow = cfg.FlipCooldown
	}
	// FlipCooldown and ScaleCooldown may legitimately be zero (the
	// thrash-prone negative control); no normalization.
}

// View is the engine's read-only window into actuated state. A nil
// view puts the engine in dry-run mode: it tracks a virtual pool of
// its own, applying each decision to that model immediately.
type View interface {
	// Offloaded reports whether the vNIC currently runs on an FE pool.
	Offloaded(vnic uint32) bool
	// PoolSize is the vNIC's current FE count (0 when not offloaded).
	PoolSize(vnic uint32) int
	// PoolNodes names the pool's FE nodes (prof node names), for the
	// scale-in utilization bar.
	PoolNodes(vnic uint32) []string
}

// point is one (time, cycles/sec) observation.
type point struct {
	t    sim.Time
	load float64
}

// flip records one offload/fallback transition.
type flip struct {
	at sim.Time
	to Action
}

// track is the engine's per-vNIC state.
type track struct {
	node  string
	table string
	hist  []point

	// Virtual pool model (authoritative in dry-run mode; synced from
	// the View each step in live mode).
	offloaded bool
	pool      int

	hotRuns  int
	coldRuns int

	lastFlip  sim.Time
	flipped   bool
	flips     []flip // last 3, for thrash judging
	lastScale sim.Time
	scaled    bool
}

// Engine is the decision core. Not safe for concurrent use; Step runs
// on the sim goroutine.
type Engine struct {
	cfg    Config
	tracks map[uint32]*track
	order  []uint32

	seq       int
	decisions []Decision
	log       []string
	thrash    []ThrashEvent
}

// New builds an engine.
func New(cfg Config) *Engine {
	cfg.fill()
	return &Engine{cfg: cfg, tracks: make(map[uint32]*track)}
}

// Decisions returns every decision issued, in order.
func (e *Engine) Decisions() []Decision { return e.decisions }

// Log returns the canonical decision-log lines, one per decision.
func (e *Engine) Log() []string { return e.log }

// ThrashEvents returns the self-reported offload→fallback→offload
// triples (empty under a sane cooldown).
func (e *Engine) ThrashEvents() []ThrashEvent { return e.thrash }

// Export emits one KindPolicy record per tracked vNIC — the cooldown
// and virtual-pool state a recovered controller needs to resume
// hysteresis where the dead incarnation left off. Registered as a
// journal compactor by Loop.SetJournal.
func (e *Engine) Export() []journal.Record {
	out := make([]journal.Record, 0, len(e.order))
	for _, vnic := range e.order {
		if r, ok := e.exportVNIC(vnic); ok {
			out = append(out, r)
		}
	}
	return out
}

func (e *Engine) exportVNIC(vnic uint32) (journal.Record, bool) {
	tr := e.tracks[vnic]
	if tr == nil {
		return journal.Record{}, false
	}
	return journal.Record{
		Kind: journal.KindPolicy, VNIC: vnic,
		Offloaded: tr.offloaded, Pool: tr.pool,
		LastFlip: int64(tr.lastFlip), Flipped: tr.flipped,
		LastScale: int64(tr.lastScale), Scaled: tr.scaled,
	}, true
}

// Restore rehydrates cooldown state from replayed journal records
// (non-policy kinds are skipped). Load history, sustain runs, and the
// thrash judge's flip triple reset — a recovered engine re-observes
// load before acting — but flip and scale cooldown stamps survive, so
// recovery can never cause a flip the dead engine's cooldowns would
// have suppressed.
func (e *Engine) Restore(recs []journal.Record) {
	for _, tr := range e.tracks {
		tr.hist = nil
		tr.hotRuns, tr.coldRuns = 0, 0
		tr.flips = nil
	}
	for _, r := range recs {
		if r.Kind != journal.KindPolicy {
			continue
		}
		tr := e.tracks[r.VNIC]
		if tr == nil {
			tr = &track{table: "rule-table"}
			e.tracks[r.VNIC] = tr
			e.order = append(e.order, r.VNIC)
			sort.Slice(e.order, func(i, j int) bool { return e.order[i] < e.order[j] })
		}
		tr.offloaded = r.Offloaded
		tr.pool = r.Pool
		tr.lastFlip, tr.flipped = sim.Time(r.LastFlip), r.Flipped
		tr.lastScale, tr.scaled = sim.Time(r.LastScale), r.Scaled
	}
}

// trend fits least-squares cycles/sec over the history and evaluates
// the fit at (latest + horizon). With fewer than two points it
// returns the latest observation.
func trend(hist []point, horizon sim.Time) float64 {
	n := len(hist)
	if n == 0 {
		return 0
	}
	last := hist[n-1]
	if n == 1 {
		return last.load
	}
	// Center times on the latest observation (seconds) for numeric
	// stability; evaluate at +horizon.
	var sx, sy, sxx, sxy float64
	for _, p := range hist {
		x := (p.t - last.t).Seconds()
		sx += x
		sy += p.load
		sxx += x * x
		sxy += x * p.load
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return last.load
	}
	slope := (fn*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / fn
	pred := intercept + slope*horizon.Seconds()
	if pred < 0 {
		pred = 0
	}
	return pred
}

// desiredPool sizes a pool for the predicted load: enough FEs that
// each runs at TargetUtil of its capacity, clamped to [MinFEs, MaxFEs].
func (e *Engine) desiredPool(pred float64) int {
	budget := e.cfg.FECapacityHz * e.cfg.TargetUtil
	d := int(math.Ceil(pred / budget))
	if d < e.cfg.MinFEs {
		d = e.cfg.MinFEs
	}
	if d > e.cfg.MaxFEs {
		d = e.cfg.MaxFEs
	}
	return d
}

func (e *Engine) emit(d Decision) Decision {
	e.seq++
	d.Seq = e.seq
	e.decisions = append(e.decisions, d)
	e.log = append(e.log, d.String())
	return d
}

// noteFlip records an offload/fallback transition and judges thrash:
// three flips on one track always alternate direction, so a triple
// ending in ActOffload inside ThrashWindow is exactly the
// offload→fallback→offload pattern.
func (e *Engine) noteFlip(vnic uint32, tr *track, now sim.Time, to Action) {
	tr.lastFlip, tr.flipped = now, true
	tr.flips = append(tr.flips, flip{at: now, to: to})
	if len(tr.flips) > 3 {
		tr.flips = tr.flips[len(tr.flips)-3:]
	}
	if e.cfg.ThrashWindow <= 0 || len(tr.flips) < 3 {
		return
	}
	first, last := tr.flips[0], tr.flips[2]
	if last.to == ActOffload && first.to == ActOffload && last.at-first.at <= e.cfg.ThrashWindow {
		e.thrash = append(e.thrash, ThrashEvent{
			VNIC: vnic, Table: tr.table, At: now, Span: last.at - first.at,
		})
	}
}

// Step consumes one drained window and returns the decisions for it.
// view == nil runs the engine against its virtual pool model (dry
// run); otherwise actuated state is re-synced from the view first, so
// external churn (failover shrinking a pool, repair growing it) is
// folded in before deciding.
func (e *Engine) Step(now sim.Time, w prof.Window, view View) []Decision {
	dt := (w.T1 - w.T0).Seconds()
	if dt <= 0 {
		return nil
	}
	// Fold the window into per-vNIC load points. Roles are summed:
	// before offload the relocatable work is charged at the BE
	// (RoleLocal), after offload the slow path runs at the FEs
	// (RoleFE) — the sum is the continuous "what this vNIC costs"
	// signal across transitions.
	type obsLoad struct {
		node       string
		ruleCycles uint64
		sessCycles uint64
	}
	seen := make(map[uint32]*obsLoad)
	for _, v := range w.VNICs {
		o := seen[v.VNIC]
		if o == nil {
			o = &obsLoad{node: v.Node}
			seen[v.VNIC] = o
		}
		if v.Role == prof.RoleLocal {
			o.node = v.Node // the home node names the track
		}
		o.ruleCycles += v.RuleCycles
		o.sessCycles += v.SessCycles
	}
	for vnic, o := range seen {
		tr := e.tracks[vnic]
		if tr == nil {
			tr = &track{node: o.node, table: "rule-table"}
			e.tracks[vnic] = tr
			e.order = append(e.order, vnic)
			sort.Slice(e.order, func(i, j int) bool { return e.order[i] < e.order[j] })
		}
		if o.sessCycles > o.ruleCycles {
			tr.table = "session-table"
		} else {
			tr.table = "rule-table"
		}
		tr.hist = append(tr.hist, point{t: now, load: float64(o.ruleCycles+o.sessCycles) / dt})
		if len(tr.hist) > e.cfg.Windows {
			tr.hist = tr.hist[len(tr.hist)-e.cfg.Windows:]
		}
	}
	// Tracked vNICs absent from this window decay toward zero load.
	for _, vnic := range e.order {
		if _, ok := seen[vnic]; ok {
			continue
		}
		tr := e.tracks[vnic]
		tr.hist = append(tr.hist, point{t: now, load: 0})
		if len(tr.hist) > e.cfg.Windows {
			tr.hist = tr.hist[len(tr.hist)-e.cfg.Windows:]
		}
	}

	poolUtil := func(vnic uint32) float64 {
		if view == nil {
			return -1
		}
		nodes := view.PoolNodes(vnic)
		if len(nodes) == 0 {
			return -1
		}
		var sum float64
		var n int
		for _, name := range nodes {
			for _, ns := range w.Nodes {
				if ns.Node == name {
					sum += ns.Util
					n++
					break
				}
			}
		}
		if n == 0 {
			return -1
		}
		return sum / float64(n)
	}

	var out []Decision
	for _, vnic := range e.order {
		tr := e.tracks[vnic]
		if view != nil {
			tr.offloaded = view.Offloaded(vnic)
			tr.pool = view.PoolSize(vnic)
		}
		cur := tr.hist[len(tr.hist)-1].load
		pred := trend(tr.hist, e.cfg.Horizon)
		load := cur / e.cfg.BECapacityHz
		predU := pred / e.cfg.BECapacityHz

		flipOK := !tr.flipped || now-tr.lastFlip >= e.cfg.FlipCooldown
		scaleOK := !tr.scaled || now-tr.lastScale >= e.cfg.ScaleCooldown

		if !tr.offloaded {
			if predU >= e.cfg.OffloadHigh {
				tr.hotRuns++
			} else {
				tr.hotRuns = 0
			}
			if tr.hotRuns >= e.cfg.SustainWindows && flipOK {
				d := e.emit(Decision{
					At: now, VNIC: vnic, Table: tr.table, Action: ActOffload,
					Delta: e.desiredPool(pred), Load: load, Pred: predU, Pool: tr.pool,
				})
				out = append(out, d)
				e.noteFlip(vnic, tr, now, ActOffload)
				tr.hotRuns, tr.coldRuns = 0, 0
				if view == nil {
					tr.offloaded, tr.pool = true, d.Delta
				}
			}
			continue
		}

		// Offloaded: fallback has priority over resizing.
		if predU <= e.cfg.FallbackLow {
			tr.coldRuns++
		} else {
			tr.coldRuns = 0
		}
		if tr.coldRuns >= e.cfg.SustainWindows && flipOK {
			d := e.emit(Decision{
				At: now, VNIC: vnic, Table: tr.table, Action: ActFallback,
				Delta: -tr.pool, Load: load, Pred: predU, Pool: tr.pool,
			})
			out = append(out, d)
			e.noteFlip(vnic, tr, now, ActFallback)
			tr.hotRuns, tr.coldRuns = 0, 0
			if view == nil {
				tr.offloaded, tr.pool = false, 0
			}
			continue
		}
		desired := e.desiredPool(pred)
		switch {
		case desired > tr.pool && tr.pool > 0 && scaleOK:
			d := e.emit(Decision{
				At: now, VNIC: vnic, Table: tr.table, Action: ActScaleOut,
				Delta: desired - tr.pool, Load: load, Pred: predU, Pool: tr.pool,
			})
			out = append(out, d)
			tr.lastScale, tr.scaled = now, true
			if view == nil {
				tr.pool = desired
			}
		case desired < tr.pool-e.cfg.ScaleInSlack && scaleOK:
			if u := poolUtil(vnic); u >= 0 && u > e.cfg.ScaleInUtilBar {
				break // pool still hot despite the prediction: hold
			}
			d := e.emit(Decision{
				At: now, VNIC: vnic, Table: tr.table, Action: ActScaleIn,
				Delta: tr.pool - desired, Load: load, Pred: predU, Pool: tr.pool,
			})
			out = append(out, d)
			tr.lastScale, tr.scaled = now, true
			if view == nil {
				tr.pool = desired
			}
		}
	}
	return out
}
