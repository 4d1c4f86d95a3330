// Package policy is the opt-in offload decision engine: it extrapolates
// each vNIC's relocatable load (slow-path + session-install cycles) a
// short horizon ahead and issues offload / fallback / scale-out /
// scale-in decisions.
//
// The engine is pure decision logic: it holds no references to the
// controller or the cluster, takes one set of per-vNIC loads per step,
// and returns the decisions as data. The controller steps it inside its
// own tick, reading the loads from each vSwitch's work ledger, and runs
// every decision through the same two-phase transactions an operator
// request takes — the engine can never bypass the prepare/commit
// protocol, so no-blackhole holds under policy churn exactly as it does
// under operator-driven churn.
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
	"slices"

	"nezha/internal/journal"
	"nezha/internal/nic"
	"nezha/internal/obs"
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
// from the loads and the engine's own state, so two runs that feed
// identical loads log identical decisions.
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
	if cfg.Windows <= 0 {
		cfg.Windows = 6
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = sim.Second
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

// Load is one vNIC's input to a step. Rule and Sess are cumulative:
// the slow-path and session-install cycles every node's ledger has
// charged the vNIC under its local and FE roles — the work an offload
// moves. Summing both roles keeps the signal continuous across offload
// transitions; the engine differences it against the previous step.
// The pool fields describe actuated state and are read in live mode
// only.
type Load struct {
	VNIC       uint32
	Rule, Sess uint64

	Offloaded bool
	Pool      int
	// PoolUtil is the pool's mean FE CPU utilization, negative when
	// unknown; it gates scale-in (ScaleInUtilBar).
	PoolUtil float64
}

// Stats counts the engine's steps and what became of its decisions:
// the controller counts a decision applied when the request it names
// was accepted, rejected otherwise (a transaction in flight, no idle
// FE, …). A rejected decision is not retried; the next step decides
// afresh.
type Stats struct {
	Steps    uint64
	Applied  uint64
	Rejected uint64
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
	// rule, sess are the cumulative counters the next step differences
	// against.
	rule, sess uint64
	hist       []point

	// Virtual pool model (authoritative in dry-run mode; synced from
	// the loads each step in live mode).
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
	// at is the previous step's (or rebase's) time: the window start.
	at sim.Time

	seq       int
	decisions []Decision
	log       []string
	thrash    []ThrashEvent

	Stats Stats
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

// LastLoad reports the relocatable cycles/s the latest step observed
// for vnic (0 when it has none).
func (e *Engine) LastLoad(vnic uint32) float64 {
	if tr := e.tracks[vnic]; tr != nil && len(tr.hist) > 0 {
		return tr.hist[len(tr.hist)-1].load
	}
	return 0
}

// EnableObs publishes the engine's policy_* series into the bundle's
// registry: decisions per action, thrash events, steps and rejected
// decisions.
func (e *Engine) EnableObs(ob *obs.Obs) {
	if ob != nil && ob.Reg != nil {
		obs.Register(ob.Reg, e, nil, &engineTable)
	}
}

var engineTable = obs.Table[Engine]{Series: []obs.Series[Engine]{
	decisions(ActOffload), decisions(ActFallback), decisions(ActScaleOut), decisions(ActScaleIn),
	{Name: "policy_thrash_total", Help: "Self-reported offload/fallback thrash events.", Kind: obs.KindCounter,
		Value: func(e *Engine) float64 { return float64(len(e.thrash)) }},
	{Name: "policy_steps_total", Help: "Policy engine steps executed.", Kind: obs.KindCounter,
		Value: func(e *Engine) float64 { return float64(e.Stats.Steps) }},
	{Name: "policy_rejected_total", Help: "Decisions the controller rejected.", Kind: obs.KindCounter,
		Value: func(e *Engine) float64 { return float64(e.Stats.Rejected) }},
}}

// decisions is the policy_decisions_total row of action a.
func decisions(a Action) obs.Series[Engine] {
	return obs.Series[Engine]{
		Name: "policy_decisions_total", Help: "Policy decisions applied, by action.", Kind: obs.KindCounter,
		Labels: obs.L("action", a.String()),
		Value: func(e *Engine) float64 {
			var n uint64
			for _, d := range e.decisions {
				if d.Action == a {
					n++
				}
			}
			return float64(n)
		},
	}
}

// Export emits one KindPolicy record per tracked vNIC, ascending: the
// controller's journal compactor appends them to its own state.
func (e *Engine) Export() []journal.Record {
	ids := make([]uint32, 0, len(e.tracks))
	for id := range e.tracks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]journal.Record, 0, len(ids))
	for _, id := range ids {
		r, _ := e.Record(id)
		out = append(out, r)
	}
	return out
}

// Record is vnic's KindPolicy record — the cooldown and virtual-pool
// state a recovered controller needs to resume hysteresis where the
// dead incarnation left off. ok is false for an untracked vNIC.
func (e *Engine) Record(vnic uint32) (r journal.Record, ok bool) {
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

// Forget drops every track, as a controller crash loses them. The
// decision log, the thrash record and Stats are telemetry and stay.
func (e *Engine) Forget() {
	clear(e.tracks)
	e.at = 0
}

// Restore folds one replayed KindPolicy record back in. Load history,
// sustain runs and the thrash judge's flip triple start empty — a
// recovered engine re-observes load before acting — but flip and scale
// cooldown stamps survive, so recovery can never cause a flip the dead
// engine's cooldowns would have suppressed.
func (e *Engine) Restore(r *journal.Record) {
	tr := e.track(r.VNIC)
	tr.offloaded = r.Offloaded
	tr.pool = r.Pool
	tr.lastFlip, tr.flipped = sim.Time(r.LastFlip), r.Flipped
	tr.lastScale, tr.scaled = sim.Time(r.LastScale), r.Scaled
}

// Rebase makes now the start of the next step's window, with loads'
// counters as its baselines: a recovered controller calls it so its
// first step does not read the whole pre-crash history as one window.
func (e *Engine) Rebase(now sim.Time, loads []Load) {
	for _, l := range loads {
		tr := e.track(l.VNIC)
		tr.rule, tr.sess = l.Rule, l.Sess
	}
	e.at = now
}

// track returns vnic's track, creating it on first sight.
func (e *Engine) track(vnic uint32) *track {
	tr := e.tracks[vnic]
	if tr == nil {
		tr = &track{}
		e.tracks[vnic] = tr
	}
	return tr
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
func (e *Engine) noteFlip(vnic uint32, table string, tr *track, now sim.Time, to Action) {
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
			VNIC: vnic, Table: table, At: now, Span: last.at - first.at,
		})
	}
}

// Step closes the window since the previous step (or Rebase) and
// returns the decisions for it, in the order of loads. Live mode takes
// each vNIC's pool from its Load, so external churn (failover
// shrinking a pool, repair growing it) is folded in before deciding;
// a dry run (live false) applies each decision to the engine's own
// virtual pool model instead.
func (e *Engine) Step(now sim.Time, loads []Load, live bool) []Decision {
	dt := (now - e.at).Seconds()
	if dt <= 0 {
		return nil
	}
	e.at = now
	e.Stats.Steps++
	var out []Decision
	for _, l := range loads {
		tr := e.track(l.VNIC)
		rule, sess := l.Rule-tr.rule, l.Sess-tr.sess
		tr.rule, tr.sess = l.Rule, l.Sess
		table := "rule-table"
		if sess > rule {
			table = "session-table"
		}
		tr.hist = append(tr.hist, point{t: now, load: float64(rule+sess) / dt})
		if len(tr.hist) > e.cfg.Windows {
			tr.hist = tr.hist[len(tr.hist)-e.cfg.Windows:]
		}
		poolUtil := -1.0
		if live {
			tr.offloaded, tr.pool, poolUtil = l.Offloaded, l.Pool, l.PoolUtil
		}
		cur := tr.hist[len(tr.hist)-1].load
		pred := trend(tr.hist, e.cfg.Horizon)
		load := cur / e.cfg.BECapacityHz
		predU := pred / e.cfg.BECapacityHz

		flipOK := !tr.flipped || now-tr.lastFlip >= e.cfg.FlipCooldown
		scaleOK := !tr.scaled || now-tr.lastScale >= e.cfg.ScaleCooldown
		decide := func(a Action, delta int) Decision {
			d := e.emit(Decision{
				At: now, VNIC: l.VNIC, Table: table, Action: a,
				Delta: delta, Load: load, Pred: predU, Pool: tr.pool,
			})
			out = append(out, d)
			return d
		}

		if !tr.offloaded {
			if predU >= e.cfg.OffloadHigh {
				tr.hotRuns++
			} else {
				tr.hotRuns = 0
			}
			if tr.hotRuns >= e.cfg.SustainWindows && flipOK {
				d := decide(ActOffload, e.desiredPool(pred))
				e.noteFlip(l.VNIC, table, tr, now, ActOffload)
				tr.hotRuns, tr.coldRuns = 0, 0
				if !live {
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
			decide(ActFallback, -tr.pool)
			e.noteFlip(l.VNIC, table, tr, now, ActFallback)
			tr.hotRuns, tr.coldRuns = 0, 0
			if !live {
				tr.offloaded, tr.pool = false, 0
			}
			continue
		}
		desired := e.desiredPool(pred)
		switch {
		case desired > tr.pool && tr.pool > 0 && scaleOK:
			decide(ActScaleOut, desired-tr.pool)
		case desired < tr.pool-e.cfg.ScaleInSlack && scaleOK:
			if poolUtil > e.cfg.ScaleInUtilBar {
				continue // pool still hot despite the prediction: hold
			}
			decide(ActScaleIn, tr.pool-desired)
		default:
			continue
		}
		tr.lastScale, tr.scaled = now, true
		if !live {
			tr.pool = desired
		}
	}
	return out
}
