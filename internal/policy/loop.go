package policy

import (
	"nezha/internal/journal"
	"nezha/internal/obs"
	"nezha/internal/prof"
	"nezha/internal/sim"
)

// Source supplies one drained attribution window per call — in
// production a *prof.SeriesReader; tests substitute canned windows.
type Source interface {
	Read(now sim.Time) prof.Window
}

// Actuator executes decisions. The controller implements it by
// routing every call through its two-phase transaction machinery; an
// actuator that bypassed prepare/commit would re-open the blackhole
// window the txn layer closed, so none exists.
type Actuator interface {
	View
	// Offload moves the vNIC onto an FE pool (controller-sized; the
	// policy grows it toward the desired size with scale-outs).
	Offload(vnic uint32) error
	// Fallback returns the vNIC to local processing.
	Fallback(vnic uint32) error
	// ScaleOut adds n FEs to the vNIC's pool.
	ScaleOut(vnic uint32, n int) error
	// ScaleIn removes n FEs from the vNIC's pool.
	ScaleIn(vnic uint32, n int) error
}

// Availability is implemented by actuators whose backing process can
// be down — the controller during a crash. While the actuator reports
// down, the loop's ticks back off: no window is drained and no
// decision issued, but the tick phase is preserved, so the first
// post-recovery step lands exactly on the cadence a crash-free run
// would have used.
type Availability interface {
	ControllerUp() bool
}

// LoopStats counts actuation outcomes.
type LoopStats struct {
	Steps    uint64
	Applied  uint64
	Rejected uint64 // actuator returned an error (txn in flight, cooldown, …)
	Backoffs uint64 // ticks skipped while the controller was down
}

// Loop ties engine, source, and actuator to the sim clock: one
// Read+Step+apply per Config.Interval.
type Loop struct {
	loop   *sim.Loop
	eng    *Engine
	src    Source
	act    Actuator
	ticker *sim.Ticker

	// trace, when set, observes every (window, decisions) pair — the
	// scenario harness records the load/pool traces through it.
	trace func(now sim.Time, w prof.Window, ds []Decision)

	// journal, when set, receives one KindPolicy record per actuated
	// vNIC after each step, so a recovered controller resumes the
	// engine's cooldowns where the dead one left off.
	journal *journal.Journal
	// backingOff marks a controller-outage backoff in progress (used to
	// emit the down/resume event pair exactly once per outage).
	backingOff bool

	ob *obs.Obs

	Stats LoopStats
}

// NewLoop builds a policy loop (not started).
func NewLoop(loop *sim.Loop, eng *Engine, src Source, act Actuator) *Loop {
	return &Loop{loop: loop, eng: eng, src: src, act: act}
}

// Engine returns the wrapped decision engine.
func (pl *Loop) Engine() *Engine { return pl.eng }

// SetTrace installs the per-step observer.
func (pl *Loop) SetTrace(fn func(now sim.Time, w prof.Window, ds []Decision)) { pl.trace = fn }

// SetJournal wires the controller's write-ahead log: the engine's
// cooldown state is appended after every actuated decision and a
// compactor keeps the snapshot complete.
func (pl *Loop) SetJournal(j *journal.Journal) {
	pl.journal = j
	j.AddCompactor(pl.eng.Export)
}

// SetSource swaps the attribution source — recovery replaces the dead
// incarnation's SeriesReader with a freshly primed one so the first
// post-recovery window has exact deltas instead of cumulative totals.
func (pl *Loop) SetSource(src Source) { pl.src = src }

// EnableObs wires decision telemetry into the observability bundle:
// one flight-recorder event per decision plus policy_* series
// (decision counters per action, thrash count, per-step stats).
func (pl *Loop) EnableObs(ob *obs.Obs) {
	pl.ob = ob
	if ob == nil || ob.Reg == nil {
		return
	}
	ob.Reg.Help("policy_decisions_total", "Policy decisions applied, by action.")
	ob.Reg.Help("policy_thrash_total", "Self-reported offload/fallback thrash events.")
	ob.Reg.Help("policy_steps_total", "Policy loop steps executed.")
	ob.Reg.Help("policy_rejected_total", "Decisions the actuator rejected.")
	for _, a := range []Action{ActOffload, ActFallback, ActScaleOut, ActScaleIn} {
		a := a
		ob.Reg.CounterFunc("policy_decisions_total", obs.L("action", a.String()), func() uint64 {
			var n uint64
			for _, d := range pl.eng.decisions {
				if d.Action == a {
					n++
				}
			}
			return n
		})
	}
	ob.Reg.CounterFunc("policy_thrash_total", nil, func() uint64 {
		return uint64(len(pl.eng.thrash))
	})
	ob.Reg.CounterVar("policy_steps_total", nil, &pl.Stats.Steps)
	ob.Reg.CounterVar("policy_rejected_total", nil, &pl.Stats.Rejected)
}

// Start begins stepping every Config.Interval.
func (pl *Loop) Start() {
	pl.ticker = pl.loop.Every(pl.eng.cfg.Interval, pl.StepNow)
}

// Stop halts the loop.
func (pl *Loop) Stop() {
	if pl.ticker != nil {
		pl.ticker.Stop()
	}
}

// StepNow drains one window, runs the engine, and applies the
// decisions through the actuator.
func (pl *Loop) StepNow() {
	now := pl.loop.Now()
	if av, ok := pl.act.(Availability); ok && !av.ControllerUp() {
		// Controller outage: skip the whole step — draining a window
		// now would desynchronize the reader from the cadence a
		// crash-free run keeps. The ticker itself keeps ticking, so
		// resumption needs no rescheduling.
		pl.Stats.Backoffs++
		if !pl.backingOff {
			pl.backingOff = true
			if pl.ob != nil {
				pl.ob.Event(now, "policy-backoff", 0, 0, "controller down")
			}
		}
		return
	}
	if pl.backingOff {
		pl.backingOff = false
		if pl.ob != nil {
			pl.ob.Event(now, "policy-resume", 0, 0, "controller up")
		}
	}
	w := pl.src.Read(now)
	ds := pl.eng.Step(now, w, pl.act)
	pl.Stats.Steps++
	for _, d := range ds {
		var err error
		switch d.Action {
		case ActOffload:
			err = pl.act.Offload(d.VNIC)
		case ActFallback:
			err = pl.act.Fallback(d.VNIC)
		case ActScaleOut:
			err = pl.act.ScaleOut(d.VNIC, d.Delta)
		case ActScaleIn:
			err = pl.act.ScaleIn(d.VNIC, d.Delta)
		}
		if err != nil {
			pl.Stats.Rejected++
		} else {
			pl.Stats.Applied++
		}
		if pl.ob != nil {
			pl.ob.Event(now, "policy", 0, d.VNIC, "%s err=%v", d.String(), err)
		}
	}
	if pl.journal != nil {
		for _, d := range ds {
			if r, ok := pl.eng.exportVNIC(d.VNIC); ok {
				_ = pl.journal.Append(r)
			}
		}
	}
	if pl.trace != nil {
		pl.trace(now, w, ds)
	}
}
