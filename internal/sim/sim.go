// Package sim provides the deterministic discrete-event simulation
// substrate every other component runs on: a virtual clock, an event
// scheduler, and a seeded random source.
//
// All simulated time is virtual. Nothing in the repository reads the
// wall clock on the datapath, so a run with the same seed and the same
// inputs produces bit-identical results. The loop is single-threaded;
// components interact only by scheduling events, which keeps ordering
// well-defined without locks.
package sim

import (
	"fmt"
	"math"
	"time"

	"nezha/internal/slab"
)

// Time is a virtual timestamp measured in nanoseconds since the start
// of the simulation.
type Time int64

// Common durations, mirroring time.Duration's constants but in virtual
// time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// MaxTime is the largest representable virtual timestamp.
const MaxTime = Time(math.MaxInt64)

// Duration converts a standard library duration into virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds, for metric output.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Event is a scheduled callback. Events with equal deadlines fire in
// scheduling order (FIFO), which keeps runs deterministic. Event
// structs are recycled through the loop's slab pool; gen distinguishes
// incarnations so a stale EventRef cannot cancel a reused event.
// An event carries either a bare func (At/Schedule) or a Task
// (AtTask); exactly one is set.
type event struct {
	at   Time
	seq  uint64 // tiebreaker: scheduling order
	gen  uint32 // incarnation, bumped on recycle
	fn   func()
	task Task
	dead bool
	next *event // calendar slot chain
}

// Task is a pre-built schedulable callback. Hot paths that would
// otherwise allocate a fresh closure per scheduled event implement
// Task on a pooled struct and pass it to AtTask — the event machinery
// then runs allocation-free end to end (event structs are themselves
// recycled).
type Task interface{ Run() }

// EventRef identifies a scheduled event so it can be cancelled.
type EventRef struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (r EventRef) Cancel() {
	if r.ev != nil && r.ev.gen == r.gen {
		r.ev.dead = true
	}
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Loop is a discrete-event simulation loop. The zero value is not
// usable; construct with NewLoop.
type Loop struct {
	now       Time
	sched     scheduler
	seq       uint64
	rng       *Rand
	nfired    uint64
	observers []Observer
	events    slab.Pool[event]
	horizon   Time // the running Run's until, which Stop clamps
}

// Observer receives control after every executed event, at the
// event's virtual time. Observers run in registration order and must
// not block; they exist so cross-cutting tooling (invariant checkers,
// tracers) can watch the simulation without instrumenting every
// component. An observer may schedule new events but should not
// otherwise perturb simulation state, or determinism guarantees move
// to its feet.
type Observer func(now Time)

// Observe registers an observer for the rest of the run.
func (l *Loop) Observe(fn Observer) {
	if fn == nil {
		panic("sim: Observe with nil observer")
	}
	l.observers = append(l.observers, fn)
}

func (l *Loop) notify() {
	for _, o := range l.observers {
		o(l.now)
	}
}

// NewLoop returns a loop whose clock starts at zero and whose random
// source is seeded with seed, scheduling on the calendar queue.
func NewLoop(seed int64) *Loop {
	return &Loop{rng: NewRand(seed), sched: newCalendarQueue()}
}

// NewLoopSched is NewLoop. The alias exists only for the one call in
// bench/fastpath.go, which names the scheduler explicitly; a later
// benchmark change deletes it together with SchedulerKind.
func NewLoopSched(seed int64, _ SchedulerKind) *Loop { return NewLoop(seed) }

func (l *Loop) newEvent(at Time, fn func()) *event {
	ev := l.events.Get()
	ev.at, ev.seq, ev.fn, ev.dead = at, l.seq, fn, false
	l.seq++
	return ev
}

// recycle returns a popped event to the pool. The generation bump
// invalidates every outstanding EventRef to this incarnation.
func (l *Loop) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.task = nil
	l.events.Put(ev)
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Rand returns the loop's deterministic random source.
func (l *Loop) Rand() *Rand { return l.rng }

// Fired reports how many events have executed so far.
func (l *Loop) Fired() uint64 { return l.nfired }

// Pending reports how many events are queued (including cancelled ones
// not yet discarded).
func (l *Loop) Pending() int { return l.sched.len() }

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero. It returns a reference that can cancel the event.
func (l *Loop) Schedule(delay Time, fn func()) EventRef {
	if delay < 0 {
		delay = 0
	}
	return l.At(l.now+delay, fn)
}

// At runs fn at the absolute virtual time at. If at is in the past the
// event fires at the current time, after already-queued events.
func (l *Loop) At(at Time, fn func()) EventRef {
	if fn == nil {
		panic("sim: Schedule with nil function")
	}
	if at < l.now {
		at = l.now
	}
	ev := l.newEvent(at, fn)
	l.sched.push(ev, l.now)
	return EventRef{ev: ev, gen: ev.gen}
}

// AtTask is At for a pooled Task: it schedules t.Run at the absolute
// virtual time at without allocating a closure. The caller owns t's
// lifecycle and must keep it untouched until Run fires.
func (l *Loop) AtTask(at Time, t Task) EventRef {
	if t == nil {
		panic("sim: AtTask with nil task")
	}
	if at < l.now {
		at = l.now
	}
	ev := l.newEvent(at, nil)
	ev.task = t
	l.sched.push(ev, l.now)
	return EventRef{ev: ev, gen: ev.gen}
}

// Every schedules fn to run every period, starting one period from
// now, until the returned ticker is stopped or the loop drains.
func (l *Loop) Every(period Time, fn func()) *Ticker {
	t := new(Ticker)
	l.EveryTask(t, period, funcTask(fn))
	return t
}

// EveryTask is Every for a Task and a ticker its owner holds by value:
// it arms t to run task every period, starting one period from now,
// with no allocation. t must be new or stopped, and not called from
// t's own firing, which re-arms t when it returns.
func (l *Loop) EveryTask(t *Ticker, period Time, task Task) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %d", period))
	}
	*t = Ticker{loop: l, period: period, task: task}
	t.arm()
}

// funcTask runs a plain callback as a Task; a func value is
// pointer-shaped, so the conversion allocates nothing.
type funcTask func()

func (f funcTask) Run() { f() }

// Ticker repeatedly fires a callback until stopped. It schedules
// itself as a Task, so a firing costs no allocation.
type Ticker struct {
	loop    *Loop
	period  Time
	task    Task
	ref     EventRef
	stopped bool
}

// tickerTask is a Ticker seen as a Task; the conversion keeps Run off
// Ticker's exported method set.
type tickerTask Ticker

func (t *Ticker) arm() {
	t.ref = t.loop.AtTask(t.loop.now+t.period, (*tickerTask)(t))
}

// Run fires the callback and re-arms unless it stopped the ticker.
func (tt *tickerTask) Run() {
	t := (*Ticker)(tt)
	if t.stopped {
		return
	}
	t.task.Run()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ref.Cancel()
}

// Run executes events until the queue drains or the clock passes
// until, whichever comes first. It returns the time of the last event
// executed (or the current time if none ran).
func (l *Loop) Run(until Time) Time {
	l.horizon = until
	for {
		ev := l.sched.popLE(l.horizon)
		if ev == nil {
			break
		}
		if ev.dead {
			l.recycle(ev)
			continue
		}
		l.now = ev.at
		l.nfired++
		fn, task := ev.fn, ev.task
		l.recycle(ev)
		if task != nil {
			task.Run()
		} else {
			fn()
		}
		l.notify()
	}
	if l.horizon != MaxTime && l.now < l.horizon {
		l.now = l.horizon
	}
	return l.now
}

// Stop ends the running Run once the events already due at the current
// instant have fired; the clock stays there, and the next Run starts
// afresh. It clamps Run's horizon instead of adding a check per event.
func (l *Loop) Stop() { l.horizon = l.now }

// RunAll executes events until the queue drains.
func (l *Loop) RunAll() Time { return l.Run(MaxTime) }

// Step executes the single next pending live event, returning false if
// the queue is empty.
func (l *Loop) Step() bool {
	for {
		ev := l.sched.popLE(MaxTime)
		if ev == nil {
			return false
		}
		if ev.dead {
			l.recycle(ev)
			continue
		}
		l.now = ev.at
		l.nfired++
		fn, task := ev.fn, ev.task
		l.recycle(ev)
		if task != nil {
			task.Run()
		} else {
			fn()
		}
		l.notify()
		return true
	}
}
