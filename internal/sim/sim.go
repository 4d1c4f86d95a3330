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
// structs are recycled through a per-loop free list; gen distinguishes
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
	free      []*event // recycled event structs
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
	var ev *event
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.dead = at, l.seq, fn, false
	l.seq++
	return ev
}

// recycle returns a popped event to the free list. The generation bump
// invalidates every outstanding EventRef to this incarnation.
func (l *Loop) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.task = nil
	l.free = append(l.free, ev)
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
	l.sched.push(ev)
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
	l.sched.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// Every schedules fn to run every period, starting one period from
// now, until the returned ticker is stopped or the loop drains.
func (l *Loop) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %d", period))
	}
	t := &Ticker{loop: l, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker repeatedly fires a callback until stopped.
type Ticker struct {
	loop    *Loop
	period  Time
	fn      func()
	ref     EventRef
	stopped bool
}

func (t *Ticker) arm() {
	t.ref = t.loop.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
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
	for {
		ev := l.sched.popLE(until)
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
	if until != MaxTime && l.now < until {
		l.now = until
	}
	return l.now
}

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
