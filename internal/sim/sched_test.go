package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// heapSched is the container/heap event queue the calendar queue
// replaced, kept as the ordering oracle: (at, seq) order by
// construction, so every test below requires the calendar queue to
// fire exactly what it fires.
type heapSched struct{ q eventQueue }

func (h *heapSched) push(ev *event, _ Time) { heap.Push(&h.q, ev) }

func (h *heapSched) popLE(until Time) *event {
	if len(h.q) == 0 || h.q[0].at > until {
		return nil
	}
	return heap.Pop(&h.q).(*event)
}

func (h *heapSched) len() int { return len(h.q) }

// schedulers is the oracle and the production queue, in that order.
var schedulers = []struct {
	name   string
	oracle bool
}{{"heap", true}, {"calendar", false}}

// newTestLoop returns a seed-1 loop on the calendar queue, or on the
// heap oracle when oracle is set.
func newTestLoop(oracle bool) *Loop {
	l := NewLoop(1)
	if oracle {
		l.sched = &heapSched{}
	}
	return l
}

// driveOps interprets a byte string as a schedule/cancel/tick program
// against a fresh loop (the heap oracle when oracle is set) and
// returns the exact firing log. Deltas are decoded so that
// equal-deadline collisions, in-slot inserts during a drain, far-heap
// spills (beyond the calendar's ~4.2 ms window), and idle jumps all
// occur routinely. After every partial Run it requires the calendar's
// window base, if any event is queued, to be at or before the clock's
// slot (the horizon rule).
func driveOps(t *testing.T, oracle bool, prog []byte) []string {
	l := newTestLoop(oracle)
	var log []string
	var refs []EventRef
	id := 0
	pc := 0
	next := func() byte {
		if pc >= len(prog) {
			return 0
		}
		b := prog[pc]
		pc++
		return b
	}
	// Delta menu mixes sub-slot, multi-slot, window-edge, and
	// far-future offsets, plus frequent exact collisions (delta 0).
	deltas := []Time{
		0, 0, 1, 100, 1023, 1024, 1025,
		10 * Microsecond, 3 * Millisecond,
		4 * Millisecond, 5 * Millisecond, // straddle the window edge
		50 * Millisecond, 2 * Second, // far heap
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		me := id
		d := deltas[int(next())%len(deltas)]
		refs = append(refs, l.Schedule(d, func() {
			log = append(log, fmt.Sprintf("%d@%d", me, l.Now()))
			if depth < 3 && next()%4 == 0 {
				schedule(depth + 1) // reschedule from inside a callback
			}
		}))
	}
	for pc < len(prog) {
		switch next() % 5 {
		case 0, 1, 2:
			schedule(0)
		case 3:
			if len(refs) > 0 {
				refs[int(next())%len(refs)].Cancel()
			}
		case 4:
			// Partial run: advances now, exercises idle jumps and
			// pushes into already-advanced windows. 255 runs the queue
			// dry instead, popping any cancelled tail past the clock.
			d := next()
			if d == 255 {
				l.RunAll()
				break
			}
			l.Run(l.Now() + Time(d)*37*Microsecond)
			if cal, ok := l.sched.(*calendarQueue); ok && cal.len() > 0 && cal.baseSlot > slotOf(l.Now()) {
				t.Fatalf("after Run to %v the window base is slot %d, past the clock's slot %d", l.Now(), cal.baseSlot, slotOf(l.Now()))
			}
		}
	}
	l.RunAll()
	return log
}

func diffLogs(t *testing.T, prog []byte) {
	t.Helper()
	h := driveOps(t, true, prog)
	c := driveOps(t, false, prog)
	if len(h) != len(c) {
		t.Fatalf("fired %d events on heap, %d on calendar", len(h), len(c))
	}
	for i := range h {
		if h[i] != c[i] {
			t.Fatalf("firing order diverges at %d: heap %s, calendar %s", i, h[i], c[i])
		}
	}
}

// TestSchedulerDifferentialOps drives both schedulers through seeded
// pseudo-random programs and requires identical firing logs.
func TestSchedulerDifferentialOps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := NewRand(seed)
		prog := make([]byte, 4096)
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		diffLogs(t, prog)
	}
}

// TestEqualDeadlineFIFO schedules many callbacks onto identical
// deadlines — from outside and from inside the draining slot — and
// checks FIFO order on both schedulers.
func TestEqualDeadlineFIFO(t *testing.T) {
	for _, s := range schedulers {
		l := newTestLoop(s.oracle)
		var got []int
		at := Time(5 * Microsecond)
		for i := 0; i < 50; i++ {
			i := i
			l.At(at, func() {
				got = append(got, i)
				if i == 0 {
					// Delay-zero insert into the slot being drained:
					// must land after every already-queued callback at
					// this deadline.
					l.Schedule(0, func() { got = append(got, 1000) })
				}
			})
		}
		l.RunAll()
		if len(got) != 51 {
			t.Fatalf("%s: fired %d, want 51", s.name, len(got))
		}
		for i := 0; i < 50; i++ {
			if got[i] != i {
				t.Fatalf("%s: position %d fired %d, want %d (FIFO broken)", s.name, i, got[i], i)
			}
		}
		if got[50] != 1000 {
			t.Fatalf("%s: delay-zero insert fired at position %d, want last", s.name, got[50])
		}
	}
}

// TestCalendarIdleJumpThenEarlyPush pins the horizon rule at a Run
// boundary: with only a 100 ms event queued, Run(50ms) fires nothing
// and must leave the window base at or before the 50 ms slot — an idle
// jump to the 100 ms slot would put every later push behind the
// window. Events scheduled between the two then fire first.
func TestCalendarIdleJumpThenEarlyPush(t *testing.T) {
	l := NewLoop(1)
	cal := l.sched.(*calendarQueue)
	var got []string
	l.At(100*Millisecond, func() { got = append(got, "far") })
	l.Run(50 * Millisecond)
	if cal.baseSlot > slotOf(50*Millisecond) {
		t.Fatalf("Run(50ms) moved the window base to slot %d, past the 50 ms slot %d", cal.baseSlot, slotOf(50*Millisecond))
	}
	l.At(60*Millisecond, func() { got = append(got, "early") })
	l.At(60*Millisecond, func() { got = append(got, "early2") })
	l.RunAll()
	want := []string{"early", "early2", "far"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestCalendarCancelledTailThenEarlyPush covers the one way the base
// can pass the clock: RunAll pops a cancelled 10 ms event, which moves
// the base to its slot but leaves the clock at 0. The next push into
// the empty queue must rebase it, or the 1 ms and 2 ms events that
// follow land behind the window and fire out of order.
func TestCalendarCancelledTailThenEarlyPush(t *testing.T) {
	l := NewLoop(1)
	var got []string
	l.At(10*Millisecond, func() { got = append(got, "cancelled") }).Cancel()
	l.RunAll()
	l.At(1*Millisecond, func() { got = append(got, "1ms") })
	l.At(2*Millisecond, func() { got = append(got, "2ms") })
	l.RunAll()
	if len(got) != 2 || got[0] != "1ms" || got[1] != "2ms" {
		t.Fatalf("fired %v, want [1ms 2ms]", got)
	}
}

// boundaryStream is a steady stream of near-future events across a Run
// boundary: start queues one event 100 ms out and runs the loop 50 ms
// (nothing is due), then seeds streamLead/µs events one µs apart; each
// firing schedules the next streamLead ahead until left runs out. It
// records the longest draining run it sees and how many of its pushes
// were sorted inserts into that run rather than slot-chain appends.
type boundaryStream struct {
	l                *Loop
	cal              *calendarQueue
	left             int
	maxCur, inserted int
}

const streamLead = 10 * Microsecond

func newBoundaryStream(l *Loop, n int) *boundaryStream {
	return &boundaryStream{l: l, cal: l.sched.(*calendarQueue), left: n}
}

func (s *boundaryStream) start() {
	t0 := s.l.Now()
	s.l.At(t0+100*Millisecond, func() {})
	s.l.Run(t0 + 50*Millisecond)
	for i := Time(1); i <= streamLead/Microsecond; i++ {
		s.schedule(s.l.Now() + i*Microsecond)
	}
	s.l.RunAll()
}

func (s *boundaryStream) schedule(at Time) {
	if s.left == 0 {
		return
	}
	s.left--
	live := len(s.cal.cur) - s.cal.next
	s.l.AtTask(at, s)
	if len(s.cal.cur)-s.cal.next > live {
		s.inserted++
	}
	s.maxCur = max(s.maxCur, len(s.cal.cur))
}

func (s *boundaryStream) Run() { s.schedule(s.l.Now() + streamLead) }

// TestCalendarRunBoundaryStream pins that a Run boundary leaves the
// window where the clock is: 100 000 events, one every µs, streamed
// after Run stopped 50 ms short of a queued timer, each land in their
// own slot's chain. The draining run never holds more than one slot's
// few events and no push is a sorted insert into it — where a window
// idle-jumped to the timer would park every event before it in one
// run.
func TestCalendarRunBoundaryStream(t *testing.T) {
	l := NewLoop(1)
	s := newBoundaryStream(l, 100000)
	s.start()
	if s.left != 0 || l.Fired() != 100001 {
		t.Fatalf("fired %d events with %d left to schedule, want 100001 and 0", l.Fired(), s.left)
	}
	if s.maxCur > 4 || s.inserted != 0 {
		t.Fatalf("longest draining run %d events, %d sorted inserts into it; want at most 4 and none", s.maxCur, s.inserted)
	}
}

// TestCalendarInsertIntoDrainingBucket fills one slot, drains half of
// it, then pushes into what is left at both ends — at the drain cursor
// and just past it (head shifts into the consumed prefix), at the
// slot's last nanosecond and near it (tail shifts) — and requires the
// calendar queue to pop exactly what the heap oracle pops.
func TestCalendarInsertIntoDrainingBucket(t *testing.T) {
	cal, oracle := newCalendarQueue(), &heapSched{}
	var seq uint64
	var now Time // the last popped deadline
	push := func(at Time) {
		seq++
		cal.push(&event{at: at, seq: seq}, now)
		oracle.push(&event{at: at, seq: seq}, now)
	}
	popBoth := func(i int) {
		t.Helper()
		c, o := cal.popLE(1<<62), oracle.popLE(1<<62)
		if c.at != o.at || c.seq != o.seq {
			t.Fatalf("pop %d: calendar (%d, %d), heap (%d, %d)", i, c.at, c.seq, o.at, o.seq)
		}
		now = c.at
	}
	const base = Time(64 << calSlotShift) // a slot's first nanosecond
	for k := 0; k < 100; k++ {
		push(base + Time(10*k))
	}
	for i := 0; i < 50; i++ {
		popBoth(i)
	}
	next, n := cal.next, len(cal.cur)
	push(base + 490) // the last popped deadline: lands at the cursor
	push(base + 515) // behind three live events
	if cal.next != next-2 || len(cal.cur) != n {
		t.Fatalf("head-side inserts: cursor %d → %d, length %d → %d; want the cursor to move back 2", next, cal.next, n, len(cal.cur))
	}
	push(base + 1023) // the slot's last nanosecond
	push(base + 805)  // behind ~20 live events, ahead of ~30
	if cal.next != next-2 || len(cal.cur) != n+2 {
		t.Fatalf("tail-side inserts: cursor %d, length %d → %d; want the tail to grow by 2", cal.next, n, len(cal.cur))
	}
	for i := 50; oracle.len() > 0; i++ {
		popBoth(i)
	}
	if cal.len() != 0 {
		t.Fatalf("calendar holds %d events the heap does not", cal.len())
	}
}

// TestSchedulerCancelRecycle checks that a stale EventRef from a fired
// event cannot cancel the recycled event struct's next incarnation.
func TestSchedulerCancelRecycle(t *testing.T) {
	for _, s := range schedulers {
		l := newTestLoop(s.oracle)
		fired := 0
		ref := l.Schedule(Microsecond, func() { fired++ })
		l.RunAll()
		// The event struct is now on the free list; the next schedule
		// reuses it. The stale ref must not cancel it.
		l.Schedule(Microsecond, func() { fired++ })
		ref.Cancel()
		l.RunAll()
		if fired != 2 {
			t.Fatalf("%s: fired %d, want 2 — stale ref cancelled a recycled event", s.name, fired)
		}
	}
}

// FuzzSchedulerOrdering feeds arbitrary programs to both schedulers
// and requires bit-identical firing logs, fuzzing the
// FIFO-at-equal-deadline tiebreak among everything else.
func FuzzSchedulerOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 3, 4, 4})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 9, 9, 9, 4, 255, 3, 1})
	// A 2 s event, cancelled, run dry, then 3 ms and 4 ms pushes.
	f.Add([]byte{0, 12, 3, 0, 4, 255, 0, 8, 0, 9})
	rng := NewRand(42)
	seedProg := make([]byte, 512)
	for i := range seedProg {
		seedProg[i] = byte(rng.Intn(256))
	}
	f.Add(seedProg)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<16 {
			t.Skip("program too large")
		}
		diffLogs(t, prog)
	})
}
