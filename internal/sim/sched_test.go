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

func (h *heapSched) push(ev *event) { heap.Push(&h.q, ev) }

func (h *heapSched) popLE(max Time) *event {
	if len(h.q) == 0 || h.q[0].at > max {
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
// occur routinely.
func driveOps(oracle bool, prog []byte) []string {
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
			// pushes into already-advanced windows.
			l.Run(l.Now() + Time(next())*37*Microsecond)
		}
	}
	l.RunAll()
	return log
}

func diffLogs(t *testing.T, prog []byte) {
	t.Helper()
	h := driveOps(true, prog)
	c := driveOps(false, prog)
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

// TestCalendarIdleJumpThenEarlyPush reproduces the trickiest window
// case: the queue idles far into the future (base slot jumps), then an
// event lands before the jumped-to slot and must still fire first.
func TestCalendarIdleJumpThenEarlyPush(t *testing.T) {
	l := NewLoop(1)
	var got []string
	l.At(100*Millisecond, func() { got = append(got, "far") })
	// Run to 50 ms: nothing fires, but popLE's idle jump advances the
	// window base to the 100 ms slot.
	l.Run(50 * Millisecond)
	// Now schedule earlier than the jumped-to slot (but >= now).
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

// TestCalendarInsertIntoDrainingBucket fills one slot, drains half of
// it, then pushes into what is left at both ends — at the drain cursor
// and just past it (head shifts into the consumed prefix), at the
// slot's last nanosecond and near it (tail shifts) — and requires the
// calendar queue to pop exactly what the heap oracle pops.
func TestCalendarInsertIntoDrainingBucket(t *testing.T) {
	cal, oracle := newCalendarQueue(), &heapSched{}
	var seq uint64
	push := func(at Time) {
		seq++
		cal.push(&event{at: at, seq: seq})
		oracle.push(&event{at: at, seq: seq})
	}
	popBoth := func(i int) {
		t.Helper()
		c, o := cal.popLE(1<<62), oracle.popLE(1<<62)
		if c.at != o.at || c.seq != o.seq {
			t.Fatalf("pop %d: calendar (%d, %d), heap (%d, %d)", i, c.at, c.seq, o.at, o.seq)
		}
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
