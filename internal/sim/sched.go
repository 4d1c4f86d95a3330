package sim

import (
	"cmp"
	"container/heap"
	"math/bits"
	"slices"
	"sort"
)

// SchedulerKind names the Loop's event-queue implementation; the
// calendar queue is the only one. It exists only as NewLoopSched's
// parameter and goes with it.
type SchedulerKind uint8

// SchedCalendar is the calendar-queue / timer-wheel hybrid: O(1)
// amortized push and pop for the near-future events the datapath
// generates by the million, and a spill heap for far-future timers.
const SchedCalendar SchedulerKind = 0

// scheduler is the event-queue contract. Pop order is strictly
// (at, seq) ascending — equal deadlines fire in scheduling order. The
// Loop holds it as an interface so the package tests can substitute a
// container/heap oracle and require bit-identical firing logs from the
// calendar queue.
type scheduler interface {
	// push queues ev. now is the loop's clock: ev.at and every later
	// push's deadline are at or after it.
	push(ev *event, now Time)
	// popLE removes and returns the earliest event if its deadline is
	// at most until, or nil (leaving the queue's order untouched)
	// otherwise.
	popLE(until Time) *event
	len() int
}

// --- calendar queue --------------------------------------------------

// Geometry: 4096 slots of 1.024 µs cover a ~4.2 ms window — wide
// enough that link latencies (µs) and CPU service times (µs) land in
// the wheel, while slow timers (monitor probes, sweeps, chaos checks)
// spill to the far heap, which holds few events.
const (
	calSlotShift = 10 // 1.024 µs per slot
	calBucketLg  = 12
	calBuckets   = 1 << calBucketLg
	calMask      = calBuckets - 1
)

func slotOf(at Time) int64 { return int64(at) >> calSlotShift }

// calSlot is one in-window slot: its events chained through
// event.next in push order. Events come off the loop's slab pool, so a
// slot owns no memory and a push allocates nothing.
type calSlot struct{ head, tail *event }

type calendarQueue struct {
	slots  [calBuckets]calSlot
	bitmap [calBuckets / 64]uint64
	// baseSlot is the absolute slot of the window's earliest bucket;
	// every queued wheel event lives in [baseSlot, baseSlot+calBuckets).
	// While events are queued it only advances, only to slots whose
	// earlier buckets have fully drained, and never past the slot of
	// popLE's horizon; an empty queue rebases at the clock on its next
	// push. So baseSlot <= slotOf(now) whenever an event is queued,
	// and a push (at >= now) lands in its own slot.
	baseSlot int64
	// cur, the queue's only slice, is the base slot being drained: its
	// chain gathered and sorted (at, seq) once, consumed from next. It
	// holds one 1.024 µs slot's events, never more. Pushes into the
	// base slot while it drains insert in (at, seq) position, shifting
	// whichever side of it is shorter: the events after it up by one,
	// or — when the drain has consumed a prefix — the events between
	// the cursor and it down into that prefix.
	cur    []*event
	next   int
	wheelN int
	far    eventQueue // min-(at,seq) heap of events beyond the window
	size   int
}

func newCalendarQueue() *calendarQueue { return &calendarQueue{} }

func (c *calendarQueue) len() int { return c.size }

func (c *calendarQueue) push(ev *event, now Time) {
	if c.size == 0 {
		// Popping cancelled events (RunAll, Step) advances the base
		// but not the clock, so an empty queue may have passed it.
		c.baseSlot = slotOf(now)
	}
	c.size++
	slot := slotOf(ev.at)
	if slot >= c.baseSlot+calBuckets {
		heap.Push(&c.far, ev)
		return
	}
	c.bucketPush(slot, ev)
}

func (c *calendarQueue) bucketPush(slot int64, ev *event) {
	c.wheelN++
	if slot == c.baseSlot && len(c.cur) > 0 {
		// Entries before next are consumed (nil); search the live tail.
		// The new event carries the largest seq, so among equal
		// deadlines it lands last — and never before the drain cursor,
		// since consumed deadlines are <= the loop's current time.
		i := c.next + sort.Search(len(c.cur)-c.next, func(i int) bool {
			return c.cur[c.next+i].at > ev.at
		})
		if c.next > 0 && i-c.next < len(c.cur)-i {
			copy(c.cur[c.next-1:], c.cur[c.next:i])
			c.next--
			c.cur[i-1] = ev
		} else {
			c.cur = append(c.cur, nil)
			copy(c.cur[i+1:], c.cur[i:])
			c.cur[i] = ev
		}
		return
	}
	idx := int(slot & calMask)
	s := &c.slots[idx]
	ev.next = nil
	if s.tail == nil {
		s.head = ev
	} else {
		s.tail.next = ev
	}
	s.tail = ev
	c.bitmap[idx/64] |= 1 << uint(idx%64)
}

// migrate moves far-heap events that now fall inside the window into
// their buckets. It runs before every scan, so the wheel's minimum is
// always the global minimum.
func (c *calendarQueue) migrate() {
	end := c.baseSlot + calBuckets
	for len(c.far) > 0 && slotOf(c.far[0].at) < end {
		ev := heap.Pop(&c.far).(*event)
		c.bucketPush(slotOf(ev.at), ev)
	}
}

// cmpEvent orders events (at, seq) ascending — the scheduler contract.
func cmpEvent(a, b *event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// popLE never moves the window base past slotOf(until). Loop.Run
// leaves its clock at until, so a base beyond that slot would put the
// next pushes (at >= now) behind the window.
func (c *calendarQueue) popLE(until Time) *event {
	if c.size == 0 {
		return nil
	}
	if len(c.cur) == 0 {
		if c.wheelN == 0 {
			// Idle jump: nothing in the window; rebase it at the
			// earliest far event, if that is due by the horizon,
			// instead of sweeping empty rotations.
			if c.far[0].at > until {
				return nil
			}
			c.baseSlot = slotOf(c.far[0].at)
		}
		c.migrate()

		// Scan the occupancy bitmap from the base slot, wrapping once.
		start := int(c.baseSlot & calMask)
		wi := start / 64
		w := c.bitmap[wi] &^ (1<<uint(start%64) - 1)
		for n := 0; w == 0; n++ {
			if n == len(c.bitmap) {
				// wheelN > 0 guarantees a set bit; unreachable.
				panic("sim: calendar queue occupancy out of sync")
			}
			wi = (wi + 1) & (len(c.bitmap) - 1)
			w = c.bitmap[wi]
		}
		idx := wi*64 + bits.TrailingZeros64(w)
		// Advance the window to the found slot, if it is due by the
		// horizon. Earlier buckets are empty, so no event is left
		// behind; far events uncovered by the larger window migrate on
		// the next gather, and they cannot precede this bucket's events
		// (they were beyond the previous window end).
		slot := c.baseSlot + int64((idx-start+calBuckets)&calMask)
		if slot > slotOf(until) {
			return nil
		}
		c.baseSlot = slot

		// Gather the slot's chain into the draining run. slices.SortFunc,
		// not sort.Slice, which allocates through reflect.Swapper; the
		// (at, seq) key is total, so the unstable sort is deterministic.
		s := &c.slots[idx]
		for ev := s.head; ev != nil; ev = ev.next {
			c.cur = append(c.cur, ev)
		}
		*s = calSlot{}
		slices.SortFunc(c.cur, cmpEvent)
	}
	ev := c.cur[c.next]
	if ev.at > until {
		return nil
	}
	c.cur[c.next] = nil
	c.next++
	c.wheelN--
	c.size--
	if c.next == len(c.cur) {
		c.cur, c.next = c.cur[:0], 0
		c.bitmap[(c.baseSlot&calMask)/64] &^= 1 << uint(c.baseSlot%64)
	}
	return ev
}
