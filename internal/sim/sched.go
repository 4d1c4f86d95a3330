package sim

import (
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
	push(*event)
	// popLE removes and returns the earliest event if its deadline is
	// at most max, or nil (leaving the queue untouched) otherwise.
	popLE(max Time) *event
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
// event.next in push order. Events come off the loop's free list, so a
// slot owns no memory and a push allocates nothing.
type calSlot struct{ head, tail *event }

type calendarQueue struct {
	slots  [calBuckets]calSlot
	bitmap [calBuckets / 64]uint64
	// baseSlot is the absolute slot of the window's earliest bucket;
	// every queued wheel event lives in [baseSlot, baseSlot+calBuckets).
	// It only advances, and only to slots whose earlier buckets have
	// fully drained.
	baseSlot int64
	// cur, the queue's only slice, is the base slot being drained: its
	// chain gathered and sorted (at, seq) once, consumed from next.
	// Pushes into the base slot while it drains insert in (at, seq)
	// position, shifting whichever side of it is shorter: the events
	// after it up by one, or — when the drain has consumed a prefix —
	// the events between the cursor and it down into that prefix.
	cur    []*event
	next   int
	wheelN int
	far    eventQueue // min-(at,seq) heap of events beyond the window
	size   int
}

func newCalendarQueue() *calendarQueue { return &calendarQueue{} }

func (c *calendarQueue) len() int { return c.size }

func (c *calendarQueue) push(ev *event) {
	c.size++
	// Past the window base (possible after an idle jump), an event
	// parks in the base bucket; the (at, seq) sort keeps exact order.
	slot := max(slotOf(ev.at), c.baseSlot)
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
		c.bucketPush(max(slotOf(ev.at), c.baseSlot), ev)
	}
}

// cmpEvent orders events (at, seq) ascending — the scheduler contract.
func cmpEvent(a, b *event) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

func (c *calendarQueue) popLE(max Time) *event {
	if c.size == 0 {
		return nil
	}
	if len(c.cur) == 0 {
		if c.wheelN == 0 {
			// Idle jump: nothing in the window; rebase it at the
			// earliest far event instead of sweeping empty rotations.
			c.baseSlot = slotOf(c.far[0].at)
		}
		c.migrate()

		// Scan the occupancy bitmap from the base slot, wrapping once.
		start := int(c.baseSlot & calMask)
		wi := start / 64
		w := c.bitmap[wi] &^ (1<<uint(start%64) - 1)
		idx := -1
		for n := 0; ; n++ {
			if w != 0 {
				idx = wi*64 + bits.TrailingZeros64(w)
				break
			}
			if n == len(c.bitmap) {
				break
			}
			wi++
			if wi == len(c.bitmap) {
				wi = 0
			}
			w = c.bitmap[wi]
		}
		if idx < 0 {
			// wheelN > 0 guarantees a set bit; unreachable.
			panic("sim: calendar queue occupancy out of sync")
		}
		// Advance the window to the found slot. Earlier buckets are
		// empty, so no event is left behind; far events uncovered by
		// the larger window migrate on the next gather, and they cannot
		// precede this bucket's events (they were beyond the previous
		// window end).
		c.baseSlot += int64((idx - start + calBuckets) & calMask)

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
	if ev.at > max {
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
