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

// calBucket holds the events of one in-window slot. Buckets are
// appended to unsorted and sorted lazily when first drained; pushes
// into an already-sorted bucket (delay-zero scheduling into the slot
// being drained) insert in (at, seq) position, which is always at or
// after the drain cursor because seq grows monotonically.
type calBucket struct {
	evs    []*event
	next   int
	sorted bool
}

type calendarQueue struct {
	buckets [calBuckets]calBucket
	bitmap  [calBuckets / 64]uint64
	// baseSlot is the absolute slot of the window's earliest bucket;
	// every queued wheel event lives in [baseSlot, baseSlot+calBuckets).
	// It only advances, and only to slots whose earlier buckets have
	// fully drained.
	baseSlot int64
	wheelN   int
	far      eventQueue // min-(at,seq) heap of events beyond the window
	size     int
}

func newCalendarQueue() *calendarQueue { return &calendarQueue{} }

func (c *calendarQueue) len() int { return c.size }

func (c *calendarQueue) push(ev *event) {
	c.size++
	slot := slotOf(ev.at)
	if slot < c.baseSlot {
		// The window has advanced past this event's natural slot
		// (possible after an idle jump); park it in the base bucket —
		// the (at, seq) sort inside the bucket keeps exact order.
		slot = c.baseSlot
	}
	if slot >= c.baseSlot+calBuckets {
		heap.Push(&c.far, ev)
		return
	}
	c.bucketPush(slot, ev)
}

func (c *calendarQueue) bucketPush(slot int64, ev *event) {
	idx := int(slot & calMask)
	b := &c.buckets[idx]
	if b.sorted {
		// Entries before next are consumed (nil); search the live tail.
		// The new event carries the largest seq, so among equal
		// deadlines it lands last — and never before the drain cursor,
		// since consumed deadlines are <= the loop's current time.
		i := b.next + sort.Search(len(b.evs)-b.next, func(i int) bool {
			return b.evs[b.next+i].at > ev.at
		})
		b.evs = append(b.evs, nil)
		copy(b.evs[i+1:], b.evs[i:])
		b.evs[i] = ev
	} else {
		b.evs = append(b.evs, ev)
	}
	c.bitmap[idx/64] |= 1 << uint(idx%64)
	c.wheelN++
}

// migrate moves far-heap events that now fall inside the window into
// their buckets. It runs before every scan, so the wheel's minimum is
// always the global minimum.
func (c *calendarQueue) migrate() {
	end := c.baseSlot + calBuckets
	for len(c.far) > 0 && slotOf(c.far[0].at) < end {
		ev := heap.Pop(&c.far).(*event)
		slot := slotOf(ev.at)
		if slot < c.baseSlot {
			slot = c.baseSlot
		}
		c.bucketPush(slot, ev)
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
	if c.wheelN == 0 {
		// Idle jump: nothing in the window; rebase it at the earliest
		// far event instead of sweeping empty rotations.
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
	// Advance the window to the found slot. Earlier buckets are empty,
	// so no event is left behind; far events uncovered by the larger
	// window migrate on the next pop, and they cannot precede this
	// bucket's events (they were beyond the previous window end).
	c.baseSlot += int64((idx - start + calBuckets) & calMask)

	b := &c.buckets[idx]
	if !b.sorted {
		// slices.SortFunc, not sort.Slice: the latter goes through
		// reflect.Swapper and allocates on every bucket drain. The
		// (at, seq) key is total (seq is unique), so the unstable sort
		// is still deterministic.
		slices.SortFunc(b.evs, cmpEvent)
		b.sorted = true
	}
	ev := b.evs[b.next]
	if ev.at > max {
		return nil
	}
	b.evs[b.next] = nil
	b.next++
	c.wheelN--
	c.size--
	if b.next == len(b.evs) {
		b.evs = b.evs[:0]
		b.next = 0
		b.sorted = false
		c.bitmap[idx/64] &^= 1 << uint(idx%64)
	}
	return ev
}
