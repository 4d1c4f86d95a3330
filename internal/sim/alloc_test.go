//go:build !race

package sim

import (
	"runtime"
	"testing"
)

// TestTickerAllocFree pins that a firing Ticker allocates nothing: the
// ticker is its own Task and the event struct comes off the free list,
// so periodic rounds (monitor probes, sweeps, SLO windows) cost no
// garbage per tick. (Not under -race, like the other allocation
// guards.)
func TestTickerAllocFree(t *testing.T) {
	l := NewLoop(1)
	const period = 10 * Millisecond
	fired := 0
	l.Every(period, func() { fired++ })
	if n := testing.AllocsPerRun(100, func() { l.Run(l.Now() + period) }); n != 0 {
		t.Fatalf("a ticker firing allocates %v, want 0", n)
	}
	if fired != 101 {
		t.Fatalf("ticker fired %d times over 101 periods", fired)
	}
}

// TestFreshWheelAllocFree pins that the calendar queue owns no memory
// per slot: on a fresh loop whose event free list is warm, one event
// into each of the wheel's slots, then drained, allocates nothing —
// a slot is a chain through the pooled events themselves. Every short
// world (figures, campaigns, soaks) walks its wheel once, so a
// per-slot allocation would be thousands per world.
func TestFreshWheelAllocFree(t *testing.T) {
	l := NewLoop(1)
	fired := 0
	fire := func() { fired++ }
	// Warm the free list (and the draining run) in one slot.
	for i := 0; i < calBuckets; i++ {
		l.At(0, fire)
	}
	l.RunAll()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calBuckets; i++ {
		l.At(l.Now()+Time(i)<<calSlotShift, fire)
	}
	l.RunAll()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("one event into each of %d fresh slots allocates %d objects, want 0", calBuckets, n)
	}
	if fired != 2*calBuckets {
		t.Fatalf("fired %d events, want %d", fired, 2*calBuckets)
	}
}

// TestRunBoundaryAllocFree pins that a Run boundary costs no memory:
// with the event free list warm, 100 000 near-future events streamed
// after Run stopped short of a far timer allocate nothing. A window
// base moved past the boundary would sort the whole stream into one
// draining run and grow it to the stream's length.
func TestRunBoundaryAllocFree(t *testing.T) {
	l := NewLoop(1)
	newBoundaryStream(l, 1000).start()
	s := newBoundaryStream(l, 100000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.start()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("100000 events across a Run boundary allocate %d objects, want 0", n)
	}
	if s.left != 0 {
		t.Fatalf("%d events left unscheduled", s.left)
	}
}
