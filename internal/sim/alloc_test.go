//go:build !race

package sim

import "testing"

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
	// Warm-up: a wheel's worth of firings, so the calendar buckets the
	// measured ones land in already own their event storage.
	l.Run(calBuckets * period)
	before := fired
	if n := testing.AllocsPerRun(100, func() { l.Run(l.Now() + period) }); n != 0 {
		t.Fatalf("a ticker firing allocates %v, want 0", n)
	}
	if fired-before != 101 {
		t.Fatalf("ticker fired %d times over 101 periods", fired-before)
	}
}
