package nic

import (
	"testing"

	"nezha/internal/sim"
)

// TestPickCoreTieBreak pins the earliest-free-core tie-break: when
// several cores share the minimum busy-until time, the LOWEST index
// wins. The burst datapath depends on submissions mapping to a
// deterministic (busyUntil, index)-lexicographic choice;
// a tie-break change would silently reorder completions and break the
// scalar/burst differential.
func TestPickCoreTieBreak(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 4)

	// All cores idle: four equal-cost submissions must land on cores
	// 0,1,2,3 in that order.
	for want := 0; want < 4; want++ {
		got := c.pickCore()
		if got != want {
			t.Fatalf("idle tie-break: pick %d, want %d", got, want)
		}
		c.cores[got] = 100 // occupy
		c.order[0] = c.orderKey(got, 100)
		c.fixTop()
	}

	// Cores 1 and 3 free up together, earlier than 0 and 2: the next
	// pick must be core 1 (lowest index among the tied minimum).
	c.cores[0], c.cores[1], c.cores[2], c.cores[3] = 300, 200, 300, 200
	c.reheap()
	if got := c.pickCore(); got != 1 {
		t.Fatalf("tied minimum at cores 1 and 3: pick %d, want 1", got)
	}

	// A strictly earlier core still beats a lower-index later one.
	c.cores[2] = 50
	c.reheap()
	if got := c.pickCore(); got != 2 {
		t.Fatalf("strict minimum at core 2: pick %d, want 2", got)
	}
}

// TestPickCoreHeapMatchesScan cross-checks the heap-ordered picker
// against a reference linear scan over a long random placement
// sequence: every pick must match the lowest-index argmin exactly.
func TestPickCoreHeapMatchesScan(t *testing.T) {
	loop := sim.NewLoop(7)
	c := newCPU(loop, 13)
	rng := sim.NewRand(42)
	scan := func() int {
		best := 0
		for i := 1; i < len(c.cores); i++ {
			if c.cores[i] < c.cores[best] {
				best = i
			}
		}
		return best
	}
	for step := 0; step < 5000; step++ {
		want := scan()
		got := c.pickCore()
		if got != want {
			t.Fatalf("step %d: pick %d, want %d (cores %v)", step, got, want, c.cores)
		}
		// Raise the picked core by a small random service time; small
		// steps force frequent exact ties across cores.
		c.cores[got] += sim.Time(rng.Intn(3))
		c.order[0] = c.orderKey(got, c.cores[got])
		c.fixTop()
	}
}

// TestPickCoreTieBreakEndToEnd drives the tie-break through Submit:
// equal-cost work on a fresh 3-core CPU must serialize as if placed
// round-robin 0,1,2,0,1,2 — observable as pairwise-equal completion
// times per wave of three.
func TestPickCoreTieBreakEndToEnd(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 3)
	var done []sim.Time
	for i := 0; i < 6; i++ {
		c.Submit(100, func(ok bool, d sim.Time) {
			if !ok {
				t.Error("dropped")
			}
			done = append(done, loop.Now())
		})
	}
	loop.RunAll()
	want := []sim.Time{100, 100, 100, 200, 200, 200}
	if len(done) != len(want) {
		t.Fatalf("completions: got %d, want %d", len(done), len(want))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
}
