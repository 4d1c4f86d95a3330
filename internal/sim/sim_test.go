package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop(1)
	var order []int
	l.Schedule(30, func() { order = append(order, 3) })
	l.Schedule(10, func() { order = append(order, 1) })
	l.Schedule(20, func() { order = append(order, 2) })
	l.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if l.Now() != 30 {
		t.Fatalf("clock = %d, want 30", l.Now())
	}
}

func TestLoopFIFOTiebreak(t *testing.T) {
	l := NewLoop(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		l.Schedule(5, func() { order = append(order, i) })
	}
	l.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline events reordered at %d: got %d", i, v)
		}
	}
}

func TestLoopRunUntil(t *testing.T) {
	l := NewLoop(1)
	fired := 0
	l.Schedule(10, func() { fired++ })
	l.Schedule(100, func() { fired++ })
	l.Run(50)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if l.Now() != 50 {
		t.Fatalf("Run(50) should advance clock to 50, got %d", l.Now())
	}
	l.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d after RunAll, want 2", fired)
	}
}

func TestLoopCancel(t *testing.T) {
	l := NewLoop(1)
	fired := false
	ref := l.Schedule(10, func() { fired = true })
	ref.Cancel()
	l.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling twice must not panic.
	ref.Cancel()
}

func TestLoopScheduleInsideEvent(t *testing.T) {
	l := NewLoop(1)
	var times []Time
	l.Schedule(10, func() {
		times = append(times, l.Now())
		l.Schedule(5, func() { times = append(times, l.Now()) })
	})
	l.RunAll()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", times)
	}
}

func TestLoopPastEventClamped(t *testing.T) {
	l := NewLoop(1)
	l.Schedule(100, func() {
		l.At(50, func() {
			if l.Now() != 100 {
				t.Errorf("past event should fire at current time, got %d", l.Now())
			}
		})
	})
	l.RunAll()
}

func TestTicker(t *testing.T) {
	l := NewLoop(1)
	count := 0
	var tick *Ticker
	tick = l.Every(10, func() {
		count++
		if count == 5 {
			tick.Stop()
		}
	})
	l.Run(1000)
	if count != 5 {
		t.Fatalf("ticker fired %d times, want 5", count)
	}
}

func TestTickerStopBeforeFirstFire(t *testing.T) {
	l := NewLoop(1)
	fired := false
	tick := l.Every(10, func() { fired = true })
	tick.Stop()
	l.RunAll()
	if fired {
		t.Fatal("stopped ticker fired")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	l := NewLoop(1)
	ran := false
	l.Schedule(-5, func() { ran = true })
	l.RunAll()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if l.Now() != 0 {
		t.Fatalf("clock moved backwards: %d", l.Now())
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(time.Second) != Second {
		t.Fatal("Duration(1s) != Second")
	}
	if Second.Seconds() != 1.0 {
		t.Fatal("Second.Seconds() != 1")
	}
	if Millisecond.Millis() != 1.0 {
		t.Fatal("Millisecond.Millis() != 1")
	}
	if Microsecond.Micros() != 1.0 {
		t.Fatal("Microsecond.Micros() != 1")
	}
}

func TestStep(t *testing.T) {
	l := NewLoop(1)
	n := 0
	l.Schedule(1, func() { n++ })
	l.Schedule(2, func() { n++ })
	if !l.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !l.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if l.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("exp mean = %v, want ~1.0", mean)
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(13)
	sum, sumsq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRand(17)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2.0, 1.5)
		if v < 2.0 {
			t.Fatalf("Pareto below xmin: %v", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(19)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
	if counts[0] <= counts[10] {
		t.Fatalf("Zipf rank 0 (%d) not more popular than rank 10 (%d)", counts[0], counts[10])
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRand(23)
	z := NewZipf(r, 5, 1.01)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 5 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestShufflePermutation(t *testing.T) {
	r := NewRand(29)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// Property: the loop clock is monotonic non-decreasing over any
// schedule of events.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		l := NewLoop(3)
		last := Time(-1)
		for _, d := range delays {
			l.Schedule(Time(d), func() {
				if l.Now() < last {
					t.Errorf("clock went backwards: %d < %d", l.Now(), last)
				}
				last = l.Now()
			})
		}
		l.RunAll()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every scheduled (non-cancelled) event fires exactly once.
func TestQuickAllEventsFire(t *testing.T) {
	f := func(delays []uint16) bool {
		l := NewLoop(5)
		fired := 0
		for _, d := range delays {
			l.Schedule(Time(d), func() { fired++ })
		}
		l.RunAll()
		return fired == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLoopScheduleRun(b *testing.B) {
	l := NewLoop(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Schedule(Time(i%1000), func() {})
		if i%1024 == 1023 {
			l.RunAll()
		}
	}
	l.RunAll()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// TestStopEndsRun pins Loop.Stop: events due at the stopping instant
// still fire, later ones stay queued, the clock stays at the stop
// instead of jumping to the horizon, and the next Run carries on.
func TestStopEndsRun(t *testing.T) {
	l := NewLoop(1)
	var fired []Time
	for _, at := range []Time{10, 20, 20, 30} {
		l.At(at, func() { fired = append(fired, l.Now()) })
	}
	l.At(20, l.Stop)
	if now := l.Run(100); now != 20 || len(fired) != 3 || l.Pending() != 1 {
		t.Fatalf("stopped run ended at %v after %v with %d pending, want 20, [10 20 20], 1", now, fired, l.Pending())
	}
	if now := l.Run(100); now != 100 || len(fired) != 4 {
		t.Fatalf("the next run ended at %v after %v, want 100 and all four", now, fired)
	}
}
