package nic

import (
	"math"
	"testing"

	"nezha/internal/sim"
)

func newCPU(loop *sim.Loop, cores int) *CPU {
	return NewCPU(loop, cores, 1_000_000_000, sim.Millisecond) // 1 GHz: 1 cycle = 1 ns
}

func TestServiceTime(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 1)
	if c.ServiceTime(1000) != 1000*sim.Nanosecond {
		t.Fatalf("1000 cycles at 1GHz = %v", c.ServiceTime(1000))
	}
}

func TestSingleCoreSerialization(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 1)
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		c.Submit(100, func(ok bool, d sim.Time) {
			if !ok {
				t.Error("dropped")
			}
			completions = append(completions, loop.Now())
		})
	}
	loop.RunAll()
	want := []sim.Time{100, 200, 300}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("completion %d at %v, want %v", i, completions[i], w)
		}
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 2)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		c.Submit(100, func(ok bool, d sim.Time) { done = append(done, loop.Now()) })
	}
	loop.RunAll()
	if done[0] != 100 || done[1] != 100 {
		t.Fatalf("two cores should finish both at 100: %v", done)
	}
}

func TestQueueingDelayReported(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 1)
	var delays []sim.Time
	for i := 0; i < 2; i++ {
		c.Submit(100, func(ok bool, d sim.Time) { delays = append(delays, d) })
	}
	loop.RunAll()
	if delays[0] != 100 {
		t.Fatalf("first delay = %v, want 100 (service only)", delays[0])
	}
	if delays[1] != 200 {
		t.Fatalf("second delay = %v, want 200 (100 queue + 100 service)", delays[1])
	}
}

func TestOverloadDrops(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 1) // maxDelay = 1ms = 1e6 cycles at 1GHz
	drops := 0
	// Enqueue 2e6 cycles of work instantly; beyond 1ms of backlog we
	// must see drops.
	for i := 0; i < 20; i++ {
		c.Submit(100_000, func(ok bool, d sim.Time) {
			if !ok {
				drops++
			}
		})
	}
	loop.RunAll()
	if drops == 0 {
		t.Fatal("no drops under 2x overload")
	}
	if c.Dropped() != uint64(drops) {
		t.Fatalf("counter mismatch: %d vs %d", c.Dropped(), drops)
	}
	if c.Processed()+c.Dropped() != 20 {
		t.Fatal("processed+dropped != submitted")
	}
}

func TestDropIsSynchronous(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 1)
	// Fill the queue past maxDelay.
	for i := 0; i < 11; i++ {
		c.Submit(100_000, nil)
	}
	dropSeen := false
	c.Submit(1, func(ok bool, d sim.Time) {
		if !ok {
			dropSeen = true
		}
	})
	if !dropSeen {
		t.Fatal("drop callback should fire synchronously at submit time")
	}
	loop.RunAll()
}

// TestTrySubmit checks the admission decision a caller learns at
// submit time: accepted on an idle CPU, refused under a deep backlog.
func TestTrySubmit(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 1)
	admitted := func(cycles uint64) bool {
		ok := true
		c.Submit(cycles, func(accepted bool, _ sim.Time) {
			if !accepted {
				ok = false
			}
		})
		return ok
	}
	if !admitted(100) {
		t.Fatal("Submit should accept on idle CPU")
	}
	for i := 0; i < 15; i++ {
		c.Submit(100_000, nil)
	}
	if admitted(100) {
		t.Fatal("Submit should reject under deep backlog")
	}
	loop.RunAll()
}

func TestUtilizationMeter(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 2)
	m := NewUtilMeter(c)
	// Occupy one of two cores for 1000ns within a 2000ns window.
	c.Submit(1000, nil)
	loop.Run(2000)
	u := m.Sample()
	want := 0.25 // 1000 busy / (2000 * 2 cores)
	if math.Abs(u-want) > 1e-9 {
		t.Fatalf("utilization = %v, want %v", u, want)
	}
	// Next window with no work: zero.
	loop.Schedule(1000, func() {})
	loop.RunAll()
	if u := m.Sample(); u != 0 {
		t.Fatalf("idle window utilization = %v", u)
	}
}

func TestUtilizationCapsAtOne(t *testing.T) {
	loop := sim.NewLoop(1)
	c := newCPU(loop, 1)
	m := NewUtilMeter(c)
	for i := 0; i < 10; i++ {
		c.Submit(100, nil)
	}
	loop.Run(500)
	if u := m.Sample(); u > 1 {
		t.Fatalf("utilization %v > 1", u)
	}
}

func TestMemoryBudget(t *testing.T) {
	m := &Memory{total: 100}
	if !m.Alloc(60) {
		t.Fatal("alloc within budget failed")
	}
	if m.Alloc(50) {
		t.Fatal("alloc over budget succeeded")
	}
	if m.Used() != 60 {
		t.Fatalf("used = %d", m.Used())
	}
	if math.Abs(m.Utilization()-0.6) > 1e-9 {
		t.Fatalf("util = %v", m.Utilization())
	}
	m.Free(60)
	if m.Used() != 0 {
		t.Fatal("free did not refund")
	}
	m.Free(10)
	if m.Used() != 0 {
		t.Fatal("over-free went negative")
	}
	if m.Alloc(-1) {
		t.Fatal("negative alloc succeeded")
	}
}

func TestMemoryZeroTotal(t *testing.T) {
	m := &Memory{}
	if m.Utilization() != 0 {
		t.Fatal("zero-total utilization should be 0")
	}
}

func TestCPUDefaults(t *testing.T) {
	loop := sim.NewLoop(1)
	c := NewCPU(loop, 0, 0, 0)
	if c.Cores() != 1 {
		t.Fatal("cores should clamp to 1")
	}
	if c.ServiceTime(DefaultCoreHz) != sim.Second {
		t.Fatal("default hz wrong")
	}
}

// The calibration check: an 8-core vSwitch at the default clock doing
// ~138k cycles per connection setup sustains O(100K) CPS (§2.2.2).
func TestCalibrationCPSOrder(t *testing.T) {
	loop := sim.NewLoop(1)
	c := NewCPU(loop, DefaultCores, DefaultCoreHz, DefaultMaxQueueDelay)
	perConn := uint64(138_000)
	accepted := 0
	// Offer 1M CPS for 100ms (100K connections); far beyond capacity.
	interval := sim.Microsecond
	var offer func(i int)
	offer = func(i int) {
		if i >= 100_000 {
			return
		}
		c.Submit(perConn, func(ok bool, d sim.Time) {
			if ok {
				accepted++
			}
		})
		loop.Schedule(interval, func() { offer(i + 1) })
	}
	offer(0)
	loop.RunAll()
	elapsed := loop.Now().Seconds()
	cps := float64(accepted) / elapsed
	if cps < 100_000 || cps > 250_000 {
		t.Fatalf("calibrated capacity = %.0f CPS, want O(100K) [100K, 250K]", cps)
	}
}

func BenchmarkSubmit(b *testing.B) {
	loop := sim.NewLoop(1)
	c := NewCPU(loop, 8, DefaultCoreHz, sim.Hour) // never drop
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Submit(1000, nil)
		if i%1024 == 1023 {
			loop.RunAll()
		}
	}
	loop.RunAll()
}

// Utilization returns used/total in 0..1.
func (m *Memory) Utilization() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.used.Load()) / float64(m.total)
}
