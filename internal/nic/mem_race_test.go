package nic

import (
	"sync"
	"testing"

	"nezha/internal/sim"
)

// TestMemoryConcurrentReaders exercises Alloc/Free on one goroutine
// (the sim-loop role) while others hammer Used/Utilization — the
// monitor/controller read pattern. Run under -race this proves the
// accounting is synchronized; the final balance proves CAS loops
// don't lose updates.
func TestMemoryConcurrentReaders(t *testing.T) {
	m := &Memory{total: 1 << 20}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if u := m.Used(); u < 0 || u > m.Total() {
					t.Errorf("Used()=%d out of [0,%d]", u, m.Total())
					return
				}
				if f := m.Utilization(); f < 0 || f > 1 {
					t.Errorf("Utilization()=%v out of [0,1]", f)
					return
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		if m.Alloc(64) {
			m.Free(64)
		}
	}
	close(stop)
	wg.Wait()
	if got := m.Used(); got != 0 {
		t.Fatalf("Used()=%d after balanced alloc/free, want 0", got)
	}
}

// TestMemoryConcurrentAllocFree runs allocators and freers in
// parallel: the budget must never over-commit and must balance out.
func TestMemoryConcurrentAllocFree(t *testing.T) {
	const (
		workers = 8
		rounds  = 5000
		unit    = 128
	)
	m := &Memory{total: int64(workers * unit * 2)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if m.Alloc(unit) {
					if m.Used() > m.Total() {
						t.Errorf("over-committed: used %d > total %d", m.Used(), m.Total())
						return
					}
					m.Free(unit)
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Used(); got != 0 {
		t.Fatalf("Used()=%d after balanced alloc/free, want 0", got)
	}
}

// TestCoreBusyTimes checks the per-core busy sampler sums to BusyTime
// and tracks the earliest-free-core placement.
func TestCoreBusyTimes(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := NewCPU(loop, 2, 1_000_000_000, sim.Second)
	cpu.Submit(1_000_000, nil) // 1ms on core 0
	cpu.Submit(2_000_000, nil) // 2ms on core 1
	loop.Run(10 * sim.Millisecond)
	per := cpu.CoreBusyTimes(nil)
	if len(per) != 2 {
		t.Fatalf("got %d cores, want 2", len(per))
	}
	var sum sim.Time
	for _, b := range per {
		sum += b
	}
	if sum != cpu.BusyTime() {
		t.Errorf("per-core busy sums to %d, BusyTime()=%d", sum, cpu.BusyTime())
	}
	if per[0] != sim.Millisecond || per[1] != 2*sim.Millisecond {
		t.Errorf("per-core busy %v, want [1ms 2ms]", per)
	}
}
