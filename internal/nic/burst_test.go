package nic

import (
	"fmt"
	"testing"

	"nezha/internal/sim"
)

// driveCPU replays a seeded program of batched submissions against a
// CPU, using per-item Submit or SubmitBurst, and returns the exact
// observable log: admission rejections, completions (with delays), and
// — for the burst path — wave boundaries folded in as plain entries so
// ordering relative to completions is checked too.
func driveCPU(burst bool, seed int64, cores int) ([]string, uint64, uint64) {
	loop := sim.NewLoop(7)
	c := NewCPU(loop, cores, 1_000_000_000, 50*sim.Microsecond)
	rng := sim.NewRand(seed)
	var log []string
	for round := 0; round < 40; round++ {
		n := 1 + rng.Intn(12)
		costs := make([]uint64, n)
		for i := range costs {
			// Mix zero-cost, tiny, and chunky items so equal end times
			// (waves) and admission drops both occur.
			switch rng.Intn(4) {
			case 0:
				costs[i] = 0
			case 1:
				costs[i] = uint64(rng.Intn(100))
			default:
				costs[i] = uint64(5000 + rng.Intn(20000))
			}
		}
		r := round
		if burst {
			c.SubmitBurst(costs,
				func(i int, ok bool, d sim.Time) {
					log = append(log, fmt.Sprintf("%d/%d ok=%v d=%d @%d", r, i, ok, d, loop.Now()))
				},
				func(members []int32) {
					log = append(log, fmt.Sprintf("%d wave n=%d @%d", r, len(members), loop.Now()))
				})
		} else {
			for i, cy := range costs {
				i := i
				c.Submit(cy, func(ok bool, d sim.Time) {
					log = append(log, fmt.Sprintf("%d/%d ok=%v d=%d @%d", r, i, ok, d, loop.Now()))
				})
			}
		}
		loop.Run(loop.Now() + sim.Time(rng.Intn(30))*sim.Microsecond)
	}
	loop.RunAll()
	return log, c.Processed(), c.Dropped()
}

// stripWaves removes the wave-boundary entries so burst logs compare
// against per-item logs entry for entry.
func stripWaves(log []string) []string {
	out := log[:0:0]
	for _, e := range log {
		if len(e) > 0 && !containsWave(e) {
			out = append(out, e)
		}
	}
	return out
}

func containsWave(e string) bool {
	for i := 0; i+4 <= len(e); i++ {
		if e[i:i+4] == "wave" {
			return true
		}
	}
	return false
}

// TestSubmitBurstMatchesSubmit checks SubmitBurst is observationally
// identical to per-item Submit: same admissions, same completion times
// and delays, same order, same counters — across core counts and
// seeds.
func TestSubmitBurstMatchesSubmit(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8} {
		for seed := int64(0); seed < 8; seed++ {
			single, p1, d1 := driveCPU(false, seed, cores)
			burstLog, p2, d2 := driveCPU(true, seed, cores)
			if p1 != p2 || d1 != d2 {
				t.Fatalf("cores=%d seed=%d: counters diverge: submit %d/%d, burst %d/%d",
					cores, seed, p1, d1, p2, d2)
			}
			burst := stripWaves(burstLog)
			if len(single) != len(burst) {
				t.Fatalf("cores=%d seed=%d: %d events on submit, %d on burst",
					cores, seed, len(single), len(burst))
			}
			for i := range single {
				if single[i] != burst[i] {
					t.Fatalf("cores=%d seed=%d: event %d: submit %q, burst %q",
						cores, seed, i, single[i], burst[i])
				}
			}
		}
	}
}

// TestSubmitBurstWaves checks wave mechanics directly: zero-cost items
// complete at one instant in one wave; a cost change splits waves; the
// wave callback fires after its members' completions.
func TestSubmitBurstWaves(t *testing.T) {
	loop := sim.NewLoop(1)
	c := NewCPU(loop, 1, 1_000_000_000, sim.Millisecond)
	var events []string
	c.SubmitBurst([]uint64{0, 0, 0, 100, 100},
		func(i int, ok bool, d sim.Time) {
			events = append(events, fmt.Sprintf("done%d@%d", i, loop.Now()))
		},
		func(members []int32) {
			events = append(events, fmt.Sprintf("wave%d@%d", len(members), loop.Now()))
		})
	loop.RunAll()
	want := []string{
		"done0@0", "done1@0", "done2@0", "wave3@0", // three zero-cost items: one wave
		"done3@100", "wave1@100", // 100-cycle items serialize on one core...
		"done4@200", "wave1@200", // ...so distinct end times, distinct waves
	}
	if len(events) != len(want) {
		t.Fatalf("got %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d: got %q, want %q (full: %v)", i, events[i], want[i], events)
		}
	}
}

// TestSubmitBurstDropsSynchronous checks over-bound items are rejected
// synchronously, in submission order, without touching the cores.
func TestSubmitBurstDropsSynchronous(t *testing.T) {
	loop := sim.NewLoop(1)
	c := NewCPU(loop, 1, 1_000_000_000, 10*sim.Nanosecond) // 10ns queue bound
	var rejected []int
	// First item occupies the core far past the bound; the rest must be
	// dropped at admission, synchronously.
	c.SubmitBurst([]uint64{10_000, 5, 5},
		func(i int, ok bool, d sim.Time) {
			if !ok {
				rejected = append(rejected, i)
				if loop.Now() != 0 {
					t.Fatalf("drop of %d fired at %v, want synchronous", i, loop.Now())
				}
			}
		}, nil)
	if len(rejected) != 2 || rejected[0] != 1 || rejected[1] != 2 {
		t.Fatalf("rejected %v, want [1 2]", rejected)
	}
	loop.RunAll()
	if c.Dropped() != 2 || c.Processed() != 1 {
		t.Fatalf("processed=%d dropped=%d, want 1/2", c.Processed(), c.Dropped())
	}
}

// SubmitBurst is SubmitBurstTo with plain callbacks, either of which
// may be nil.
func (c *CPU) SubmitBurst(costs []uint64, each func(i int, ok bool, delay sim.Time), waveEnd func(members []int32)) {
	c.SubmitBurstTo(costs, &funcSink{each: each, waveEnd: waveEnd})
}

type funcSink struct {
	each    func(i int, ok bool, delay sim.Time)
	waveEnd func(members []int32)
}

func (s *funcSink) Complete(i int, ok bool, delay sim.Time) {
	if s.each != nil {
		s.each(i, ok, delay)
	}
}

func (s *funcSink) WaveEnd(members []int32) {
	if s.waveEnd != nil {
		s.waveEnd(members)
	}
}
