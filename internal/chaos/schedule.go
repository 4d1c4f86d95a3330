package chaos

import (
	"fmt"

	"nezha/internal/sim"
)

// ActionKind enumerates fault types a schedule can carry.
type ActionKind int

// Fault kinds.
const (
	// ActLinkFault sets the global loss/jitter model for Dur, then
	// restores the previous model.
	ActLinkFault ActionKind = iota
	// ActPairFault sets a per-link loss/jitter override between
	// switches A and B for Dur.
	ActPairFault
	// ActFlap partitions the pair (A, B) and heals it after Dur.
	ActFlap
	// ActPartitionSweep rolls a partition across A's links: each of
	// the other switches is cut off from A in turn, Dur per link.
	ActPartitionSweep
	// ActCrash crashes switch A and revives it after Dur.
	ActCrash
	// ActMemPressure reserves Bytes of switch A's NIC memory for Dur.
	ActMemPressure
)

func (k ActionKind) String() string {
	switch k {
	case ActLinkFault:
		return "link-fault"
	case ActPairFault:
		return "pair-fault"
	case ActFlap:
		return "flap"
	case ActPartitionSweep:
		return "partition-sweep"
	case ActCrash:
		return "crash"
	case ActMemPressure:
		return "mem-pressure"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// Action is one scheduled fault. A and B index into System.Switches.
type Action struct {
	At     sim.Time
	Kind   ActionKind
	A, B   int
	Dur    sim.Time
	Loss   float64
	Jitter sim.Time
	Bytes  int
}

func (a Action) String() string {
	switch a.Kind {
	case ActLinkFault:
		return fmt.Sprintf("t=%v %v loss=%.2f jitter=%v dur=%v", a.At, a.Kind, a.Loss, a.Jitter, a.Dur)
	case ActPairFault:
		return fmt.Sprintf("t=%v %v sw%d<->sw%d loss=%.2f jitter=%v dur=%v", a.At, a.Kind, a.A, a.B, a.Loss, a.Jitter, a.Dur)
	case ActFlap:
		return fmt.Sprintf("t=%v %v sw%d<->sw%d dur=%v", a.At, a.Kind, a.A, a.B, a.Dur)
	case ActPartitionSweep:
		return fmt.Sprintf("t=%v %v around sw%d dur/link=%v", a.At, a.Kind, a.A, a.Dur)
	case ActCrash:
		return fmt.Sprintf("t=%v %v sw%d dur=%v", a.At, a.Kind, a.A, a.Dur)
	case ActMemPressure:
		return fmt.Sprintf("t=%v %v sw%d bytes=%d dur=%v", a.At, a.Kind, a.A, a.Bytes, a.Dur)
	default:
		return fmt.Sprintf("t=%v %v", a.At, a.Kind)
	}
}

// Schedule is a scripted fault sequence.
type Schedule []Action

// Apply schedules every action on the engine's loop. Actions with
// out-of-range switch indices are ignored (a schedule generated for a
// larger rig degrades instead of panicking).
func (e *Engine) Apply(s Schedule) {
	for _, a := range s {
		a := a
		if a.A < 0 || a.A >= len(e.sys.Switches) || a.B < 0 || a.B >= len(e.sys.Switches) {
			continue
		}
		e.sys.Loop.At(a.At, func() { e.execute(a) })
	}
}

func (e *Engine) execute(a Action) {
	loop := e.sys.Loop
	switch a.Kind {
	case ActLinkFault:
		prev := e.global
		e.SetGlobalFault(a.Loss, a.Jitter)
		if a.Dur > 0 {
			loop.Schedule(a.Dur, func() { e.global = prev })
		}
	case ActPairFault:
		ia, ib := e.sys.Switches[a.A].Addr(), e.sys.Switches[a.B].Addr()
		e.SetLinkFault(ia, ib, a.Loss, a.Jitter)
		if a.Dur > 0 {
			loop.Schedule(a.Dur, func() { e.ClearLinkFault(ia, ib) })
		}
	case ActFlap:
		if a.A == a.B {
			return
		}
		ia, ib := e.sys.Switches[a.A].Addr(), e.sys.Switches[a.B].Addr()
		e.sys.Fab.Partition(ia, ib)
		loop.Schedule(a.Dur, func() { e.sys.Fab.Heal(ia, ib) })
	case ActPartitionSweep:
		center := e.sys.Switches[a.A].Addr()
		step := a.Dur
		if step <= 0 {
			step = 50 * sim.Millisecond
		}
		off := sim.Time(0)
		for i, vs := range e.sys.Switches {
			if i == a.A {
				continue
			}
			other := vs.Addr()
			at := off
			loop.Schedule(at, func() { e.sys.Fab.Partition(center, other) })
			loop.Schedule(at+step, func() { e.sys.Fab.Heal(center, other) })
			off += step
		}
	case ActCrash:
		e.crash(a.A, a.Dur)
	case ActMemPressure:
		release, ok := e.sys.Switches[a.A].InjectMemPressure(a.Bytes)
		if ok && a.Dur > 0 {
			loop.Schedule(a.Dur, release)
		}
	}
}

// GenConfig parameterizes the random schedule generator.
type GenConfig struct {
	// Start and Horizon bound action times to [Start, Start+Horizon).
	Start   sim.Time
	Horizon sim.Time
	// Events is how many fault episodes to draw (default 10).
	Events int
	// Switches is the rig size actions index into.
	Switches int
	// DetectWindow shapes crash durations: short blips stay under
	// 0.6× of it, long crashes exceed it comfortably so the
	// failover-bound invariant has something to judge.
	DetectWindow sim.Time
}

// The fault schedule's severity caps.
const (
	// maxLoss caps an episode's loss probability.
	maxLoss = 0.25
	// maxJitter caps an episode's jitter.
	maxJitter = 200 * sim.Microsecond
	// maxConcurrentCrashes bounds simultaneously crashed switches so
	// random schedules exercise failover rather than tripping the
	// widespread-failure guard every time.
	maxConcurrentCrashes = 2
)

// Generate draws a random schedule from rng. The same rng state and
// config always yield the same schedule — seeds are the reproduction
// handle for failing soak runs.
func Generate(rng *sim.Rand, gc GenConfig) Schedule {
	if gc.Events <= 0 {
		gc.Events = 10
	}
	if gc.DetectWindow <= 0 {
		gc.DetectWindow = 2 * sim.Second
	}
	// crashEnd[i] tracks when switch i revives, to bound overlap.
	crashEnd := make([]sim.Time, gc.Switches)
	var s Schedule
	for len(s) < gc.Events {
		at := gc.Start + sim.Time(rng.Float64()*float64(gc.Horizon))
		switch rng.Intn(6) {
		case 0: // global loss episode
			s = append(s, Action{
				At: at, Kind: ActLinkFault,
				Loss:   rng.Float64() * maxLoss,
				Jitter: sim.Time(rng.Float64() * float64(maxJitter)),
				Dur:    sim.Time((0.2 + 0.8*rng.Float64()) * float64(sim.Second)),
			})
		case 1: // lossy/jittery single link
			a, b := rng.Intn(gc.Switches), rng.Intn(gc.Switches)
			if a == b {
				continue
			}
			s = append(s, Action{
				At: at, Kind: ActPairFault, A: a, B: b,
				Loss:   rng.Float64() * 2 * maxLoss, // single links get hit harder
				Jitter: sim.Time(rng.Float64() * float64(maxJitter)),
				Dur:    sim.Time((0.2 + 1.3*rng.Float64()) * float64(sim.Second)),
			})
		case 2: // link flap
			a, b := rng.Intn(gc.Switches), rng.Intn(gc.Switches)
			if a == b {
				continue
			}
			s = append(s, Action{
				At: at, Kind: ActFlap, A: a, B: b,
				Dur: sim.Time((0.05 + 0.5*rng.Float64()) * float64(sim.Second)),
			})
		case 3: // rolling partition around one switch
			s = append(s, Action{
				At: at, Kind: ActPartitionSweep, A: rng.Intn(gc.Switches),
				Dur: sim.Time((0.02 + 0.1*rng.Float64()) * float64(sim.Second)),
			})
		case 4: // crash/revive
			i := rng.Intn(gc.Switches)
			var dur sim.Time
			if rng.Float64() < 0.5 {
				// Short blip: under the detection window.
				dur = sim.Time(rng.Float64() * 0.6 * float64(gc.DetectWindow))
			} else {
				// Hard crash: the failover bound must fire.
				dur = gc.DetectWindow + sim.Time((0.5+rng.Float64())*float64(sim.Second))
			}
			if crashEnd[i] > at {
				continue // this switch is already scheduled to be down
			}
			concurrent := 0
			for j := range crashEnd {
				if crashEnd[j] > at {
					concurrent++
				}
			}
			if concurrent >= maxConcurrentCrashes {
				continue
			}
			crashEnd[i] = at + dur
			s = append(s, Action{At: at, Kind: ActCrash, A: i, Dur: dur})
		default: // memory-pressure spike
			s = append(s, Action{
				At: at, Kind: ActMemPressure, A: rng.Intn(gc.Switches),
				Bytes: 1 << (18 + rng.Intn(6)), // 256 KB .. 8 MB
				Dur:   sim.Time((0.3 + rng.Float64()) * float64(sim.Second)),
			})
		}
	}
	return s
}
