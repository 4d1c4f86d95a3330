package chaos

import (
	"math"
	"strings"
	"testing"

	"nezha/internal/cluster"
	"nezha/internal/fabric"
	"nezha/internal/monitor"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// testRig is a small scripted-chaos rig: 4 servers, BE on 0 with one
// client on 1, engine with a fast check cadence.
type testRig struct {
	c   *cluster.Cluster
	eng *Engine
	gen *workload.CRR
}

const rigWindow = 1500 * sim.Millisecond

func buildRig(t *testing.T, seed int64) *testRig {
	t.Helper()
	monCfg := monitor.DefaultConfig(cluster.MonitorAddr)
	monCfg.ProbeInterval = 200 * sim.Millisecond
	c := cluster.New(cluster.Options{
		Servers: 4,
		Seed:    seed,
		VSwitch: func(i int, vc *vswitch.Config) {
			vc.Cores = 2
			vc.CoreHz = 500_000_000
		},
		Monitor: monCfg,
	})
	serverIP := packet.MakeIP(10, 0, 100, 1)
	clientIP := packet.MakeIP(10, 0, 1, 1)
	_, err := c.AddVM(cluster.VMSpec{
		Server: 0, VNIC: 100, VPC: 7, IP: serverIP, VCPUs: 32,
		MakeRules: func() *tables.RuleSet {
			rs := tables.NewRuleSet(100, 7)
			rs.Route.Add(tables.MakePrefix(clientIP, 32), packet.IPv4(1))
			return rs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := c.AddVM(cluster.VMSpec{
		Server: 1, VNIC: 1, VPC: 7, IP: clientIP, VCPUs: 8,
		MakeRules: cluster.TwoSubnetRules(1, 7, tables.MakePrefix(serverIP, 24), 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(System{
		Loop: c.Loop, Fab: c.Fab, Switches: c.Switches, Mon: c.Mon, Ctrl: c.Ctrl,
	}, sim.NewRand(seed+1000), Config{CheckEvery: 10 * sim.Millisecond, DetectWindow: rigWindow})
	RegisterStandard(eng)
	return &testRig{c: c, eng: eng, gen: workload.NewCRR(c.Loop, c.Loop.Rand(), vm, serverIP, 400)}
}

func violationNames(vs []Violation) string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Invariant
	}
	return strings.Join(names, ",")
}

// TestUnaccountedDropsCaught is the negative control the engine
// exists for: a deliberately injected accounting bug (chaos drops
// that bypass the ChaosLost counter) must be caught by the
// packet-conservation invariant. The sibling run with accounting left
// on proves the violation comes from the bug, not from lossy links.
func TestUnaccountedDropsCaught(t *testing.T) {
	for _, unaccounted := range []bool{false, true} {
		r := buildRig(t, 42)
		r.eng.unaccounted = unaccounted
		r.eng.Apply(Schedule{{At: 100 * sim.Millisecond, Kind: ActLinkFault, Loss: 0.3, Dur: 2 * sim.Second}})
		r.c.Start()
		r.gen.Start()
		r.c.Loop.Run(3 * sim.Second)
		r.gen.Stop()
		r.eng.SetGlobalFault(0, 0)
		r.c.Loop.Run(r.c.Loop.Now() + sim.Second)
		r.eng.CheckNow()

		if !unaccounted {
			if r.eng.Failed() {
				t.Fatalf("accounted run must be clean, got violations: %s", violationNames(r.eng.Violations()))
			}
			continue
		}
		if !r.eng.Failed() {
			t.Fatal("unaccounted chaos drops were not caught")
		}
		v := r.eng.Violations()[0]
		if v.Invariant != "packet-conservation" {
			t.Fatalf("expected packet-conservation to fire first, got %v", v)
		}
		if !strings.Contains(v.Err.Error(), "unaccounted") {
			t.Fatalf("violation should quantify the missing packets, got: %v", v.Err)
		}
	}
}

// TestFailoverBoundCatchesMissedDetection is the negative control for
// invariant #3: with the health monitor never started, a crashed
// switch is never declared, and the failover-bound invariant must
// flag it once the detection window expires.
func TestFailoverBoundCatchesMissedDetection(t *testing.T) {
	r := buildRig(t, 7)
	// Start the control plane and workload but NOT the monitor.
	r.c.Ctrl.Start()
	r.gen.Start()
	r.eng.Apply(Schedule{{At: 200 * sim.Millisecond, Kind: ActCrash, A: 3, Dur: 4 * sim.Second}})
	r.c.Loop.Run(3 * sim.Second)
	r.gen.Stop()
	r.c.Loop.Run(r.c.Loop.Now() + sim.Second)

	found := false
	for _, v := range r.eng.Violations() {
		if v.Invariant == "failover-bound" {
			found = true
		} else {
			t.Errorf("unexpected violation: %v", v)
		}
	}
	if !found {
		t.Fatalf("missed detection not flagged; violations: %s", violationNames(r.eng.Violations()))
	}
}

// TestShortBlipNotFlagged: a crash that revives inside the detection
// window must not trip the failover bound even if it goes undeclared.
func TestShortBlipNotFlagged(t *testing.T) {
	r := buildRig(t, 8)
	r.c.Start()
	r.gen.Start()
	r.eng.Apply(Schedule{{At: 200 * sim.Millisecond, Kind: ActCrash, A: 3, Dur: 300 * sim.Millisecond}})
	r.c.Loop.Run(3 * sim.Second)
	r.gen.Stop()
	r.c.Loop.Run(r.c.Loop.Now() + sim.Second)
	r.eng.CheckNow()
	if r.eng.Failed() {
		t.Fatalf("short blip flagged: %s", violationNames(r.eng.Violations()))
	}
}

// TestLinkFaultOverride exercises the per-link fault model: a 100%
// global loss with a clean per-link override must drop everything
// except the overridden pair, deterministically.
func TestLinkFaultOverride(t *testing.T) {
	loop := sim.NewLoop(1)
	fab := fabric.New(loop)
	e := NewEngine(System{Loop: loop, Fab: fab}, sim.NewRand(1), Config{})

	a, b := packet.MakeIP(10, 0, 0, 1), packet.MakeIP(10, 0, 0, 2)
	e.SetGlobalFault(1.0, 0)
	if v := e.verdict(a, b, nil); !v.Drop {
		t.Fatal("global loss=1.0 must drop")
	}
	e.SetLinkFault(a, b, 0, 0)
	if v := e.verdict(a, b, nil); v.Drop || v.Jitter != 0 {
		t.Fatalf("per-link clean override must pass, got %+v", v)
	}
	if v := e.verdict(b, a, nil); v.Drop {
		t.Fatal("override must apply in both directions")
	}
	e.ClearLinkFault(b, a)
	if v := e.verdict(a, b, nil); !v.Drop {
		t.Fatal("cleared override must fall back to the global model")
	}
	e.SetGlobalFault(0, 500)
	for i := 0; i < 100; i++ {
		v := e.verdict(a, b, nil)
		if v.Drop {
			t.Fatal("loss=0 must never drop")
		}
		if v.Jitter < 0 || v.Jitter >= 500 {
			t.Fatalf("jitter %v outside [0, 500)", v.Jitter)
		}
	}
}

// TestGenerateRespectsCrashBound replays generated schedules and
// checks the generator's promises: crash episodes never overlap on
// one switch, at most 2 switches are down at once, and durations are
// either short blips or decisively longer than the detection window.
func TestGenerateRespectsCrashBound(t *testing.T) {
	const window = 2 * sim.Second
	for seed := int64(0); seed < 20; seed++ {
		sched := Generate(sim.NewRand(seed), GenConfig{
			Start: sim.Second, Horizon: 10 * sim.Second,
			Events: 40, Switches: 8, DetectWindow: window,
		})
		if len(sched) != 40 {
			t.Fatalf("seed %d: got %d events, want 40", seed, len(sched))
		}
		type span struct{ start, end sim.Time }
		bySwitch := make(map[int][]span)
		var crashes []span
		for _, a := range sched {
			if a.Kind != ActCrash {
				continue
			}
			if a.Dur >= sim.Time(0.6*float64(window)) && a.Dur <= window {
				t.Errorf("seed %d: ambiguous crash duration %v (window %v)", seed, a.Dur, window)
			}
			s := span{a.At, a.At + a.Dur}
			for _, prev := range bySwitch[a.A] {
				if s.start < prev.end && prev.start < s.end {
					t.Errorf("seed %d: overlapping crashes on switch %d", seed, a.A)
				}
			}
			bySwitch[a.A] = append(bySwitch[a.A], s)
			crashes = append(crashes, s)
		}
		for _, s := range crashes {
			down := 0
			for _, o := range crashes {
				if s.start >= o.start && s.start < o.end {
					down++
				}
			}
			if down > 2 {
				t.Errorf("seed %d: %d switches down at %v, want <= 2", seed, down, s.start)
			}
		}
	}
}

// TestScheduleApplyIgnoresOutOfRange: schedules generated for a larger
// rig must degrade, not panic.
func TestScheduleApplyIgnoresOutOfRange(t *testing.T) {
	loop := sim.NewLoop(1)
	fab := fabric.New(loop)
	e := NewEngine(System{Loop: loop, Fab: fab}, sim.NewRand(1), Config{})
	e.Apply(Schedule{{At: sim.Second, Kind: ActCrash, A: 5, Dur: sim.Second}})
	loop.Run(2 * sim.Second)
}

// TestRunCampaignRejectsRatesThatNeverAdvance: a rate the campaign's
// zero-means-default rule does not cover is an error before any world
// is built.
func TestRunCampaignRejectsRatesThatNeverAdvance(t *testing.T) {
	for _, r := range []float64{math.NaN(), math.Inf(1), -5} {
		if _, err := RunCampaign(CampaignConfig{Seed: 1, Duration: sim.Millisecond, RatePerClient: r}); err == nil ||
			!strings.Contains(err.Error(), "client rate") {
			t.Errorf("RatePerClient %v: error %v, want a client-rate error", r, err)
		}
	}
}
