package chaos

import (
	"flag"
	"testing"
)

// chaosSeed, when non-zero, replays a single campaign seed — the
// reproduction handle a failing soak run prints:
//
//	go test ./internal/chaos -run Soak -chaos.seed=<n>
var chaosSeed = flag.Int64("chaos.seed", 0, "replay a single soak seed instead of the full sweep")

const soakSeeds = 25

// TestSoak runs 25 independently seeded chaos campaigns against the
// BE+FE rig and requires every invariant to hold in all of them. It
// also guards against the soak silently testing nothing: across the
// sweep, crashes must have been declared and failed over at least
// once, and clients must have completed traffic.
func TestSoak(t *testing.T) {
	seeds := make([]int64, 0, soakSeeds)
	if *chaosSeed != 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		for s := int64(1); s <= soakSeeds; s++ {
			seeds = append(seeds, s)
		}
	}
	var declared, failovers, completed uint64
	for _, seed := range seeds {
		// Every eighth invariant sweep of the soak, and any sweep where
		// residency fails, also runs the reference residency check; a
		// disagreement is a violation like any other.
		rep, err := runCampaign(CampaignConfig{Seed: seed}, registerResidencyDifferential)
		if err != nil {
			t.Fatalf("seed %d: campaign failed to build: %v", seed, err)
		}
		declared += rep.Declared
		failovers += rep.Failovers
		completed += rep.Completed
		if rep.Completed == 0 {
			t.Errorf("seed %d: no client exchange completed; the campaign exercised nothing", seed)
		}
		if rep.Failed() {
			t.Errorf("seed %d: %d invariant violation(s); reproduce with:\n\tgo test ./internal/chaos -run Soak -chaos.seed=%d",
				seed, len(rep.Violations), seed)
			for _, v := range rep.Violations {
				t.Logf("seed %d: %v", seed, v)
			}
			t.Logf("seed %d schedule:", seed)
			for _, a := range rep.Schedule {
				t.Logf("  %v", a)
			}
		}
	}
	if *chaosSeed == 0 {
		if declared == 0 {
			t.Error("no campaign ever declared a crash — schedules are not exercising failure detection")
		}
		if failovers == 0 {
			t.Error("no campaign ever triggered a controller failover")
		}
		t.Logf("sweep totals: declared=%d failovers=%d completed=%d", declared, failovers, completed)
	}
}

// TestSoakMidPushKill is the acceptance sweep for the transactional
// control plane: every campaign additionally crashes or partitions a
// prepare target in the window between prepare and commit, and the
// no-blackhole invariant must still hold — zero blackholes across the
// sweep.
func TestSoakMidPushKill(t *testing.T) {
	seeds := make([]int64, 0, soakSeeds)
	if *chaosSeed != 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		for s := int64(1); s <= soakSeeds; s++ {
			seeds = append(seeds, s)
		}
	}
	var completed uint64
	for _, seed := range seeds {
		rep, err := RunCampaign(CampaignConfig{Seed: seed, MidPushKill: true})
		if err != nil {
			t.Fatalf("seed %d: campaign failed to build: %v", seed, err)
		}
		completed += rep.Completed
		if rep.Completed == 0 {
			t.Errorf("seed %d: no client exchange completed; the campaign exercised nothing", seed)
		}
		if rep.Failed() {
			t.Errorf("seed %d: %d invariant violation(s) under mid-push kill; reproduce with:\n\tgo test ./internal/chaos -run SoakMidPushKill -chaos.seed=%d",
				seed, len(rep.Violations), seed)
			for _, v := range rep.Violations {
				t.Logf("seed %d: %v", seed, v)
			}
		}
	}
	if *chaosSeed == 0 {
		t.Logf("mid-push-kill sweep: completed=%d", completed)
	}
}

// TestTeardownRaceSeeds pins campaigns that blackhole a vNIC when an
// FE's tables are torn down while the gateway can still steer at it:
// a deferred shrink teardown carrying the epoch read at its ack
// instead of the shrink's own, a teardown of an FE re-adopted
// meanwhile, a scale-out commit resurrecting a member removed during
// its commit RPCs, and a rollback racing an unacked shrink. The first
// five failed before the controller's teardown and adopt rules; the
// controller crash in three of them only shapes the timing. Plain 903
// fails if the shrink's teardown alone reverts to the ack-time epoch.
func TestTeardownRaceSeeds(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
	}{
		{"ctrl-crash/302", CampaignConfig{Seed: 302, CtrlCrash: true}},
		{"ctrl-crash/800", CampaignConfig{Seed: 800, CtrlCrash: true}},
		{"ctrl-crash/905", CampaignConfig{Seed: 905, CtrlCrash: true}},
		{"plain/412", CampaignConfig{Seed: 412}},
		{"midpush/40", CampaignConfig{Seed: 40, MidPushKill: true}},
		{"plain/903", CampaignConfig{Seed: 903}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunCampaign(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Error(v)
			}
		})
	}
}

// TestNoBlackholeNegativeControl proves the no-blackhole invariant
// actually has teeth: with the two-phase commit bypassed (the gateway
// flipped fire-and-forget while FE installs are still in flight), at
// least one campaign must record a no-blackhole violation. If none
// does, the invariant is vacuous and the acceptance sweep above means
// nothing.
func TestNoBlackholeNegativeControl(t *testing.T) {
	fired := false
	for seed := int64(1); seed <= 10 && !fired; seed++ {
		rep, err := RunCampaign(CampaignConfig{Seed: seed, BypassTwoPhase: true})
		if err != nil {
			t.Fatalf("seed %d: campaign failed to build: %v", seed, err)
		}
		for _, v := range rep.Violations {
			if v.Invariant == "no-blackhole" {
				fired = true
				t.Logf("seed %d: invariant fired as expected: %v", seed, v)
				break
			}
		}
	}
	if !fired {
		t.Fatal("two-phase commit bypassed but the no-blackhole invariant never fired — the invariant is not detecting uncommitted routing")
	}
}
