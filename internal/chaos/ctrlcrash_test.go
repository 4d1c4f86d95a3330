package chaos

import (
	"testing"

	"nezha/internal/sim"
)

// TestControllerCrashSoak is the acceptance sweep for controller
// crash-recovery: 25 independently seeded campaigns, each of which
// kills and journal-recovers the controller mid-run on top of the
// generated fault schedule, rotating through the three crash
// placements — fixed mid-run time, inside the first prepare window,
// and dead in the commit gap between the gateway flip and its ack.
// Every crash-recovery invariant (epoch monotonicity, no duplicate
// replay, recovery bound) plus the full standard set must hold, and
// the sweep must actually exercise recovery: every campaign completes
// at least one recovery and moves client traffic.
func TestControllerCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("controller-crash soak takes minutes; skipped in -short")
	}
	seeds := make([]int64, 0, soakSeeds)
	if *chaosSeed != 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		for s := int64(1); s <= soakSeeds; s++ {
			seeds = append(seeds, s)
		}
	}
	var completed, recoveries uint64
	for _, seed := range seeds {
		cfg := CampaignConfig{Seed: seed}
		var mode string
		switch seed % 3 {
		case 0:
			cfg.CtrlCrash = true
			mode = "fixed-time"
		case 1:
			cfg.CtrlCrashOnPrepare = true
			mode = "on-prepare"
		default:
			cfg.CtrlCrashAtCommitGap = true
			mode = "commit-gap"
		}
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("seed %d (%s): campaign failed to build: %v", seed, mode, err)
		}
		completed += rep.Completed
		recoveries += rep.Recoveries
		if rep.Completed == 0 {
			t.Errorf("seed %d (%s): no client exchange completed; the campaign exercised nothing", seed, mode)
		}
		if rep.Recoveries == 0 {
			t.Errorf("seed %d (%s): controller never recovered; the crash schedule exercised nothing", seed, mode)
		}
		if rep.Failed() {
			t.Errorf("seed %d (%s): %d invariant violation(s); reproduce with:\n\tgo test ./internal/chaos -run ControllerCrashSoak -chaos.seed=%d",
				seed, mode, len(rep.Violations), seed)
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
		t.Logf("controller-crash sweep: recoveries=%d completed=%d", recoveries, completed)
	}
}

// TestSkipReconcileNegativeControl proves the crash-recovery
// invariants have teeth: a crash landed in the commit gap (gateway
// flipped, resolve unjournaled) whose recovery skips live-world
// reconciliation blindly rolls the committed offload back, tearing the
// FE tables out from under the gateway's live route. At least one seed
// must record a violation — no-blackhole is the expected catch — or
// the crash soak above proves nothing about reconciliation.
func TestSkipReconcileNegativeControl(t *testing.T) {
	fired := false
	for seed := int64(1); seed <= 10 && !fired; seed++ {
		rep, err := RunCampaign(CampaignConfig{
			Seed:                 seed,
			CtrlCrashAtCommitGap: true,
			SkipReconcile:        true,
		})
		if err != nil {
			t.Fatalf("seed %d: campaign failed to build: %v", seed, err)
		}
		if rep.Recoveries == 0 {
			continue // offload never committed: the gap never opened
		}
		for _, v := range rep.Violations {
			fired = true
			t.Logf("seed %d: invariant fired as expected: %v", seed, v)
			break
		}
	}
	if !fired {
		t.Fatal("reconciliation skipped after a commit-gap crash but no invariant fired — recovery correctness is unverified")
	}
}

// TestCrashRecoveryDecisionLogSuffix pins the strongest recovery
// property the deterministic rig affords: a controller that crashes
// and recovers from its journal must go on to make byte-for-byte the
// decisions a crash-free control run makes. Controller RPC traffic
// never touches the data path (pure latency fabric, flow-directed
// control packets, RoleCtrl profiler charges excluded from policy
// windows), so the workload the policy observes is identical in both
// runs; the crash is placed in the ramp before the first decision
// (control decides first at t=13.5s) so the single misaligned
// post-revive window — the rebuilt reader is primed at the revive
// instant, off a tick boundary — rolls out of the 6-window history
// (by ~13.1s) before any decision consumes it. The post-recovery
// suffix that must match is therefore the ENTIRE log; any divergence
// means recovery rehydrated the policy engine or the attribution
// reader incorrectly.
func TestCrashRecoveryDecisionLogSuffix(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario pair takes a while; skipped in -short")
	}
	const (
		seed = int64(1)
		// Revive at 9.6s, between ticks, so the revive event and a policy
		// tick never race at the same instant.
		crashAt = 8500 * sim.Millisecond
		outage  = 1100 * sim.Millisecond
	)
	control, err := RunScenario(ScenarioConfig{Seed: seed, Profile: ProfileFestival})
	if err != nil {
		t.Fatalf("control scenario: %v", err)
	}
	crashed, err := RunScenario(ScenarioConfig{
		Seed: seed, Profile: ProfileFestival,
		CtrlCrashAt: crashAt, CtrlOutage: outage,
	})
	if err != nil {
		t.Fatalf("crashed scenario: %v", err)
	}
	if control.Failed() {
		t.Fatalf("control run violated invariants: %v", control.Violations)
	}
	if crashed.Failed() {
		t.Fatalf("crashed run violated invariants: %v", crashed.Violations)
	}
	if crashed.Recoveries != 1 {
		t.Fatalf("crashed run recoveries = %d, want 1", crashed.Recoveries)
	}
	if crashed.PolicyBackoffs == 0 {
		t.Error("policy loop never backed off during the outage; the crash window exercised nothing")
	}
	if len(control.DecisionLog) == 0 {
		t.Fatal("control run made no decisions; the comparison is vacuous")
	}
	if len(crashed.DecisionLog) != len(control.DecisionLog) {
		t.Fatalf("decision count diverged: control=%d crashed=%d\ncontrol: %v\ncrashed: %v",
			len(control.DecisionLog), len(crashed.DecisionLog), control.DecisionLog, crashed.DecisionLog)
	}
	for i := range control.DecisionLog {
		if control.DecisionLog[i] != crashed.DecisionLog[i] {
			t.Errorf("decision %d diverged:\n  control: %s\n  crashed: %s",
				i, control.DecisionLog[i], crashed.DecisionLog[i])
		}
	}
}

// TestCommitGapCrashAdoptsIntent pins the reconciliation direction for
// the hardest window: the crash lands after the gateway installed the
// flip but before the ack reached the controller, so the journal holds
// an open intent whose commit DID land. Recovery must adopt it — the
// vNIC ends the run offloaded at the committed epoch — rather than
// rolling back the prepare and stranding the gateway's route. In seed
// 42 the first gateway query of the recovery times out: a timeout is
// no answer, and the recovered intent must wait for a known one.
func TestCommitGapCrashAdoptsIntent(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		rep, err := RunCampaign(CampaignConfig{Seed: seed, CtrlCrashAtCommitGap: true})
		if err != nil {
			t.Fatalf("seed %d: campaign failed to build: %v", seed, err)
		}
		if rep.Recoveries != 1 {
			t.Fatalf("seed %d: recoveries = %d, want 1 (the commit gap never opened)", seed, rep.Recoveries)
		}
		if rep.Failed() {
			t.Fatalf("seed %d: invariants violated: %v", seed, rep.Violations)
		}
		if rep.Completed == 0 {
			t.Fatalf("seed %d: no client exchange completed", seed)
		}
	}
}
