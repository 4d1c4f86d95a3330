package chaos

import (
	"strings"
	"testing"

	"nezha/internal/sim"
)

// TestScenarioDecisionLogUnchangedBySLO is the same observer-effect
// pin for the policy scenario harness: the decision log — the
// golden-file regression handle — must stay byte-identical with the
// latency ledger attached.
func TestScenarioDecisionLogUnchangedBySLO(t *testing.T) {
	cfg := ScenarioConfig{Seed: 3, Profile: ProfileDiurnal, Duration: 12 * sim.Second}
	base, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withSLO := cfg
	withSLO.SLO = true
	tracked, err := RunScenario(withSLO)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(tracked.DecisionLog, "\n"), strings.Join(base.DecisionLog, "\n"); got != want {
		t.Errorf("decision log diverged with SLO attached:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if base.Digest != tracked.Digest {
		t.Errorf("scenario digest diverged: %016x vs %016x", base.Digest, tracked.Digest)
	}
}

// TestSLOCleanAcrossSeeds soaks the slo-burn-bound invariant against
// ordinary fault campaigns: with the default (lenient) objective, the
// standard schedules must not trip it — transient burns during crash
// detection and failover recover within the streak allowance.
func TestSLOCleanAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rep, err := RunCampaign(CampaignConfig{Seed: seed, SLO: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			if v.Invariant == "slo-burn-bound" {
				t.Errorf("seed %d: burn invariant fired on an ordinary campaign: %v", seed, v)
			}
		}
	}
}

// TestOverloadedVNICP99Spike is the acceptance scenario: a campaign
// whose clients deliberately overrun the BE's vSwitch must reproduce
// a p99 spike on the server vNIC, visible through the tracker's
// worst-offender report.
func TestOverloadedVNICP99Spike(t *testing.T) {
	objective := 2 * sim.Millisecond
	baseline, err := RunCampaign(CampaignConfig{
		Seed: 5, Duration: 4 * sim.Second,
		SLO: true, SLOObjective: objective,
	})
	if err != nil {
		t.Fatal(err)
	}
	overloaded, err := RunCampaign(CampaignConfig{
		Seed: 5, Duration: 4 * sim.Second, RatePerClient: 2500,
		SLO: true, SLOObjective: objective,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst p99: baseline %v (vnic %d), overloaded %v (vnic %d)",
		baseline.SLOWorstP99, baseline.SLOWorstVNIC,
		overloaded.SLOWorstP99, overloaded.SLOWorstVNIC)
	if overloaded.SLOWorstP99 <= sim.Time(objective) {
		t.Errorf("overloaded campaign p99 %v never crossed the %v objective", overloaded.SLOWorstP99, objective)
	}
	if overloaded.SLOWorstP99 < 2*baseline.SLOWorstP99 {
		t.Errorf("overload p99 %v is not a spike over baseline %v", overloaded.SLOWorstP99, baseline.SLOWorstP99)
	}
	if overloaded.SLOBurnEvents == 0 {
		t.Error("sustained overload produced no burn events")
	}
}
