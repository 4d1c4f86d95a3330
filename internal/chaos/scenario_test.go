package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nezha/internal/policy"
	"nezha/internal/sim"
)

// TestPolicyScenarioSweep is the acceptance sweep for the self-driving
// policy loop: 25 independently seeded long-horizon diurnal days, each
// fully operated by the policy (no forced offload). In every run the
// policy must converge within 20% of the offline oracle's FE-pool
// size, every invariant — no-blackhole included — must hold, and the
// engine must self-report zero thrash.
//
// Reproduce one seed: go test ./internal/chaos -run PolicyScenarioSweep -chaos.seed=<n>
// With -v, seed 1's converged gap, peak pool and Sirius card count are
// logged; they are the policy numbers README and DESIGN quote.
func TestPolicyScenarioSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep is not run in -short mode")
	}
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
		res, err := RunScenario(ScenarioConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: scenario failed to build: %v", seed, err)
		}
		completed += res.Completed
		if res.Completed == 0 {
			t.Errorf("seed %d: no client exchange completed; the scenario exercised nothing", seed)
		}
		if len(res.Decisions) == 0 {
			t.Errorf("seed %d: the policy never decided anything", seed)
		}
		if res.Score.ConvergedWindows == 0 {
			t.Errorf("seed %d: no converged windows to score — the policy never settled", seed)
		} else if res.Score.ConvergedGapPct > 20 {
			t.Errorf("seed %d: converged oracle gap %.1f%% exceeds the 20%% acceptance bound",
				seed, res.Score.ConvergedGapPct)
		}
		if res.ThrashCount != 0 {
			t.Errorf("seed %d: %d relocation thrash event(s) under the production cooldown", seed, res.ThrashCount)
		}
		if seed == 1 {
			peak := 0
			for _, p := range res.Pools {
				peak = max(peak, p)
			}
			t.Logf("seed 1: converged oracle gap %.2f%% over %d windows, peak policy pool %d FEs vs %d Sirius cards",
				res.Score.ConvergedGapPct, res.Score.ConvergedWindows, peak, res.SiriusCards)
		}
		if res.Failed() {
			t.Errorf("seed %d: %d invariant violation(s); reproduce with:\n\tgo test ./internal/chaos -run PolicyScenarioSweep -chaos.seed=%d",
				seed, len(res.Violations), seed)
			for _, v := range res.Violations {
				t.Logf("seed %d: %v", seed, v)
			}
		}
	}
	if *chaosSeed == 0 {
		t.Logf("sweep totals: completed=%d", completed)
	}
}

// TestPolicyHysteresisProperty is the hysteresis property test: across
// 25 seeds with link flaps battering the fabric, the policy must never
// emit offload→fallback→offload for the same (vnic, table) inside one
// flip-cooldown window — checked both from the raw decision list (this
// test's own scan) and the engine's self-report.
func TestPolicyHysteresisProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("hysteresis property sweep is not run in -short mode")
	}
	seeds := make([]int64, 0, soakSeeds)
	if *chaosSeed != 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		for s := int64(1); s <= soakSeeds; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		res, err := RunScenario(ScenarioConfig{Seed: seed, Flaps: 6})
		if err != nil {
			t.Fatalf("seed %d: scenario failed to build: %v", seed, err)
		}
		cooldown := ScenarioPolicyConfig().FlipCooldown
		// Independent scan: collect flip decisions per (vnic, table) and
		// look for an o→f→o triple completed inside one cooldown.
		flipsBy := make(map[string][]policy.Decision)
		for _, d := range res.Decisions {
			if d.Action == policy.ActOffload || d.Action == policy.ActFallback {
				k := fmt.Sprintf("%d/%s", d.VNIC, d.Table)
				flipsBy[k] = append(flipsBy[k], d)
			}
		}
		for k, fs := range flipsBy {
			for i := 2; i < len(fs); i++ {
				a, b, c := fs[i-2], fs[i-1], fs[i]
				if a.Action == policy.ActOffload && b.Action == policy.ActFallback &&
					c.Action == policy.ActOffload && c.At-a.At <= cooldown {
					t.Errorf("seed %d: %s thrashed within one cooldown: %v / %v / %v", seed, k, a, b, c)
				}
			}
		}
		if res.ThrashCount != 0 {
			t.Errorf("seed %d: engine self-reported %d thrash event(s) under flaps", seed, res.ThrashCount)
		}
	}
}

// TestPolicyThrashNegativeControl proves the policy_thrash invariant
// has teeth: a deliberately thrash-prone configuration (overlapping
// hysteresis bands, zero flip cooldown) must trip it. The load is held
// inside the overlap band the whole run so every window re-flips the
// vNIC.
func TestPolicyThrashNegativeControl(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		Seed:        1,
		Duration:    10 * sim.Second,
		ThrashProne: true,
		PeakCPS:     250,
	})
	if err != nil {
		t.Fatalf("scenario failed to build: %v", err)
	}
	if res.ThrashCount == 0 {
		t.Fatal("thrash-prone config produced zero thrash events — the self-report is vacuous")
	}
	fired := false
	for _, v := range res.Violations {
		if v.Invariant == "policy_thrash" {
			fired = true
			t.Logf("invariant fired as expected: %v", v)
			break
		}
	}
	if !fired {
		t.Fatalf("policy thrashed %d time(s) but the policy_thrash invariant never fired", res.ThrashCount)
	}
}

// TestPolicyScenarioDeterminism pins reproducibility: the same seed
// must yield a byte-identical decision log and digest — the decision
// stream is part of the simulation's observable behavior.
func TestPolicyScenarioDeterminism(t *testing.T) {
	base, err := RunScenario(ScenarioConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunScenario(ScenarioConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if base.Digest != again.Digest {
		t.Fatalf("same seed, different digests: %#x vs %#x", base.Digest, again.Digest)
	}
	if a, b := strings.Join(base.DecisionLog, "\n"), strings.Join(again.DecisionLog, "\n"); a != b {
		t.Fatalf("same seed, different decision logs:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// Golden decision logs: the checked-in policy output for a few seeds
// of each profile. Any engine or calibration change shows up here as a
// reviewable diff.
//
// Regenerate (only when a deliberate policy change lands):
//
//	POLICY_GOLDEN_UPDATE=1 go test ./internal/chaos -run PolicyGoldenDecisionLogs
const policyGoldenSeeds = 3

func policyGoldenPath(profile ScenarioProfile, seed int64) string {
	return filepath.Join("testdata", fmt.Sprintf("policy_decisions_%s_seed%d.log", profile, seed))
}

func TestPolicyGoldenDecisionLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden decision logs are not run in -short mode")
	}
	update := os.Getenv("POLICY_GOLDEN_UPDATE") != ""
	for _, profile := range []ScenarioProfile{ProfileDiurnal, ProfileFestival} {
		for seed := int64(1); seed <= policyGoldenSeeds; seed++ {
			res, err := RunScenario(ScenarioConfig{Seed: seed, Profile: profile})
			if err != nil {
				t.Fatalf("%s seed %d: %v", profile, seed, err)
			}
			got := strings.Join(res.DecisionLog, "\n") + "\n"
			path := policyGoldenPath(profile, seed)
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d decisions)", path, len(res.DecisionLog))
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden decision log (generate with POLICY_GOLDEN_UPDATE=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s seed %d: decision log deviates from golden %s\ngot:\n%swant:\n%s",
					profile, seed, path, got, want)
			}
		}
	}
}
