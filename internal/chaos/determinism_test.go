package chaos

import (
	"slices"
	"sync"
	"testing"
)

// TestCampaignDeterminism is the regression guard for the repo's
// determinism contract under chaos: the same seed and config must
// produce a bit-identical end-state digest across runs. Any wall-clock
// read, map-iteration-order dependency, or un-seeded randomness on the
// fault path shows up here as a digest mismatch.
func TestCampaignDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 11, 19} {
		cfg := CampaignConfig{Seed: seed}
		a, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("seed %d run 1: %v", seed, err)
		}
		b, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("seed %d run 2: %v", seed, err)
		}
		if a.Digest != b.Digest {
			t.Errorf("seed %d: digest diverged across identical runs: %#x vs %#x", seed, a.Digest, b.Digest)
		}
		if a.Completed != b.Completed || a.Declared != b.Declared || a.Failovers != b.Failovers {
			t.Errorf("seed %d: summary counters diverged: run1=%+v run2=%+v", seed, a, b)
		}
		if len(a.Schedule) != len(b.Schedule) {
			t.Errorf("seed %d: generated schedules differ in length: %d vs %d", seed, len(a.Schedule), len(b.Schedule))
		}
	}
}

// TestDifferentSeedsDiverge is the digest's own sanity check: if two
// different seeds produce the same digest, the digest is not actually
// capturing the run.
func TestDifferentSeedsDiverge(t *testing.T) {
	a, err := RunCampaign(CampaignConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(CampaignConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Errorf("seeds 5 and 6 produced identical digests (%#x); digest is not sensitive to the run", a.Digest)
	}
}

// TestConcurrentCampaignsAgree runs two identical campaigns at once,
// one per goroutine. Campaigns share no state, so both must reach the
// same digest and the same violations; under -race (CI's
// `go test -race ./internal/...`) a package-level variable either run
// writes shows up as a data race.
func TestConcurrentCampaignsAgree(t *testing.T) {
	var reps [2]Report
	var errs [2]error
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = RunCampaign(CampaignConfig{Seed: 1})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
	a, b := reps[0], reps[1]
	if a.Digest != b.Digest {
		t.Errorf("concurrent identical campaigns diverged: digest %#x vs %#x", a.Digest, b.Digest)
	}
	if !slices.EqualFunc(a.Violations, b.Violations, func(x, y Violation) bool { return x.String() == y.String() }) {
		t.Errorf("concurrent identical campaigns diverged: violations %v vs %v", a.Violations, b.Violations)
	}
}
