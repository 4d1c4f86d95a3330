package chaos

import (
	"os"
	"strings"
	"testing"

	"nezha/internal/prof"
)

// readProfile loads and decodes the profile at path, failing the test
// on any error.
func readProfile(t *testing.T, path string) *prof.DecodedProfile {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading profile dump: %v", err)
	}
	dp, err := prof.DecodeProfile(raw)
	if err != nil {
		t.Fatalf("decoding profile dump %s: %v", path, err)
	}
	return dp
}

// stackHas reports whether any sample's stack contains a frame with
// the given prefix.
func stackHas(dp *prof.DecodedProfile, prefix string) bool {
	for _, s := range dp.Samples {
		for _, f := range s.Stack {
			if strings.HasPrefix(f, prefix) {
				return true
			}
		}
	}
	return false
}

// TestProfDumpOnViolation drives the known-bad configuration with the
// profiler on and requires a decodable pprof profile next to the
// flight-recorder dump: the dump says what broke, the profile says
// where the cycles and bytes were going when it did.
func TestProfDumpOnViolation(t *testing.T) {
	dir := t.TempDir()
	var rep Report
	for seed := int64(1); seed <= 10; seed++ {
		r, err := RunCampaign(CampaignConfig{
			Seed: seed, BypassTwoPhase: true,
			Obs: true, ObsDumpDir: dir,
			Prof: true, ProfDir: dir,
		})
		if err != nil {
			t.Fatalf("seed %d: campaign failed to build: %v", seed, err)
		}
		if r.Failed() {
			rep = r
			break
		}
	}
	if !rep.Failed() {
		t.Fatal("bypassed two-phase commit never violated an invariant; negative control is broken")
	}
	if rep.DumpPath == "" || rep.ProfDumpPath == "" {
		t.Fatalf("violation with obs+prof enabled: dump=%q prof=%q, want both", rep.DumpPath, rep.ProfDumpPath)
	}
	dp := readProfile(t, rep.ProfDumpPath)
	if len(dp.SampleTypes) != 2 {
		t.Fatalf("profile sample types = %v, want cycles+bytes", dp.SampleTypes)
	}
	for _, frame := range []string{"stage:fastpath", "stage:session-install", "vnic:", "node:", "mem:"} {
		if !stackHas(dp, frame) {
			t.Errorf("profile has no %q frame; attribution is missing a dimension", frame)
		}
	}
}

// TestProfDumpOnCleanRun checks a fault-free -prof campaign still
// writes the final profile, so an engineer can feed any run to
// `go tool pprof`.
func TestProfDumpOnCleanRun(t *testing.T) {
	dir := t.TempDir()
	rep, err := RunCampaign(CampaignConfig{Seed: 3, Prof: true, ProfDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("seed 3 baseline campaign violated invariants: %+v", rep.Violations)
	}
	if rep.ProfDumpPath == "" {
		t.Fatal("clean campaign with ProfDir set wrote no final profile")
	}
	dp := readProfile(t, rep.ProfDumpPath)
	if len(dp.Samples) == 0 {
		t.Fatal("final profile holds no samples — an 8s campaign charged nothing")
	}
	if !stackHas(dp, "stage:ctrl") {
		t.Error("profile missing control-plane attribution (stage:ctrl)")
	}
}
