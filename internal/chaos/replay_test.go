package chaos

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nezha/internal/prof"
	"nezha/internal/sim"
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

// bypassViolation drives the known-bad configuration (two-phase commit
// bypassed) with telemetry off until a seed violates an invariant, and
// returns that campaign's config and report: RunCampaign has replayed
// it into cfg.DumpDir.
func bypassViolation(t *testing.T) (CampaignConfig, Report) {
	t.Helper()
	for seed := int64(1); seed <= 10; seed++ {
		cfg := CampaignConfig{Seed: seed, BypassTwoPhase: true, DumpDir: t.TempDir()}
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			if rep.DumpPath == "" || rep.ProfDumpPath == "" {
				t.Fatalf("failing campaign with DumpDir set: dump=%q prof=%q, want both", rep.DumpPath, rep.ProfDumpPath)
			}
			return cfg, rep
		}
	}
	t.Fatal("bypassed two-phase commit never violated an invariant; negative control is broken")
	return CampaignConfig{}, Report{}
}

// TestViolationDumpNegativeControl requires the failing campaign's
// replay to write, at the moment the no-blackhole invariant fires, a
// flight-recorder dump carrying the failing seed, the control-plane
// event lead-up and hop-by-hop packet traces — the artefacts an
// engineer needs to debug the soak failure.
func TestViolationDumpNegativeControl(t *testing.T) {
	_, rep := bypassViolation(t)
	if rep.JournalPath != "" {
		t.Errorf("campaign without a controller crash wrote a journal: %s", rep.JournalPath)
	}
	raw, err := os.ReadFile(rep.DumpPath)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	dump := string(raw)
	for _, want := range []string{
		"# nezha flight-recorder dump",
		"seed=" + strconv.FormatInt(rep.Seed, 10),
		"invariant=",
		"== spans",
		"== events",
		"== flights",
		"unsafe-commit",
		"flight id=",
		"gw-pick", // hop-by-hop trace includes the gateway steering stage
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump %s missing %q", rep.DumpPath, want)
		}
	}
}

// TestProfDumpOnViolation requires a decodable pprof profile next to
// the flight-recorder dump: the dump says what broke, the profile says
// where the cycles and bytes were going when it did. A second replay
// writes the same bytes of both.
func TestProfDumpOnViolation(t *testing.T) {
	cfg, rep := bypassViolation(t)
	dp := readProfile(t, rep.ProfDumpPath)
	if len(dp.SampleTypes) != 2 {
		t.Fatalf("profile sample types = %v, want cycles+bytes", dp.SampleTypes)
	}
	for _, frame := range []string{"stage:fastpath", "stage:session-install", "vnic:", "node:", "mem:"} {
		if !stackHas(dp, frame) {
			t.Errorf("profile has no %q frame; attribution is missing a dimension", frame)
		}
	}

	again := cfg
	again.DumpDir = t.TempDir()
	rep2, err := Replay(again, rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]string{{rep.DumpPath, rep2.DumpPath}, {rep.ProfDumpPath, rep2.ProfDumpPath}} {
		a, errA := os.ReadFile(p[0])
		b, errB := os.ReadFile(p[1])
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("two replays of seed %d wrote different %s (errors %v, %v)", rep.Seed, filepath.Base(p[0]), errA, errB)
		}
	}
}

// failingInvariant breaks at its first check, so any campaign that
// registers it fails and replays.
type failingInvariant struct{}

func (failingInvariant) Name() string         { return "planted" }
func (failingInvariant) Check(sim.Time) error { return errors.New("planted violation") }

// TestReplayDivergenceIsAnError plants nondeterminism: the hook
// schedules one extra event only in the replay, so the replay's digest
// cannot match the original's, and RunCampaign must say so, naming the
// seed, instead of handing back artefacts of a different run.
func TestReplayDivergenceIsAnError(t *testing.T) {
	calls := 0
	hook := func(e *Engine) {
		calls++
		e.Register(failingInvariant{})
		if calls == 2 {
			e.sys.Loop.Schedule(sim.Second, func() {})
		}
	}
	cfg := CampaignConfig{Seed: 4, Duration: 2 * sim.Second, DumpDir: t.TempDir()}
	_, err := runCampaign(cfg, hook)
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2 (the run and its replay)", calls)
	}
	if err == nil || !strings.Contains(err.Error(), "seed 4") {
		t.Fatalf("diverging replay returned %v, want an error naming seed 4", err)
	}
}

// TestReplayMatchesTraceDigest replays a traced campaign, whose tracer
// kept no hops, with the dump-sized tracer: the two must fold the same
// trace digest, and a report whose trace digest differs must not
// replay.
func TestReplayMatchesTraceDigest(t *testing.T) {
	cfg := CampaignConfig{Seed: 2, Duration: 2 * sim.Second, Obs: true, DumpDir: t.TempDir()}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceDigest == 0 {
		t.Fatal("traced campaign folded no hops")
	}
	if _, err := Replay(cfg, rep); err != nil {
		t.Fatalf("replay of a traced campaign: %v", err)
	}
	rep.TraceDigest ^= 1
	if _, err := Replay(cfg, rep); err == nil || !strings.Contains(err.Error(), "trace digest") {
		t.Fatalf("replay against a wrong trace digest returned %v, want a trace-digest divergence", err)
	}
}

// TestProfDumpOnCleanRun checks the -replay path: a clean campaign
// writes nothing by itself, and its replay writes the final profile, so
// an engineer can feed any run to `go tool pprof`.
func TestProfDumpOnCleanRun(t *testing.T) {
	cfg := CampaignConfig{Seed: 3, DumpDir: t.TempDir()}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("seed 3 baseline campaign violated invariants: %+v", rep.Violations)
	}
	if rep.DumpPath != "" || rep.ProfDumpPath != "" {
		t.Fatalf("clean campaign replayed unasked: dump=%q prof=%q", rep.DumpPath, rep.ProfDumpPath)
	}
	rep, err = Replay(cfg, rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProfDumpPath == "" {
		t.Fatal("replay of a clean campaign wrote no final profile")
	}
	if rep.DumpPath != "" {
		t.Errorf("replay of a clean campaign wrote a violation dump: %s", rep.DumpPath)
	}
	dp := readProfile(t, rep.ProfDumpPath)
	if len(dp.Samples) == 0 {
		t.Fatal("final profile holds no samples — an 8s campaign charged nothing")
	}
	if !stackHas(dp, "stage:ctrl") {
		t.Error("profile missing control-plane attribution (stage:ctrl)")
	}
}
