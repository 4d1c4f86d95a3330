package chaos

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestViolationDumpNegativeControl drives the known-bad configuration
// (two-phase commit bypassed) with observability on and requires the
// engine to auto-emit a flight-recorder dump at the moment the
// no-blackhole invariant fires. The dump must carry the failing seed,
// the control-plane event lead-up, and hop-by-hop packet traces —
// the artifacts an engineer needs to debug the soak failure.
func TestViolationDumpNegativeControl(t *testing.T) {
	dir := t.TempDir()
	var rep Report
	for seed := int64(1); seed <= 10; seed++ {
		r, err := RunCampaign(CampaignConfig{
			Seed: seed, BypassTwoPhase: true,
			Obs: true, ObsDumpDir: dir,
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
	if rep.DumpPath == "" {
		t.Fatal("invariant violated with obs enabled but no flight-recorder dump was written")
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
	if rep.TraceDigest == 0 {
		t.Error("obs-enabled campaign produced a zero trace digest; tracing recorded nothing")
	}
}

// TestTraceDigestDeterminism is the sampling-determinism guard: the
// same seed and sample rate must produce a bit-identical flight-trace
// digest across runs (the per-packet sample decision is a hash of
// (seed, packet ID), not a shared rng stream), and a different seed
// must diverge.
func TestTraceDigestDeterminism(t *testing.T) {
	cfg := CampaignConfig{Seed: 7, Obs: true, ObsSampleRate: 0.25}
	a, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest == 0 {
		t.Fatal("trace digest is zero; sampling at 25% recorded no hops")
	}
	if a.TraceDigest != b.TraceDigest {
		t.Errorf("trace digest diverged across identical runs: %#x vs %#x", a.TraceDigest, b.TraceDigest)
	}
	if a.Digest != b.Digest {
		t.Errorf("end-state digest diverged with obs enabled: %#x vs %#x", a.Digest, b.Digest)
	}
	other, err := RunCampaign(CampaignConfig{Seed: 8, Obs: true, ObsSampleRate: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if other.TraceDigest == a.TraceDigest {
		t.Errorf("seeds 7 and 8 produced identical trace digests (%#x); digest is not sensitive to the run", a.TraceDigest)
	}
}

// Telemetry combinations as bit masks: obs, prof and slo on or off.
const (
	telObs = 1 << iota
	telProf
	telSLO
)

// checkTelemetryCombos runs one campaign per combination on one seed.
// The first combination is the reference: every other run must reach
// its end-state digest and completion count, and every obs-on run must
// record the flight-trace digest of the first obs-on run.
func checkTelemetryCombos(t *testing.T, seed int64, combos ...int) {
	t.Helper()
	var base, traced Report
	haveTrace := false
	for i, c := range combos {
		cfg := CampaignConfig{Seed: seed, Obs: c&telObs != 0, Prof: c&telProf != 0, SLO: c&telSLO != 0}
		name := fmt.Sprintf("obs=%t prof=%t slo=%t", cfg.Obs, cfg.Prof, cfg.SLO)
		if cfg.Prof {
			cfg.ProfDir = t.TempDir()
		}
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i == 0 {
			base = rep
		} else if rep.Digest != base.Digest || rep.Completed != base.Completed {
			t.Errorf("%s changed the run: digest %#x completed %d, want %#x and %d (all off)",
				name, rep.Digest, rep.Completed, base.Digest, base.Completed)
		}
		if cfg.Obs {
			if !haveTrace {
				traced, haveTrace = rep, true
			} else if rep.TraceDigest != traced.TraceDigest {
				t.Errorf("%s changed the flight traces: %#x, want %#x (obs only)", name, rep.TraceDigest, traced.TraceDigest)
			}
		}
		if cfg.Prof && rep.ProfDumpPath == "" {
			t.Errorf("%s: ProfDir set but no profile was written", name)
		}
		if cfg.SLO && rep.SLOWorstP99 == 0 {
			t.Errorf("%s: SLO-enabled campaign recorded no latency at all; the ledger is not wired", name)
		}
	}
}

// TestTelemetryDoesNotPerturbSimulation guards the observer effect for
// every telemetry combination: the obs layer, the attribution profiler
// and the latency ledger, each on or off, on one seed. All eight runs
// must reach the same end-state digest and completion count, and the
// four runs with obs on must record the same flight-trace digest.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	checkTelemetryCombos(t, 9, 0, telObs, telProf, telObs|telProf,
		telSLO, telObs|telSLO, telProf|telSLO, telObs|telProf|telSLO)
}

// TestObsDoesNotPerturbSimulation guards the observer effect of the obs
// layer alone: obs on must match obs off for the same seed.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	checkTelemetryCombos(t, 9, 0, telObs)
}

// TestProfDoesNotPerturbSimulation guards the observer effect of the
// profiler alone, on a second seed: prof on must match prof off.
func TestProfDoesNotPerturbSimulation(t *testing.T) {
	checkTelemetryCombos(t, 11, 0, telProf)
}

// TestSLODoesNotPerturbSimulation guards the observer effect of the
// latency ledger: SLO on must match SLO off, and with the obs layer
// also attached the flight-trace digest must be untouched too.
func TestSLODoesNotPerturbSimulation(t *testing.T) {
	checkTelemetryCombos(t, 9, 0, telSLO, telObs, telObs|telSLO)
}
