package chaos

import (
	"fmt"
	"testing"

	"nezha/internal/cluster"
	"nezha/internal/obs"
	"nezha/internal/sim"
)

// sampledRun runs seed's chaos world, without faults, for four virtual
// seconds with flight tracing at 25 % (what nezha-sim -obs-sample 0.25
// sets) and returns the trace digest, the events fired and the client
// exchanges completed.
func sampledRun(t *testing.T, seed int64) (trace, fired, completed uint64) {
	t.Helper()
	spec := chaosSpec(seed, 8, 3, 250)
	spec.Obs = obs.New(obs.Options{Seed: seed, SampleRate: 0.25})
	w, err := cluster.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.Ctrl.ForceOffload(cluster.ServerVNIC); err != nil {
		t.Fatal(err)
	}
	w.StartLoad()
	w.Loop.Run(4 * sim.Second)
	return spec.Obs.Tracer.Digest(), w.Loop.Fired(), w.Completed()
}

// TestTraceDigestDeterminism is the sampling-determinism guard: the
// same seed and sample rate must produce a bit-identical flight-trace
// digest across runs (the per-packet sample decision is a hash of
// (seed, packet ID), not a shared rng stream), and a different seed
// must diverge.
func TestTraceDigestDeterminism(t *testing.T) {
	trace, fired, completed := sampledRun(t, 7)
	trace2, fired2, completed2 := sampledRun(t, 7)
	if trace == 0 {
		t.Fatal("trace digest is zero; sampling at 25% recorded no hops")
	}
	if trace != trace2 {
		t.Errorf("trace digest diverged across identical runs: %#x vs %#x", trace, trace2)
	}
	if fired != fired2 || completed != completed2 {
		t.Errorf("run diverged with sampled tracing: %d events and %d exchanges vs %d and %d",
			fired, completed, fired2, completed2)
	}
	if other, _, _ := sampledRun(t, 8); other == trace {
		t.Errorf("seeds 7 and 8 produced identical trace digests (%#x); digest is not sensitive to the run", trace)
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

// TestProfDoesNotPerturbSimulation guards the observer effect of the
// profiler alone, on a second seed: prof on must match prof off.
func TestProfDoesNotPerturbSimulation(t *testing.T) {
	checkTelemetryCombos(t, 11, 0, telProf)
}
