package policy

import (
	"strings"
	"testing"

	"nezha/internal/sim"
)

// testConfig is a small, fast calibration for dry-run engine tests:
// BE budget 1 MHz, FEs sized so desiredPool = ceil(pred/0.5MHz).
func testConfig() Config {
	return Config{
		Windows:        4,
		Horizon:        sim.Second,
		BECapacityHz:   1e6,
		FECapacityHz:   1e6,
		TargetUtil:     0.5,
		OffloadHigh:    0.70,
		FallbackLow:    0.20,
		MinFEs:         1,
		MaxFEs:         4,
		ScaleInSlack:   0,
		ScaleInUtilBar: 0.60,
		SustainWindows: 2,
		FlipCooldown:   5 * sim.Second,
		ScaleCooldown:  sim.Second,
	}
}

// feed drives a dry-run engine with vNIC 1's slow-path cycles, one
// 500 ms window per step.
type feed struct {
	*Engine
	rule uint64 // vNIC 1's cumulative counter
}

func newFeed(cfg Config) *feed { return &feed{Engine: New(cfg)} }

// step closes the window [t-500ms, t] in which vNIC 1 burned cycles;
// live, when non-nil, is the pool the controller reports.
func (f *feed) step(t sim.Time, cycles uint64, live *Load) []Decision {
	f.Rebase(t-500*sim.Millisecond, nil)
	f.rule += cycles
	l := Load{VNIC: 1, Rule: f.rule}
	if live != nil {
		l.Offloaded, l.Pool, l.PoolUtil = live.Offloaded, live.Pool, live.PoolUtil
	}
	return f.Step(t, []Load{l}, live != nil)
}

// stepN feeds n identical windows at 500 ms cadence starting at start,
// returning all decisions.
func (f *feed) stepN(start sim.Time, n int, cycles uint64) []Decision {
	var out []Decision
	for i := 0; i < n; i++ {
		t := start + sim.Time(i)*500*sim.Millisecond
		out = append(out, f.step(t, cycles, nil)...)
	}
	return out
}

func TestTrendExtrapolatesLinearGrowth(t *testing.T) {
	hist := []point{
		{t: 0, load: 100},
		{t: sim.Second, load: 200},
		{t: 2 * sim.Second, load: 300},
	}
	got := trend(hist, sim.Second)
	if got < 395 || got > 405 {
		t.Fatalf("trend(+1s) = %.1f, want ~400", got)
	}
	if flat := trend([]point{{t: 0, load: 50}, {t: sim.Second, load: 50}}, sim.Second); flat != 50 {
		t.Fatalf("flat trend = %.1f, want 50", flat)
	}
	if single := trend([]point{{t: 0, load: 77}}, sim.Second); single != 77 {
		t.Fatalf("single-point trend = %.1f, want the observation", single)
	}
	// A falling trend never extrapolates below zero.
	fall := []point{{t: 0, load: 100}, {t: sim.Second, load: 10}}
	if got := trend(fall, sim.Second); got != 0 {
		t.Fatalf("falling trend clamped to %.1f, want 0", got)
	}
}

// TestOffloadNeedsSustainedTrigger: one hot window must not offload;
// SustainWindows consecutive ones must.
func TestOffloadNeedsSustainedTrigger(t *testing.T) {
	e := newFeed(testConfig())
	// 500k cycles / 0.5 s = 1 MHz = 1.0 of BE capacity ≥ OffloadHigh.
	hot := uint64(500_000)
	if ds := e.stepN(sim.Second, 1, hot); len(ds) != 0 {
		t.Fatalf("single hot window already decided: %+v", ds)
	}
	// One cold window resets the run; another lone hot one stays quiet.
	if ds := e.stepN(1500*sim.Millisecond, 1, 10_000); len(ds) != 0 {
		t.Fatalf("cold window decided: %+v", ds)
	}
	if ds := e.stepN(2*sim.Second, 1, hot); len(ds) != 0 {
		t.Fatalf("hot-after-reset window decided: %+v", ds)
	}
	// Two consecutive hot windows: offload fires once.
	ds := e.stepN(2500*sim.Millisecond, 2, hot)
	if len(ds) != 1 || ds[0].Action != ActOffload {
		t.Fatalf("sustained trigger produced %+v, want one offload", ds)
	}
	if ds[0].VNIC != 1 || ds[0].Pool != 0 || ds[0].Delta < 1 {
		t.Fatalf("offload decision fields: %+v", ds[0])
	}
}

// TestFallbackRespectsCooldown: after an offload, a cold stretch
// inside the flip cooldown must not fall back; after it, it must.
func TestFallbackRespectsCooldown(t *testing.T) {
	e := newFeed(testConfig())
	hot, cold := uint64(500_000), uint64(10_000)
	if ds := e.stepN(sim.Second, 2, hot); len(ds) != 1 || ds[0].Action != ActOffload {
		t.Fatalf("setup offload: %+v", ds)
	}
	// Cold from t=2s. Cooldown runs until 1.5s+5s = 6.5s; sustained
	// cold triggers long before that but must be held, with no
	// scale-ins sneaking in below MinFEs either.
	ds := e.stepN(2*sim.Second, 8, cold) // t = 2 .. 5.5s
	for _, d := range ds {
		if d.Action == ActFallback {
			t.Fatalf("fallback inside flip cooldown at t=%v", d.At)
		}
	}
	// Past the cooldown the sustained cold trigger finally lands.
	ds = e.stepN(7*sim.Second, 2, cold)
	found := false
	for _, d := range ds {
		if d.Action == ActFallback {
			found = true
			if d.Delta != -d.Pool {
				t.Fatalf("fallback delta %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("no fallback after cooldown expiry: %+v", ds)
	}
}

// TestScalePoolTracksLoad: dry-run pool grows with rising load and
// shrinks back, spaced by the scale cooldown.
func TestScalePoolTracksLoad(t *testing.T) {
	cfg := testConfig()
	cfg.ScaleCooldown = 0
	e := newFeed(cfg)
	// Offload at 1.0 of BE capacity → pool = ceil(1MHz/0.5MHz) = 2.
	if ds := e.stepN(sim.Second, 2, 500_000); len(ds) != 1 || ds[0].Delta != 2 {
		t.Fatalf("setup offload: %+v", ds)
	}
	// Load doubles: desired 4, pool 2 → scale-out +2.
	ds := e.stepN(10*sim.Second, 2, 1_000_000)
	var scaleOut *Decision
	for i := range ds {
		if ds[i].Action == ActScaleOut {
			scaleOut = &ds[i]
		}
	}
	if scaleOut == nil || scaleOut.Delta != 2 || scaleOut.Pool != 2 {
		t.Fatalf("scale-out = %+v, want +2 from pool 2", scaleOut)
	}
	// Gradual ramp-down (a cliff would extrapolate straight through the
	// fallback band): the trend stays above FallbackLow, so the pool
	// shrinks instead of collapsing.
	var scaleIn *Decision
	for i, c := range []uint64{800_000, 700_000, 600_000, 500_000, 450_000, 400_000} {
		tt := 20*sim.Second + sim.Time(i)*500*sim.Millisecond
		for _, d := range e.step(tt, c, nil) {
			if d.Action == ActFallback {
				t.Fatalf("fell back at mid load: %+v", d)
			}
			if d.Action == ActScaleIn {
				d := d
				scaleIn = &d
			}
		}
	}
	if scaleIn == nil || scaleIn.Delta < 1 {
		t.Fatalf("no scale-in on the way down")
	}
}

// TestDesiredPoolClamps pins the clamp edges.
func TestDesiredPoolClamps(t *testing.T) {
	e := newFeed(testConfig())
	if got := e.desiredPool(0); got != 1 {
		t.Fatalf("desiredPool(0) = %d, want MinFEs", got)
	}
	if got := e.desiredPool(1e12); got != 4 {
		t.Fatalf("desiredPool(huge) = %d, want MaxFEs", got)
	}
	if got := e.desiredPool(1.4e6); got != 3 {
		t.Fatalf("desiredPool(1.4MHz) = %d, want ceil(2.8)=3", got)
	}
}

// TestThrashJudge: with overlapping bands and zero cooldown the engine
// must flip offload→fallback→offload and convict itself; with the sane
// config the same judge stays silent.
func TestThrashJudge(t *testing.T) {
	cfg := testConfig()
	cfg.OffloadHigh = 0.05
	cfg.FallbackLow = 0.60 // overlap: anything in (0.05, 0.60) flips forever
	cfg.SustainWindows = 1
	cfg.FlipCooldown = 0
	cfg.ThrashWindow = 10 * sim.Second
	e := newFeed(cfg)
	mid := uint64(100_000) // 0.2 MHz = 0.2 of BE capacity, inside the overlap
	e.stepN(sim.Second, 6, mid)
	if len(e.ThrashEvents()) == 0 {
		t.Fatal("overlapping bands with zero cooldown never convicted themselves")
	}
	ev := e.ThrashEvents()[0]
	if ev.VNIC != 1 || ev.Span > cfg.ThrashWindow {
		t.Fatalf("thrash event %+v", ev)
	}

	// Sane config: same load shape (alternating around the bands),
	// zero thrash events thanks to the cooldown.
	sane := newFeed(testConfig())
	for i := 0; i < 20; i++ {
		t := sim.Second + sim.Time(i)*500*sim.Millisecond
		load := uint64(500_000) // hot
		if i%2 == 1 {
			load = 10_000 // cold
		}
		sane.step(t, load, nil)
	}
	if n := len(sane.ThrashEvents()); n != 0 {
		t.Fatalf("sane config self-reported %d thrash events", n)
	}
}

// TestDryRunDeterminism: two engines fed the same windows must produce
// byte-identical logs.
func TestDryRunDeterminism(t *testing.T) {
	run := func() string {
		e := newFeed(testConfig())
		loads := []uint64{100_000, 400_000, 500_000, 600_000, 900_000, 1_000_000, 700_000, 300_000, 150_000, 50_000}
		for i, c := range loads {
			tt := sim.Second + sim.Time(i)*500*sim.Millisecond
			e.step(tt, c, nil)
		}
		return strings.Join(e.Log(), "\n")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same windows, different logs:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("the run decided nothing — the determinism check is vacuous")
	}
}

// TestScaleInUtilBarHoldsHotPool: in live mode, a pool whose measured
// FE utilization is above the bar must not scale in even when the
// prediction says it could.
func TestScaleInUtilBarHoldsHotPool(t *testing.T) {
	cfg := testConfig()
	cfg.ScaleCooldown = 0
	e := newFeed(cfg)
	// Low load (desired 1 < pool 4) but hot FEs: hold.
	for i := 0; i < 4; i++ {
		tt := sim.Second + sim.Time(i)*500*sim.Millisecond
		for _, d := range e.step(tt, 150_000, &Load{Offloaded: true, Pool: 4, PoolUtil: 0.9}) {
			if d.Action == ActScaleIn {
				t.Fatalf("scaled in a pool measured at 90%% util: %+v", d)
			}
		}
	}
	// Same prediction with cool FEs: scale-in goes through.
	found := false
	for i := 4; i < 8 && !found; i++ {
		tt := sim.Second + sim.Time(i)*500*sim.Millisecond
		for _, d := range e.step(tt, 150_000, &Load{Offloaded: true, Pool: 4, PoolUtil: 0.2}) {
			if d.Action == ActScaleIn {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("cool pool never scaled in")
	}
}

// TestRebaseBaselinesCumulativeLoads: the engine differences the
// cumulative counters it is fed, both roles' cycles alike, against its
// previous step, and Rebase — a recovered controller's first read —
// moves that baseline, so the next step sees only what was charged
// since, over the time since.
func TestRebaseBaselinesCumulativeLoads(t *testing.T) {
	e := New(testConfig())
	e.Step(500*sim.Millisecond, []Load{{VNIC: 1, Rule: 400_000, Sess: 100_000}}, false)
	if got := e.LastLoad(1); got != 1e6 {
		t.Fatalf("first window load %.0f cycles/s, want 1e6 (500k cycles since 0 over 0.5 s)", got)
	}
	e.Step(sim.Second, []Load{{VNIC: 1, Rule: 450_000, Sess: 100_000}}, false)
	if got := e.LastLoad(1); got != 1e5 {
		t.Fatalf("second window load %.0f cycles/s, want 1e5 (the 50k-cycle delta)", got)
	}
	// A crash loses the baselines; the recovered controller rebases at
	// 3.2 s, after 9M cycles were charged unobserved.
	e.Forget()
	e.Rebase(3200*sim.Millisecond, []Load{{VNIC: 1, Rule: 9_450_000, Sess: 100_000}})
	e.Step(3700*sim.Millisecond, []Load{{VNIC: 1, Rule: 9_500_000, Sess: 100_000}}, false)
	if got := e.LastLoad(1); got != 1e5 {
		t.Fatalf("first recovered window load %.0f cycles/s, want 1e5: the unobserved history leaked in", got)
	}
}
