package chaos

import (
	"fmt"
	"math"

	"nezha/internal/baseline"
	"nezha/internal/cluster"
	"nezha/internal/controller"
	"nezha/internal/journal"
	"nezha/internal/obs"
	"nezha/internal/policy"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

// This file is the long-horizon scenario harness for the policy
// engine: deterministic diurnal and shopping-festival load shapes
// driven through a policy-operated cluster, scored against the offline
// oracle (full-trace hindsight pool plan) and a Sirius-style static
// pool, with the standard chaos invariants plus a policy_thrash
// invariant watching the engine's own flip record.

// ScenarioProfile selects the load shape.
type ScenarioProfile int

// Profiles.
const (
	// ProfileDiurnal is one full raised-cosine day: trough at both
	// ends, peak mid-run.
	ProfileDiurnal ScenarioProfile = iota
	// ProfileFestival is the diurnal shape capped at 60% amplitude
	// with a sudden full-peak plateau over [0.6, 0.8] of the run — the
	// shopping-festival surge the paper sizes elasticity against.
	ProfileFestival
)

func (p ScenarioProfile) String() string {
	switch p {
	case ProfileDiurnal:
		return "diurnal"
	case ProfileFestival:
		return "festival"
	default:
		return fmt.Sprintf("profile(%d)", int(p))
	}
}

// A scenario's rig and cadences.
const (
	// scenarioServers is the region size: BE + clients + FE headroom
	// for the MaxFEs=8 peak pool.
	scenarioServers = 16
	// scenarioClients is the number of open-loop CRR clients.
	scenarioClients = 3
	// scenarioBaseCPS is the total open rate across all clients at
	// the trough.
	scenarioBaseCPS = 150
	// scenarioRateEvery paces the load-shape updates.
	scenarioRateEvery = 250 * sim.Millisecond
	// scenarioCheckEvery paces invariant evaluation.
	scenarioCheckEvery = 50 * sim.Millisecond
)

// ScenarioConfig parameterizes one seeded policy scenario. Everything
// derives from Seed; the same config must produce byte-identical
// decision logs.
type ScenarioConfig struct {
	Seed    int64
	Profile ScenarioProfile
	// Duration is the virtual day (default 40 s).
	Duration sim.Time
	// PeakCPS is the total open rate across all clients at the peak
	// (default 1500).
	PeakCPS float64
	// Policy overrides the scenario-calibrated policy config.
	Policy *policy.Config
	// ThrashProne replaces the hysteresis knobs with a deliberately
	// unstable configuration (overlapping bands, zero cooldown) — the
	// negative control that must trip the policy_thrash invariant.
	ThrashProne bool
	// Flaps injects that many link flaps across the run (satellite
	// churn for the hysteresis property test).
	Flaps int
	// CtrlCrashAt, when positive, crashes the controller at that time
	// and recovers it after CtrlOutage (default 1 s). The engine stops
	// with the controller's tick and resumes, on the tick Recover
	// restarts, from the cooldown state its journal replay restores.
	CtrlCrashAt sim.Time
	// CtrlOutage is how long the controller stays dead (0 = 1 s).
	CtrlOutage sim.Time
	// Hist, when non-nil, is the ops-surface history store: the rig
	// gains an obs bundle, a per-virtual-second snapshot publisher, the
	// policy decision log, and invariant mirroring, so an opsapi server
	// can serve the scenario live. Publishing is observer-only; the
	// decision log and digest stay byte-identical to a run without it.
	Hist *obs.History
	// SLO enables the latency SLO tracker on every vSwitch. Like Hist,
	// it is observer-only: the decision log must stay byte-identical to
	// a run without it.
	SLO bool
}

// ScenarioResult is one scenario's outcome.
type ScenarioResult struct {
	Seed    int64
	Profile ScenarioProfile

	// Decisions / DecisionLog are the engine's full output; the log
	// lines are the golden-file regression handle.
	Decisions   []policy.Decision
	DecisionLog []string

	// Loads / Pools / OraclePlan are index-aligned per-interval traces:
	// relocatable cycles/s the policy observed, the actual FE pool, and
	// the hindsight plan for the same loads.
	Loads      []float64
	Pools      []int
	OraclePlan []int

	// Score compares Pools to OraclePlan from the first offloaded
	// window onward (the pre-offload ramp is the policy's cold start,
	// not a sizing error).
	Score baseline.OracleScore
	// SiriusCards is the static pool the Sirius comparator would hold
	// all day for the same trace (peak-sized, doubled for replication).
	SiriusCards int

	ThrashCount int
	Violations  []Violation
	Completed   uint64
	// Recoveries counts completed controller recoveries; PolicySteps
	// counts engine steps, which a controller outage skips.
	Recoveries  uint64
	PolicySteps uint64
	// P99RampMicros is the p99 connection latency restricted to ramp
	// phases (|load slope| above half its theoretical max), where an
	// under-provisioned pool shows up first.
	P99RampMicros float64
	// P99Micros is the whole-run p99.
	P99Micros float64
	// Digest fingerprints the decision log + pool trace (FNV-1a).
	Digest uint64
}

// Failed reports whether any invariant broke.
func (r ScenarioResult) Failed() bool { return len(r.Violations) > 0 }

// ScenarioView is the JSON-serializable scenario summary served by the
// ops surface at /api/v1/chaos/report.
type ScenarioView struct {
	Seed        int64    `json:"seed"`
	Profile     string   `json:"profile"`
	Failed      bool     `json:"failed"`
	Violations  []string `json:"violations,omitempty"`
	Digest      uint64   `json:"digest"`
	Completed   uint64   `json:"completed"`
	ThrashCount int      `json:"thrash_count"`
	Recoveries  uint64   `json:"recoveries,omitempty"`
	P99Micros   float64  `json:"p99_micros"`
}

// View flattens the result for JSON serving.
func (r ScenarioResult) View() ScenarioView {
	v := ScenarioView{
		Seed:        r.Seed,
		Profile:     r.Profile.String(),
		Failed:      r.Failed(),
		Digest:      r.Digest,
		Completed:   r.Completed,
		ThrashCount: r.ThrashCount,
		Recoveries:  r.Recoveries,
		P99Micros:   r.P99Micros,
	}
	for _, viol := range r.Violations {
		v.Violations = append(v.Violations, viol.String())
	}
	return v
}

// ScenarioPolicyConfig is the policy calibration for the scaled
// scenario rig (2-core 500 MHz vSwitches). A connection's relocatable
// share (slow path + session installs, both roles) measures ~260
// kcycles on this rig, so the server vNIC's load runs ~40 MHz at the
// 150 CPS trough and ~390 MHz at the 1500 CPS peak. The budgets put
// the offload trigger near 400 CPS — well above every client vNIC's
// ceiling, so only the server vNIC pools — and size FEs so the peak
// wants a 9-FE pool at 40% target utilization.
func ScenarioPolicyConfig() policy.Config {
	cfg := policy.Config{
		Windows:        6,
		Horizon:        sim.Second,
		BECapacityHz:   150e6,
		FECapacityHz:   120e6,
		TargetUtil:     0.40,
		OffloadHigh:    0.70,
		FallbackLow:    0.05,
		MinFEs:         4,
		MaxFEs:         10,
		ScaleInSlack:   0,
		ScaleInUtilBar: 0.60,
		SustainWindows: 2,
		FlipCooldown:   5 * sim.Second,
		ScaleCooldown:  2 * sim.Second,
	}
	return cfg
}

// thrashPronePolicyConfig deliberately overlaps the hysteresis bands
// (fallback edge above the offload edge) and zeroes the flip cooldown,
// so any load inside the overlap band flips the vNIC every sustain
// interval. ThrashWindow stays armed: the engine must convict itself.
func thrashPronePolicyConfig() policy.Config {
	cfg := ScenarioPolicyConfig()
	cfg.OffloadHigh = 0.05
	cfg.FallbackLow = 0.60
	cfg.SustainWindows = 1
	cfg.FlipCooldown = 0
	cfg.ThrashWindow = 10 * sim.Second
	return cfg
}

// policyThrash is the invariant over the engine's thrash self-report:
// any offload→fallback→offload triple inside one ThrashWindow means
// the hysteresis/cooldown stack failed.
type policyThrash struct{ eng *policy.Engine }

// PolicyThrash builds the invariant.
func PolicyThrash(eng *policy.Engine) Invariant { return &policyThrash{eng: eng} }

func (c *policyThrash) Name() string { return "policy_thrash" }

func (c *policyThrash) Check(now sim.Time) error {
	if ts := c.eng.ThrashEvents(); len(ts) > 0 {
		return fmt.Errorf("policy thrashed %d time(s) (bound 0); first: %v", len(ts), ts[0])
	}
	return nil
}

// scenarioRate evaluates the load shape at t.
func scenarioRate(p ScenarioProfile, t, dur sim.Time, base, peak float64) float64 {
	frac := float64(t) / float64(dur)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	diurnal := 0.5 * (1 - math.Cos(2*math.Pi*frac))
	switch p {
	case ProfileFestival:
		r := base + (peak-base)*0.6*diurnal
		if frac >= 0.6 && frac < 0.8 {
			r = peak
		}
		return r
	default:
		return base + (peak-base)*diurnal
	}
}

// scenarioSlope is d(rate)/dt of the shape, for ramp-phase detection.
func scenarioSlope(p ScenarioProfile, t, dur sim.Time, base, peak float64) float64 {
	eps := dur / 1000
	r1 := scenarioRate(p, t+eps, dur, base, peak)
	r0 := scenarioRate(p, t, dur, base, peak)
	return (r1 - r0) / eps.Seconds()
}

// RunScenario builds the rig, drives the load shape, and scores the
// policy. The rig mirrors the chaos campaign (BE on server 0, CRR
// clients on 1..scenarioClients) but no offload is forced: every
// transition is the policy engine's decision.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 40 * sim.Second
	}
	if cfg.PeakCPS <= 0 {
		cfg.PeakCPS = 1500
	}

	polCfg := ScenarioPolicyConfig()
	if cfg.ThrashProne {
		polCfg = thrashPronePolicyConfig()
	}
	if cfg.Policy != nil {
		polCfg = *cfg.Policy
	}

	spec := chaosSpec(cfg.Seed, scenarioServers, scenarioClients, scenarioBaseCPS/float64(scenarioClients))
	spec.Controller.InitialFEs = polCfg.MinFEs
	spec.Controller.MinFEs = polCfg.MinFEs

	var ob *obs.Obs
	var pr *prof.Profiler
	if cfg.Hist != nil {
		// Tracing stays off (SampleRate 0): the ops surface needs the
		// registry, spans, flows and the attribution profile — not
		// per-packet flights.
		ob = obs.New(obs.Options{Seed: cfg.Seed})
		pr = prof.New()
	}
	var tracker *slo.Tracker
	if cfg.SLO {
		tracker = slo.NewTracker(slo.Config{})
	}
	spec.Obs, spec.Prof, spec.Policy, spec.SLO = ob, pr, &polCfg, tracker
	w, err := cluster.Build(spec)
	if err != nil {
		return ScenarioResult{}, err
	}
	if cfg.Hist != nil {
		if pub := w.NewOpsPublisher(cfg.Hist, 10); pub != nil {
			pub.Attach(w.Loop)
		}
	}

	var rampHist, allHist slo.Samples
	inRamp := false
	maxSlope := math.Pi * (cfg.PeakCPS - scenarioBaseCPS) / cfg.Duration.Seconds()

	for _, vm := range w.Clients {
		vm.OnComplete = func(lat sim.Time) {
			allHist.Observe(lat.Micros())
			if inRamp {
				rampHist.Observe(lat.Micros())
			}
		}
	}

	// The load shape: retarget every generator on a fixed cadence and
	// track whether the shape is ramping (for the p99 bucket).
	rateTicker := w.Loop.Every(scenarioRateEvery, func() {
		now := w.Loop.Now()
		total := scenarioRate(cfg.Profile, now, cfg.Duration, scenarioBaseCPS, cfg.PeakCPS)
		w.SetLoad(total)
		inRamp = math.Abs(scenarioSlope(cfg.Profile, now, cfg.Duration, scenarioBaseCPS, cfg.PeakCPS)) > 0.5*maxSlope
	})

	// Traces: one sample per engine step, the load it observed and the
	// pool after its decisions.
	pe := w.Ctrl.Policy()
	var loads []float64
	var pools []int
	w.Ctrl.SetTickHook(func() {
		loads = append(loads, pe.LastLoad(cluster.ServerVNIC))
		pools = append(pools, len(w.Ctrl.FEsOf(cluster.ServerVNIC)))
	})

	// Invariants: the standard set plus the policy's own thrash judge.
	rng := sim.NewRand(cfg.Seed ^ 0x6368616f73) // "chaos"
	eng := NewEngine(System{
		Loop: w.Loop, Fab: w.Fab, GW: w.GW, Switches: w.Switches, Mon: w.Mon, Ctrl: w.Ctrl,
	}, rng, Config{
		CheckEvery:   scenarioCheckEvery,
		DetectWindow: detectWindow(spec),
	})
	RegisterStandard(eng)
	eng.Register(PolicyThrash(pe))
	if cfg.Hist != nil {
		eng.AttachHistory(cfg.Hist)
	}

	if cfg.Flaps > 0 {
		var sched Schedule
		for i := 0; i < cfg.Flaps; i++ {
			a, b := rng.Intn(scenarioServers), rng.Intn(scenarioServers)
			if a == b {
				b = (b + 1) % scenarioServers
			}
			sched = append(sched, Action{
				At:   sim.Second + sim.Time(rng.Float64()*float64(cfg.Duration-2*sim.Second)),
				Kind: ActFlap, A: a, B: b,
				Dur: sim.Time((0.05 + 0.3*rng.Float64()) * float64(sim.Second)),
			})
		}
		eng.Apply(sched)
	}

	if cfg.CtrlCrashAt > 0 {
		w.Ctrl.AttachJournal(journal.NewMem())
		outage := cfg.CtrlOutage
		if outage <= 0 {
			outage = sim.Second
		}
		eng.ArmControllerCrash(cfg.CtrlCrashAt, outage, controller.RecoverOpts{})
	}

	w.Start()
	w.StartLoad()
	w.Loop.Run(cfg.Duration)
	w.StopLoad()
	rateTicker.Stop()
	w.Ctrl.Stop()
	// Quiesce so the final check sees a settled system.
	w.Loop.Run(w.Loop.Now() + 2*sim.Second)
	eng.CheckNow()

	res := ScenarioResult{
		Seed:        cfg.Seed,
		Profile:     cfg.Profile,
		Decisions:   pe.Decisions(),
		DecisionLog: append([]string(nil), pe.Log()...),
		Loads:       loads,
		Pools:       pools,
		ThrashCount: len(pe.ThrashEvents()),
		Violations:  eng.Violations(),
		Recoveries:  w.Ctrl.Recoveries(),
	}
	res.PolicySteps = pe.Stats.Steps
	res.Completed = w.Completed()
	res.P99Micros = allHist.Quantile(0.99)
	res.P99RampMicros = rampHist.Quantile(0.99)

	// Oracle scoring from the first offloaded window: before that the
	// policy is still deciding whether to offload at all, which the
	// hindsight plan (always pooled) has no analogue for.
	oc := baseline.OracleConfig{
		FECapacityHz: polCfg.FECapacityHz,
		TargetUtil:   polCfg.TargetUtil,
		MinFEs:       polCfg.MinFEs,
		MaxFEs:       polCfg.MaxFEs,
	}
	res.OraclePlan = oc.OraclePlan(loads)
	first := -1
	for i, p := range pools {
		if p > 0 {
			first = i
			break
		}
	}
	if first >= 0 {
		res.Score = oc.ScoreAgainstOracle(pools[first:], loads[first:])
	}
	res.SiriusCards = oc.SiriusStaticCards(loads)

	d := newDigest()
	for _, line := range res.DecisionLog {
		for i := 0; i < len(line); i++ {
			d.add(uint64(line[i]))
		}
	}
	for _, p := range pools {
		d.add(uint64(p))
	}
	res.Digest = d.sum
	if cfg.Hist != nil {
		cfg.Hist.SetChaosReport(res.View())
	}
	return res, nil
}
