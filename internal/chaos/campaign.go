package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"nezha/internal/cluster"
	"nezha/internal/controller"
	"nezha/internal/journal"
	"nezha/internal/monitor"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// CampaignConfig parameterizes one seeded chaos campaign: a BE+FE
// cluster under client load, a randomly generated fault schedule, and
// the standard invariant set. Everything derives from Seed.
type CampaignConfig struct {
	Seed int64
	// Duration is total virtual run time (default 8 s).
	Duration sim.Time
	// Servers is the region size (default 8; the BE is server 0,
	// clients live on 1..Clients).
	Servers int
	// Clients is the number of client VMs (default 3).
	Clients int
	// RatePerClient is each client's CRR open rate (default 250/s).
	RatePerClient float64
	// Events is the number of fault episodes to generate (default 12).
	Events int
	// CheckEvery paces invariant evaluation (default 20 ms).
	CheckEvery sim.Time
	// UnaccountedDrops turns on the deliberate conservation bug, for
	// negative tests that prove the checker catches it.
	UnaccountedDrops bool
	// MidPushKill arms a one-shot crash-or-partition of a prepare
	// target in the window between prepare and commit (see
	// Engine.ArmMidPushKill), on top of the generated schedule.
	MidPushKill bool
	// BypassTwoPhase makes the controller skip the prepare/commit
	// protocol and flip the gateway fire-and-forget — the negative
	// control proving the no-blackhole invariant fires when the
	// two-phase commit is bypassed.
	BypassTwoPhase bool
	// CtrlCrash arms one controller crash/revive episode on top of the
	// generated schedule: the controller journals to an in-memory WAL,
	// crashes at CtrlCrashAt (default mid-run), and recovers after
	// CtrlOutage (default 1.5 s).
	CtrlCrash bool
	// CtrlCrashAt is the crash time (0 = Duration/2).
	CtrlCrashAt sim.Time
	// CtrlOutage is how long the controller stays dead (0 = 1.5 s).
	CtrlOutage sim.Time
	// CtrlCrashOnPrepare replaces the fixed-time crash with one armed on
	// the controller's first prepare, landing at a short random offset so
	// seeds sample both sides of the commit point. Mutually exclusive
	// with MidPushKill (both want the single prepare-hook slot).
	CtrlCrashOnPrepare bool
	// CtrlCrashAtCommitGap replaces the fixed-time crash with a
	// deterministic one landing in the gap between the gateway
	// installing the campaign vNIC's offload flip and the controller
	// journaling the resolve — the window where recovery MUST adopt a
	// commit the dead incarnation never heard the ack for.
	CtrlCrashAtCommitGap bool
	// SkipReconcile makes recovery skip the live-world reconciliation
	// and blindly roll back open intents — the negative control proving
	// the crash-recovery invariants fire when reconciliation is broken.
	SkipReconcile bool
	// RecoveryBound overrides the recovery-time allowance (0 = 5 s).
	RecoveryBound sim.Time
	// Obs enables the observability layer: labeled telemetry, sampled
	// packet flight tracing, transaction spans, and the flight recorder
	// whose contents are dumped on the first invariant violation.
	Obs bool
	// ObsSampleRate is the flight-trace sampling probability (default
	// 1.0 when Obs is on — campaign rigs are small enough to trace
	// every packet).
	ObsSampleRate float64
	// ObsDumpDir, when non-empty, is where a violation's flight-recorder
	// dump is written (nezha-dump-seed<N>.txt).
	ObsDumpDir string
	// Prof enables the cycle/byte attribution profiler on every
	// vSwitch and the controller.
	Prof bool
	// ProfDir, when non-empty (and Prof is on), is where the
	// pprof-encoded attribution profile is written
	// (nezha-prof-seed<N>.pb.gz) — at the first invariant violation,
	// or at campaign end on a clean run.
	ProfDir string
	// Hist, when non-nil, is the ops-surface history store: a publisher
	// feeds it one registry snapshot per virtual second (plus spans and
	// attribution profiles) and the engine mirrors invariant violations
	// into it, so an opsapi server can serve the run live. Requires Obs.
	// Publishing happens through loop observers only, so an attached
	// history leaves digests, decision logs, and verdicts bit-identical.
	Hist *obs.History
	// Pace throttles the run to Pace× wall-clock speed (0 = unpaced).
	// Used with Hist + -listen so a live scraper sees snapshots arrive
	// in real time instead of the campaign finishing in milliseconds.
	Pace float64
	// SLO enables the latency/hot-flow SLO tracker on every vSwitch,
	// the slo-burn-bound invariant, and slo_burn flight-recorder
	// events (when Obs is also on). The layer is observer-effect-free:
	// digests with SLO on must equal the same seed with it off.
	SLO bool
	// SLOObjective overrides the per-vNIC latency objective (0 =
	// slo.DefaultObjective, 100 ms).
	SLOObjective sim.Time
	// SLOBurnStreak overrides how many consecutive burning windows the
	// invariant tolerates (0 = DefaultSLOBurnStreak).
	SLOBurnStreak int
}

// Report is a campaign's outcome.
type Report struct {
	Seed       int64
	Duration   sim.Time
	Schedule   Schedule
	Violations []Violation
	// Digest is an FNV-1a fingerprint of the end state: event count,
	// final clock, and every counter that traffic touches. Two runs of
	// the same seed must produce identical digests.
	Digest uint64
	// Completed is the number of client request/response exchanges
	// that finished — a campaign that moved no traffic proves nothing.
	Completed uint64
	// Declared / Failovers summarize how much failure handling the
	// schedule actually exercised.
	Declared  uint64
	Failovers uint64
	// TraceDigest fingerprints the sampled flight-trace hop stream
	// (zero when Obs is off). Same seed + same sample rate must yield
	// the same digest.
	TraceDigest uint64
	// DumpPath is the flight-recorder dump written on the first
	// invariant violation ("" when none was written).
	DumpPath string
	// ProfDumpPath is the pprof-encoded attribution profile written at
	// the first violation or at campaign end ("" when none).
	ProfDumpPath string
	// Recoveries / RecoveryMs summarize controller crash handling: how
	// many recoveries completed and how long the last one took from
	// revive to settled (zero when no controller crash was armed).
	Recoveries uint64
	RecoveryMs float64
	// JournalPath is the journal dump written next to the flight
	// recorder on a failing crash campaign ("" when none).
	JournalPath string
	// SLO worst-offender summary (zero when the SLO layer was off or
	// recorded nothing): the vNIC with the highest cumulative p99, its
	// p99, the configured objective, and total burning windows.
	SLOWorstVNIC  uint32
	SLOWorstP99   sim.Time
	SLOObjective  sim.Time
	SLOBurnEvents uint64
}

// Failed reports whether any invariant broke.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// ReportView is the JSON-serializable form of a Report served by the
// ops surface at /api/v1/chaos/report (violations flattened to
// strings so they survive encoding).
type ReportView struct {
	Seed        int64    `json:"seed"`
	Duration    sim.Time `json:"duration"`
	Failed      bool     `json:"failed"`
	Violations  []string `json:"violations,omitempty"`
	Digest      uint64   `json:"digest"`
	TraceDigest uint64   `json:"trace_digest,omitempty"`
	Completed   uint64   `json:"completed"`
	Declared    uint64   `json:"declared"`
	Failovers   uint64   `json:"failovers"`
	Recoveries  uint64   `json:"recoveries,omitempty"`
	RecoveryMs  float64  `json:"recovery_ms,omitempty"`
	// SLO worst-offender summary (omitted when the SLO layer was off).
	SLOWorstVNIC  uint32   `json:"slo_worst_vnic,omitempty"`
	SLOWorstP99   sim.Time `json:"slo_worst_p99,omitempty"`
	SLOObjective  sim.Time `json:"slo_objective,omitempty"`
	SLOBurnEvents uint64   `json:"slo_burn_events,omitempty"`
}

// View flattens the report for JSON serving.
func (r Report) View() ReportView {
	v := ReportView{
		Seed:        r.Seed,
		Duration:    r.Duration,
		Failed:      r.Failed(),
		Digest:      r.Digest,
		TraceDigest: r.TraceDigest,
		Completed:   r.Completed,
		Declared:    r.Declared,
		Failovers:   r.Failovers,
		Recoveries:  r.Recoveries,
		RecoveryMs:  r.RecoveryMs,

		SLOWorstVNIC:  r.SLOWorstVNIC,
		SLOWorstP99:   r.SLOWorstP99,
		SLOObjective:  r.SLOObjective,
		SLOBurnEvents: r.SLOBurnEvents,
	}
	for _, viol := range r.Violations {
		v.Violations = append(v.Violations, viol.String())
	}
	return v
}

const (
	campaignVNIC = 100
	campaignVPC  = 7
)

func campaignServerIP() packet.IPv4 { return packet.MakeIP(10, 0, 100, 1) }
func campaignClientIP(i int) packet.IPv4 {
	return packet.MakeIP(10, 0, byte(1+i), 1)
}

// RunCampaign builds the rig, runs the schedule, and judges the
// invariants. The rig: one high-demand server VM homed on server 0
// (the BE), offloaded to an FE pool, with open-loop CRR clients on
// servers 1..Clients hammering it while faults land.
func RunCampaign(cfg CampaignConfig) (Report, error) { return runCampaign(cfg, nil) }

// runCampaign is RunCampaign with an optional hook that sees the engine
// once the standard invariants are registered — how tests add their own
// (a reference implementation checked against the real one, say).
func runCampaign(cfg CampaignConfig, extra func(*Engine)) (Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 8 * sim.Second
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 8
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if cfg.Clients > cfg.Servers-1 {
		return Report{}, fmt.Errorf("chaos: %d clients need %d servers, have %d", cfg.Clients, cfg.Clients+1, cfg.Servers)
	}
	if cfg.RatePerClient <= 0 {
		cfg.RatePerClient = 250
	}
	if cfg.Events <= 0 {
		cfg.Events = 12
	}

	monCfg := monitor.DefaultConfig(cluster.MonitorAddr)
	monCfg.ProbeInterval = 200 * sim.Millisecond
	// Worst case: crash lands just after an answered probe wave, so
	// declaration needs Misses+2 rounds; slack covers the controller.
	detectWindow := monCfg.ProbeInterval*sim.Time(monCfg.Misses+2) + 500*sim.Millisecond

	// Majority quorum (instead of the default all-targets) keeps a
	// single killed prepare target from aborting every offload the
	// schedule provokes — the commit path itself must stay safe.
	ctrlCfg := controller.DefaultConfig()
	ctrlCfg.PrepareQuorumFrac = 0.5
	ctrlCfg.UnsafeDirectCommit = cfg.BypassTwoPhase

	var ob *obs.Obs
	if cfg.Obs {
		rate := cfg.ObsSampleRate
		if rate <= 0 {
			rate = 1.0
		}
		ob = obs.New(obs.Options{Seed: cfg.Seed, SampleRate: rate})
	}
	var pr *prof.Profiler
	if cfg.Prof {
		pr = prof.New()
	}
	var tracker *slo.Tracker
	if cfg.SLO {
		tracker = slo.NewTracker(slo.Config{
			Objective: int64(cfg.SLOObjective),
			OnBurn: func(now int64, ev slo.BurnEvent) {
				// Flight-recorder only: the ring is outside every digest,
				// so the event is free of observer effects. Safe when ob
				// is nil (Event is nil-receiver-safe).
				ob.Event(sim.Time(now), "slo_burn", 0, ev.VNIC,
					"burn=%.1f consecutive=%d window=%d violations=%d",
					ev.Burn, ev.Consecutive, ev.Window, ev.Violations)
			},
		})
	}

	c := cluster.New(cluster.Options{
		Servers: cfg.Servers,
		Seed:    cfg.Seed,
		VSwitch: func(i int, vc *vswitch.Config) {
			vc.Cores = 2
			vc.CoreHz = 500_000_000
		},
		Controller: ctrlCfg,
		Monitor:    monCfg,
		Obs:        ob,
		Prof:       pr,
		SLO:        tracker,
	})

	// Server (BE) VM on server 0.
	serverNet := tables.MakePrefix(campaignServerIP(), 24)
	_, err := c.AddVM(cluster.VMSpec{
		Server: 0, VNIC: campaignVNIC, VPC: campaignVPC, IP: campaignServerIP(), VCPUs: 64,
		MakeRules: func() *tables.RuleSet {
			rs := tables.NewRuleSet(campaignVNIC, campaignVPC)
			for i := 0; i < cfg.Clients; i++ {
				rs.Route.Add(tables.MakePrefix(campaignClientIP(i), 32), packet.IPv4(uint32(i+1)))
			}
			return rs
		},
	})
	if err != nil {
		return Report{}, err
	}
	var clients []*workload.VM
	var gens []*workload.CRR
	for i := 0; i < cfg.Clients; i++ {
		vnic := uint32(i + 1)
		vm, err := c.AddVM(cluster.VMSpec{
			Server: i + 1, VNIC: vnic, VPC: campaignVPC, IP: campaignClientIP(i), VCPUs: 8,
			MakeRules: cluster.TwoSubnetRules(vnic, campaignVPC, serverNet, campaignVNIC),
		})
		if err != nil {
			return Report{}, err
		}
		clients = append(clients, vm)
		gens = append(gens, workload.NewCRR(c.Loop, c.Loop.Rand(), vm, campaignServerIP(), cfg.RatePerClient))
	}

	// Chaos randomness is a dedicated stream (offset so it never
	// collides with the workload stream seeded directly from Seed).
	rng := sim.NewRand(cfg.Seed ^ 0x6368616f73) // "chaos"
	eng := NewEngine(System{
		Loop: c.Loop, Fab: c.Fab, GW: c.GW, Switches: c.Switches, Mon: c.Mon, Ctrl: c.Ctrl,
	}, rng, Config{
		CheckEvery:    cfg.CheckEvery,
		DetectWindow:  detectWindow,
		RecoveryBound: cfg.RecoveryBound,
	})
	RegisterStandard(eng)
	if tracker != nil {
		eng.Register(SLOBurnBound(tracker, cfg.SLOBurnStreak))
	}
	if extra != nil {
		extra(eng)
	}
	eng.SetUnaccountedDrops(cfg.UnaccountedDrops)
	if ob != nil {
		dumpPath := ""
		if cfg.ObsDumpDir != "" {
			dumpPath = filepath.Join(cfg.ObsDumpDir, fmt.Sprintf("nezha-dump-seed%d.txt", cfg.Seed))
		}
		eng.AttachObs(ob, dumpPath, cfg.Seed)
	}
	if pr != nil && cfg.ProfDir != "" {
		eng.AttachProf(pr, filepath.Join(cfg.ProfDir, fmt.Sprintf("nezha-prof-seed%d.pb.gz", cfg.Seed)))
	}
	if cfg.Hist != nil {
		if ob == nil {
			return Report{}, fmt.Errorf("chaos: CampaignConfig.Hist requires Obs")
		}
		eng.AttachHistory(cfg.Hist)
		if pub := c.NewOpsPublisher(cfg.Hist, 10); pub != nil {
			pub.Attach(c.Loop)
		}
	}
	if cfg.Pace > 0 {
		sim.AttachPacer(c.Loop, cfg.Pace)
	}

	// Faults land after offload has settled and stop early enough
	// that most crash windows resolve inside the run.
	chaosStart := sim.Second
	horizon := cfg.Duration - chaosStart - sim.Second
	if horizon < sim.Second {
		horizon = cfg.Duration / 2
		chaosStart = cfg.Duration / 4
	}
	sched := Generate(rng, GenConfig{
		Start:        chaosStart,
		Horizon:      horizon,
		Events:       cfg.Events,
		Switches:     cfg.Servers,
		DetectWindow: detectWindow,
	})
	eng.Apply(sched)
	if cfg.MidPushKill {
		eng.ArmMidPushKill()
	}
	var jrn *journal.Journal
	if cfg.CtrlCrash || cfg.CtrlCrashOnPrepare || cfg.CtrlCrashAtCommitGap {
		jrn = journal.NewMem()
		c.Ctrl.AttachJournal(jrn)
		outage := cfg.CtrlOutage
		if outage <= 0 {
			outage = 1500 * sim.Millisecond
		}
		opts := controller.RecoverOpts{SkipReconcile: cfg.SkipReconcile}
		switch {
		case cfg.CtrlCrashAtCommitGap:
			eng.ArmControllerCrashAtCommitGap(campaignVNIC, outage, opts)
		case cfg.CtrlCrashOnPrepare:
			eng.ArmControllerCrashOnPrepare(outage, opts)
		default:
			at := cfg.CtrlCrashAt
			if at <= 0 {
				at = cfg.Duration / 2
			}
			eng.ArmControllerCrash(at, outage, opts)
		}
	}

	c.Start()
	if err := c.Ctrl.ForceOffload(campaignVNIC); err != nil {
		return Report{}, err
	}
	for _, g := range gens {
		g.Start()
	}
	c.Loop.Run(cfg.Duration)
	for _, g := range gens {
		g.Stop()
	}
	// Quiesce: stop injecting faults and let in-flight work drain so
	// the final check sees a settled system.
	eng.SetGlobalFault(0, 0)
	c.Loop.Run(c.Loop.Now() + 2*sim.Second)
	eng.CheckNow()
	eng.DumpProfileFinal(c.Loop.Now())

	rep := Report{
		Seed:       cfg.Seed,
		Duration:   cfg.Duration,
		Schedule:   sched,
		Violations: eng.Violations(),
		Declared:   c.Mon.Declared.Load(),
		Failovers:  c.Ctrl.Stats.Failovers,
		Recoveries: c.Ctrl.Recoveries(),
	}
	if start, end, ok := c.Ctrl.LastRecovery(); ok && end != 0 {
		// The settle time measured from the revive (start) — replay,
		// buffered declarations, and per-vNIC reconciliation round trips.
		rep.RecoveryMs = (end - start).Millis()
	}
	if jrn != nil && eng.Failed() && cfg.ObsDumpDir != "" {
		rep.JournalPath = dumpJournal(jrn, cfg.ObsDumpDir, cfg.Seed)
	}
	if ob != nil {
		rep.TraceDigest = ob.Tracer.Digest()
		rep.DumpPath = eng.DumpPath()
	}
	rep.ProfDumpPath = eng.ProfDumpPath()
	if tracker != nil {
		rep.SLOObjective = sim.Time(tracker.Objective())
		rep.SLOBurnEvents = tracker.BurnEvents()
		if vnic, p99, ok := tracker.Worst(); ok {
			rep.SLOWorstVNIC = vnic
			rep.SLOWorstP99 = sim.Time(p99)
		}
	}
	for _, vm := range clients {
		rep.Completed += vm.Completed
	}
	d := newDigest()
	d.add(c.Loop.Fired(), uint64(c.Loop.Now()))
	d.add(c.Fab.Sends, c.Fab.Delivered, c.Fab.Lost, c.Fab.ChaosLost, c.Fab.BytesSent)
	for _, vs := range c.Switches {
		s := vs.Stats
		d.add(s.FromVM, s.FromNet, s.Delivered, s.Sent, s.Absorbed,
			s.SlowPath, s.FastPath, s.NotifySent, s.NotifyRecv,
			s.ProbesSeen, s.Mirrored, s.FlowLogged, s.NATRewrites)
		for _, n := range s.Drops {
			d.add(n)
		}
		d.add(uint64(vs.Sessions().Len()), uint64(vs.Sessions().MemBytes()))
	}
	d.add(c.Mon.ProbesSent.Load(), c.Mon.PongsSeen.Load(), c.Mon.StalePongs.Load(), c.Mon.Declared.Load(), c.Mon.GuardTrips.Load())
	e := c.Ctrl.Stats
	d.add(e.Offloads, e.Fallbacks, e.ScaleOuts, e.ScaleIns, e.Failovers, e.FEsAdded)
	d.add(e.Aborts, e.Rollbacks, e.DegradedEnters, e.DegradedExits, e.RepairRuns)
	rs := c.Ctrl.RPCStats()
	d.add(rs.Sent, rs.Retries, rs.Acked, rs.Nacked, rs.Expired, rs.DupAcks)
	if jrn != nil {
		// Folded in only when a crash was armed, so crash-free campaign
		// digests stay bit-identical to the committed goldens.
		d.add(c.Ctrl.Recoveries(), c.Ctrl.DupSideEffects(), uint64(jrn.SizeBytes()))
	}
	for _, vm := range clients {
		d.add(vm.Started, vm.Completed, vm.Accepted, vm.KernelDrops)
	}
	rep.Digest = d.sum
	if cfg.Hist != nil {
		cfg.Hist.SetChaosReport(rep.View())
	}
	return rep, nil
}

// dumpJournal writes the journal's replayable record stream as JSONL —
// the artifact a failing crash-campaign seed uploads so the recovery
// decision trail can be audited offline. Returns "" on any error (a
// failing dump must not mask the violation being reported).
func dumpJournal(j *journal.Journal, dir string, seed int64) string {
	recs, err := j.Replay()
	if err != nil {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("nezha-journal-seed%d.jsonl", seed))
	var buf []byte
	for i := range recs {
		line, err := json.Marshal(&recs[i])
		if err != nil {
			return ""
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return ""
	}
	return path
}

// digest is FNV-1a 64 over a stream of counters.
type digest struct{ sum uint64 }

func newDigest() *digest { return &digest{sum: 14695981039346656037} }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.sum ^= v & 0xff
			d.sum *= 1099511628211
			v >>= 8
		}
	}
}
