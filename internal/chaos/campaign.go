package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"nezha/internal/cluster"
	"nezha/internal/controller"
	"nezha/internal/journal"
	"nezha/internal/monitor"
	"nezha/internal/obs"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
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
	// Obs enables the observability layer: labeled telemetry, packet
	// flight tracing at rate 1, transaction spans, and the flight
	// recorder.
	Obs bool
	// Prof enables the cycle/byte attribution profiler on every
	// vSwitch.
	Prof bool
	// DumpDir, when non-empty, makes a failing campaign replay itself
	// under full telemetry and write its artefacts here (see Replay):
	// nezha-dump-seed<N>.txt, nezha-prof-seed<N>.pb.gz and, when a
	// controller crash was armed, nezha-journal-seed<N>.jsonl.
	DumpDir string
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
	// SLO enables the latency/hot-flow SLO tracker on every vSwitch
	// and the slo-burn-bound invariant; with Obs on (as in every
	// replay), burn events also land in the flight recorder. The layer
	// is observer-effect-free: digests with SLO on must equal the same
	// seed with it off.
	SLO bool
	// SLOObjective overrides the per-vNIC latency objective (0 =
	// slo.DefaultObjective, 100 ms).
	SLOObjective sim.Time
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
	// DumpPath is the flight-recorder dump the replay wrote at the
	// first invariant violation ("" when none was written).
	DumpPath string
	// ProfDumpPath is the pprof-encoded attribution profile the replay
	// wrote at the first violation, or at campaign end on a clean
	// replay ("" when none).
	ProfDumpPath string
	// Recoveries / RecoveryMs summarize controller crash handling: how
	// many recoveries completed and how long the last one took from
	// revive to settled (zero when no controller crash was armed).
	Recoveries uint64
	RecoveryMs float64
	// JournalPath is the journal dump the replay of a crash campaign
	// wrote at campaign end ("" when none).
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

// chaosSpec is the world campaigns and policy scenarios run on: the
// server VM on server 0 as the BE and 8-vCPU clients on the servers
// after it, a 200 ms probe, and a majority prepare quorum (instead of
// the default all-targets), which keeps a single killed prepare target
// from aborting every offload a schedule provokes — the commit path
// itself must stay safe.
func chaosSpec(seed int64, servers, clients int, rate float64) cluster.Spec {
	ctrl := controller.DefaultConfig()
	ctrl.PrepareQuorumFrac = 0.5
	return cluster.Spec{
		Seed: seed, Servers: servers, Clients: clients, ClientCPS: rate,
		ClientVCPUs: 8, ServerVCPUs: 64, ServerFirst: true,
		Controller: ctrl, ProbeInterval: 200 * sim.Millisecond,
	}
}

// detectWindow bounds failure detection on a chaos world. Worst case:
// a crash lands just after an answered probe wave, so declaration
// needs Misses+2 rounds; the slack covers the controller.
func detectWindow(s cluster.Spec) sim.Time {
	return s.ProbeInterval*(monitor.Misses+2) + 500*sim.Millisecond
}

// RunCampaign builds the rig, runs the schedule, and judges the
// invariants. The rig: one high-demand server VM homed on server 0
// (the BE), offloaded to an FE pool, with open-loop CRR clients on
// servers 1..Clients hammering it while faults land. A failing
// campaign with DumpDir set then replays itself (see Replay).
func RunCampaign(cfg CampaignConfig) (Report, error) { return runCampaign(cfg, nil) }

// Replay runs the campaign that produced rep again, with obs (every
// packet traced) and prof on and no live surface, and writes to
// cfg.DumpDir the flight-recorder dump and attribution profile at the
// first violation (the profile at the end of a clean run) and, when a
// controller crash was armed, the journal at the end. RunCampaign
// replays every failing campaign; call Replay for a clean one. A
// campaign is bit-deterministic with telemetry on or off
// (TestTelemetryDoesNotPerturbSimulation), so a replay that misses
// rep's digest or violations is an error naming the seed. It returns
// rep with the artefact paths set.
func Replay(cfg CampaignConfig, rep Report) (Report, error) { return replay(cfg, nil, rep) }

// runCampaign is RunCampaign with an optional hook that sees the engine
// once the standard invariants are registered — how tests add their own
// (a reference implementation checked against the real one, say). The
// hook runs again in the replay.
func runCampaign(cfg CampaignConfig, extra func(*Engine)) (Report, error) {
	rep, err := run(cfg, extra, false)
	if err != nil || !rep.Failed() || cfg.DumpDir == "" {
		return rep, err
	}
	return replay(cfg, extra, rep)
}

func replay(cfg CampaignConfig, extra func(*Engine), rep Report) (Report, error) {
	traced := cfg.Obs
	cfg.Obs, cfg.Prof, cfg.Hist, cfg.Pace = true, true, nil, 0
	r, err := run(cfg, extra, true)
	if err != nil {
		return rep, err
	}
	same := func(a, b Violation) bool { return a.String() == b.String() }
	if r.Digest != rep.Digest || !slices.EqualFunc(r.Violations, rep.Violations, same) {
		return rep, fmt.Errorf("chaos: seed %d: replay diverged: digest %#x with %d violations, want %#x with %d",
			cfg.Seed, r.Digest, len(r.Violations), rep.Digest, len(rep.Violations))
	}
	// The replay's tracer retains hops for the dump and the original's
	// did not, so equal trace digests also pin that retaining a hop
	// does not change how it is folded.
	if traced && r.TraceDigest != rep.TraceDigest {
		return rep, fmt.Errorf("chaos: seed %d: replay diverged: trace digest %#x, want %#x", cfg.Seed, r.TraceDigest, rep.TraceDigest)
	}
	rep.DumpPath, rep.ProfDumpPath, rep.JournalPath = r.DumpPath, r.ProfDumpPath, r.JournalPath
	return rep, nil
}

// A replay's dump holds the last dumpHops flight-trace hops, about 512
// offloaded flights of 16 hops, and the last dumpEvents recorder events.
const (
	dumpHops   = 512 * 16
	dumpEvents = 4096
)

// run is one execution of the campaign; record writes the replay's
// artefacts to cfg.DumpDir.
func run(cfg CampaignConfig, extra func(*Engine), record bool) (Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 8 * sim.Second
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 8
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if cfg.RatePerClient == 0 {
		cfg.RatePerClient = 250
	}
	if cfg.Events <= 0 {
		cfg.Events = 12
	}

	spec := chaosSpec(cfg.Seed, cfg.Servers, cfg.Clients, cfg.RatePerClient)
	spec.Controller.UnsafeDirectCommit = cfg.BypassTwoPhase
	detect := detectWindow(spec)

	var ob *obs.Obs
	if cfg.Obs {
		// Campaign rigs are small enough to trace every packet. Only the
		// recording replay writes a dump, so only it keeps the hops and
		// events a dump shows.
		opts := obs.Options{Seed: cfg.Seed, SampleRate: 1}
		if record {
			opts.MaxHops, opts.RingSize = dumpHops, dumpEvents
		}
		ob = obs.New(opts)
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

	spec.Obs, spec.Prof, spec.SLO = ob, pr, tracker
	w, err := cluster.Build(spec)
	if err != nil {
		return Report{}, fmt.Errorf("chaos: %w", err)
	}

	// Chaos randomness is a dedicated stream (offset so it never
	// collides with the workload stream seeded directly from Seed).
	rng := sim.NewRand(cfg.Seed ^ 0x6368616f73) // "chaos"
	eng := NewEngine(System{
		Loop: w.Loop, Fab: w.Fab, GW: w.GW, Switches: w.Switches, Mon: w.Mon, Ctrl: w.Ctrl,
	}, rng, Config{DetectWindow: detect})
	RegisterStandard(eng)
	if tracker != nil {
		eng.Register(SLOBurnBound(tracker))
	}
	if extra != nil {
		extra(eng)
	}
	eng.ob = ob
	var dumpPath, profPath string
	if record {
		// At the first violation the event ring still holds its lead-up.
		eng.firstViolation = func(v Violation) {
			meta := fmt.Sprintf("seed=%d invariant=%q t=%v err=%v", cfg.Seed, v.Invariant, v.At, v.Err)
			dumpPath = writeArtefact(cfg.DumpDir, "nezha-dump-seed%d.txt", cfg.Seed, func(f io.Writer) error {
				return ob.WriteDump(f, meta)
			})
			profPath = writeProfile(cfg, pr, v.At)
		}
	}
	if cfg.Hist != nil {
		if ob == nil {
			return Report{}, fmt.Errorf("chaos: CampaignConfig.Hist requires Obs")
		}
		eng.AttachHistory(cfg.Hist)
		if pub := w.NewOpsPublisher(cfg.Hist, 10); pub != nil {
			pub.Attach(w.Loop)
		}
	}
	if cfg.Pace > 0 {
		sim.AttachPacer(w.Loop, cfg.Pace)
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
		DetectWindow: detect,
	})
	eng.Apply(sched)
	if cfg.MidPushKill {
		eng.ArmMidPushKill()
	}
	var jrn *journal.Journal
	if cfg.CtrlCrash || cfg.CtrlCrashOnPrepare || cfg.CtrlCrashAtCommitGap {
		jrn = journal.NewMem()
		w.Ctrl.AttachJournal(jrn)
		outage := cfg.CtrlOutage
		if outage <= 0 {
			outage = 1500 * sim.Millisecond
		}
		opts := controller.RecoverOpts{SkipReconcile: cfg.SkipReconcile}
		switch {
		case cfg.CtrlCrashAtCommitGap:
			eng.ArmControllerCrashAtCommitGap(cluster.ServerVNIC, outage, opts)
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

	w.Start()
	if err := w.Ctrl.ForceOffload(cluster.ServerVNIC); err != nil {
		return Report{}, err
	}
	w.StartLoad()
	w.Loop.Run(cfg.Duration)
	w.StopLoad()
	// Quiesce: stop injecting faults and let in-flight work drain so
	// the final check sees a settled system.
	eng.SetGlobalFault(0, 0)
	w.Loop.Run(w.Loop.Now() + 2*sim.Second)
	eng.CheckNow()

	if record && !eng.Failed() {
		profPath = writeProfile(cfg, pr, w.Loop.Now())
	}

	rep := Report{
		Seed:         cfg.Seed,
		Duration:     cfg.Duration,
		Schedule:     sched,
		Violations:   eng.Violations(),
		Declared:     w.Mon.Declared.Load(),
		Failovers:    w.Ctrl.Stats.Failovers,
		Recoveries:   w.Ctrl.Recoveries(),
		DumpPath:     dumpPath,
		ProfDumpPath: profPath,
	}
	if start, end, ok := w.Ctrl.LastRecovery(); ok && end != 0 {
		// The settle time measured from the revive (start) — replay,
		// buffered declarations, and per-vNIC reconciliation round trips.
		rep.RecoveryMs = (end - start).Millis()
	}
	if record && jrn != nil {
		rep.JournalPath = writeArtefact(cfg.DumpDir, "nezha-journal-seed%d.jsonl", cfg.Seed, func(f io.Writer) error {
			return writeJournal(f, jrn)
		})
	}
	if ob != nil {
		rep.TraceDigest = ob.Tracer.Digest()
	}
	if tracker != nil {
		rep.SLOObjective = sim.Time(tracker.Objective())
		rep.SLOBurnEvents = tracker.BurnEvents()
		if vnic, p99, ok := tracker.Worst(); ok {
			rep.SLOWorstVNIC = vnic
			rep.SLOWorstP99 = sim.Time(p99)
		}
	}
	rep.Completed = w.Completed()
	d := newDigest()
	d.add(w.Loop.Fired(), uint64(w.Loop.Now()))
	d.add(w.Fab.Sends, w.Fab.Delivered, w.Fab.Lost, w.Fab.ChaosLost, w.Fab.BytesSent)
	for _, vs := range w.Switches {
		s := vs.Stats
		d.add(s.FromVM, s.FromNet, s.Delivered, s.Sent, s.Absorbed,
			s.SlowPath, s.FastPath, s.NotifySent, s.NotifyRecv,
			s.ProbesSeen, s.Mirrored, s.FlowLogged, s.NATRewrites)
		for _, n := range s.Drops {
			d.add(n)
		}
		d.add(uint64(vs.Sessions().Len()), uint64(vs.Sessions().MemBytes()))
	}
	d.add(w.Mon.ProbesSent.Load(), w.Mon.PongsSeen.Load(), w.Mon.StalePongs.Load(), w.Mon.Declared.Load(), w.Mon.GuardTrips.Load())
	e := w.Ctrl.Stats
	d.add(e.Offloads, e.Fallbacks, e.ScaleOuts, e.ScaleIns, e.Failovers, e.FEsAdded)
	d.add(e.Aborts, e.Rollbacks, e.DegradedEnters, e.DegradedExits, e.RepairRuns)
	rs := w.Ctrl.RPCStats()
	d.add(rs.Sent, rs.Retries, rs.Acked, rs.Nacked, rs.Expired, rs.DupAcks)
	if jrn != nil {
		// Folded in only when a crash was armed, so crash-free campaign
		// digests stay bit-identical to the committed goldens.
		d.add(w.Ctrl.Recoveries(), w.Ctrl.DupSideEffects(), uint64(jrn.SizeBytes()))
	}
	for _, vm := range w.Clients {
		d.add(vm.Started, vm.Completed, vm.Accepted, vm.KernelDrops)
	}
	rep.Digest = d.sum
	if cfg.Hist != nil {
		cfg.Hist.SetChaosReport(rep.View())
	}
	return rep, nil
}

// writeArtefact creates dir/<name with the seed> and fills it with
// write. It returns the path, or "" after reporting the error on
// stderr: a failing write must not mask the violation being reported.
func writeArtefact(dir, name string, seed int64, write func(io.Writer) error) string {
	path := filepath.Join(dir, fmt.Sprintf(name, seed))
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: cannot write replay artefact: %v\n", err)
		return ""
	}
	return path
}

// writeProfile writes the pprof-encoded attribution profile as of at.
func writeProfile(cfg CampaignConfig, pr *prof.Profiler, at sim.Time) string {
	return writeArtefact(cfg.DumpDir, "nezha-prof-seed%d.pb.gz", cfg.Seed, func(f io.Writer) error {
		// The campaign clock starts at zero, so elapsed run time == at.
		return pr.WriteProfile(f, at, at)
	})
}

// writeJournal writes the journal's replayable record stream as JSONL,
// so the recovery decision trail can be audited offline.
func writeJournal(w io.Writer, j *journal.Journal) error {
	recs, err := j.Replay()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
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
