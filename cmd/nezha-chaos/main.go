// Command nezha-chaos runs seeded chaos campaigns against a BE+FE
// cluster and reports invariant verdicts: random fault schedules
// (packet loss, jitter, link flaps, rolling partitions, crash/revive,
// memory pressure) land on the rig while the engine continuously
// checks packet conservation, single-copy state residency, the
// failover detection bound, no-duplicate-delivery, and no-blackhole
// (the gateway never routes a vNIC at an address without committed
// rules of the current epoch).
//
// Every campaign is bit-reproducible from its seed; a violation
// prints the seed and the schedule that produced it, and the process
// exits non-zero. -midpush additionally crashes or partitions a
// prepare target in the window between the two-phase commit's prepare
// and commit on every campaign. -ctrl-crash crashes the CONTROLLER
// itself mid-run (journaled WAL, crash, journal-replay recovery with
// live-world reconciliation) and arms the crash-recovery invariants:
// epoch monotonicity across the restart, no duplicate side effects
// from replay, and the recovery-time bound; -ctrl-crash-at moves the
// crash from the default mid-run instant to the controller's first
// prepare window (value "prepare"), to the commit gap between the
// gateway flip and its ack (value "commit-gap"), or to a fixed virtual
// time. -failfile
// collects failing seeds, one per line, for CI artifact upload.
//
// Usage:
//
//	nezha-chaos [-seed 1] [-campaigns 10] [-duration 8s] [-servers 8]
//	            [-clients 3] [-cps 250] [-events 12] [-midpush]
//	            [-ctrl-crash] [-ctrl-crash-at 4s|prepare|commit-gap]
//	            [-ctrl-outage 1.5s] [-slo 100ms]
//	            [-failfile failing-seeds.txt] [-v]
//	            [-dump-dir dumps/] [-replay]
//
// With -slo, every campaign carries the always-on latency ledger: a
// p99-vs-objective SLO per vNIC, a burn-rate evaluator whose events
// land in the flight recorder, and the slo-burn-bound invariant (a
// vNIC burning its error budget for too many consecutive windows is a
// violation). The per-seed summary and FAIL lines gain the worst
// offender: slo[vnic=N p99=observed/objective burns=K].
//
// Campaigns run with telemetry off. A failing one replays itself with
// the observability layer and the profiler on and writes to -dump-dir
// (default: the system temp dir) a flight-recorder dump (event lead-up,
// transaction spans, hop-by-hop packet traces) and a pprof profile as
// of the first violation, plus the journal in crash modes; the FAIL
// line names them all. A replay that misses the failing run's digest is
// an error, so a failing seed also checks determinism. -replay replays
// clean campaigns too. Inspect a profile with `go tool pprof -top
// <dump>`, print its stacks with `-traces`, or open its flame graph
// with `-http :8080`.
//
// With -listen, the process hosts the live ops API and turns on the
// observability layer and the profiler for every campaign: per-second
// registry snapshots, Prometheus /metrics, SSE streaming, the chaos
// report, and attribution profiles, all served from a ring-buffer
// history the running campaign publishes into. Pair with -pace 1 so
// the campaign advances in real time and -hold 60s so the server
// outlives the run:
//
//	nezha-chaos -campaigns 1 -pace 1 -listen 127.0.0.1:8378 -hold 60s &
//	nezha-top -attach http://127.0.0.1:8378
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"nezha/internal/chaos"
	"nezha/internal/cluster"
	"nezha/internal/obs"
	"nezha/internal/opsapi"
	"nezha/internal/sim"
)

// flagValues is what validate checks of the flags.
type flagValues struct {
	campaigns, servers, clients, events int
	cps, pace                           float64
	duration, ctrlOutage, slo, hold     time.Duration
	ctrlAt                              string
	midpush                             bool
}

// validate checks the flags before any campaign runs: the world must
// fit the address plan and the region, as in nezha-sim, and a number
// the campaign would otherwise replace by its default — a rate, a
// length or a count that is not positive, a NaN — is refused instead.
func validate(f flagValues) error {
	switch {
	case f.campaigns < 1:
		return fmt.Errorf("-campaigns %d: need at least 1", f.campaigns)
	case !(f.cps > 0) || math.IsInf(f.cps, 1):
		return fmt.Errorf("-cps %v: need a positive finite rate", f.cps)
	case f.duration <= 0:
		return fmt.Errorf("-duration %v: need a positive run length", f.duration)
	case f.events < 1:
		return fmt.Errorf("-events %d: need at least 1", f.events)
	case f.ctrlOutage <= 0:
		return fmt.Errorf("-ctrl-outage %v: need a positive outage", f.ctrlOutage)
	case !(f.pace >= 0) || math.IsInf(f.pace, 1):
		return fmt.Errorf("-pace %v: need a finite multiple of wall-clock speed, 0 or more", f.pace)
	case f.slo < 0:
		return fmt.Errorf("-slo %v: need an objective, 0 or more", f.slo)
	case f.hold < 0:
		return fmt.Errorf("-hold %v: need a duration, 0 or more", f.hold)
	case f.ctrlAt == "prepare" && f.midpush:
		return fmt.Errorf("-ctrl-crash-at=prepare and -midpush both need the prepare hook; pick one")
	}
	return cluster.CheckSize(f.servers, f.clients)
}

// journalCol names the replay's journal, in crash modes only.
func journalCol(rep chaos.Report) string {
	if rep.JournalPath == "" {
		return ""
	}
	return " journal=" + rep.JournalPath
}

func main() {
	var (
		seed       = flag.Int64("seed", 1, "first campaign seed (campaign i runs seed+i)")
		campaigns  = flag.Int("campaigns", 10, "number of seeded campaigns")
		duration   = flag.Duration("duration", 8*time.Second, "virtual time per campaign")
		servers    = flag.Int("servers", 8, "region size (BE on server 0)")
		clients    = flag.Int("clients", 3, "client VMs hammering the BE's server VM")
		cps        = flag.Float64("cps", 250, "per-client offered connections/sec")
		events     = flag.Int("events", 12, "fault episodes per campaign")
		midpush    = flag.Bool("midpush", false, "kill or partition a prepare target between prepare and commit")
		ctrlCrash  = flag.Bool("ctrl-crash", false, "crash and journal-recover the controller mid-campaign")
		ctrlAt     = flag.String("ctrl-crash-at", "", "controller crash time (duration, e.g. 4s), 'prepare' to crash inside the first prepare window, or 'commit-gap' to crash between the gateway flip and its ack (implies -ctrl-crash)")
		ctrlOutage = flag.Duration("ctrl-outage", 1500*time.Millisecond, "how long the controller stays dead before recovery")
		failfile   = flag.String("failfile", "", "write failing seeds (one per line) to this file")
		verbose    = flag.Bool("v", false, "print every campaign's schedule")
		dumpDir    = flag.String("dump-dir", os.TempDir(), "directory for the replay artefacts of failing campaigns (flight-recorder dump, attribution profile, journal)")
		replay     = flag.Bool("replay", false, "replay clean campaigns too and write their artefacts")
		sloObj     = flag.Duration("slo", 0, "latency SLO objective (e.g. 100ms): attach the always-on latency ledger and arm the slo-burn-bound invariant (0 = off)")
		listen     = flag.String("listen", "", "serve the live ops API on this address (host:port), with obs and prof on")
		pace       = flag.Float64("pace", 0, "throttle campaigns to this multiple of wall-clock speed (0 = unpaced; 1 with -listen for a live-feeling run)")
		hold       = flag.Duration("hold", 0, "with -listen: keep serving this long after the last campaign ends")
	)
	flag.Parse()
	if err := validate(flagValues{
		campaigns: *campaigns, servers: *servers, clients: *clients, events: *events,
		cps: *cps, pace: *pace, duration: *duration, ctrlOutage: *ctrlOutage, slo: *sloObj, hold: *hold,
		ctrlAt: *ctrlAt, midpush: *midpush,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "nezha-chaos:", err)
		os.Exit(2)
	}

	crashOn := *ctrlCrash || *ctrlAt != ""
	crashOnPrepare := *ctrlAt == "prepare"
	crashAtGap := *ctrlAt == "commit-gap"
	var crashAt sim.Time
	if *ctrlAt != "" && !crashOnPrepare && !crashAtGap {
		d, err := time.ParseDuration(*ctrlAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nezha-chaos: -ctrl-crash-at: %v\n", err)
			os.Exit(2)
		}
		crashAt = sim.Time(d)
	}

	if *dumpDir == "" {
		*dumpDir = os.TempDir()
	}
	if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "nezha-chaos: %v\n", err)
		os.Exit(2)
	}

	// The live ops surface: one server for the whole process; each
	// campaign swaps in a fresh history store so /metrics, /history,
	// and /stream always reflect the campaign currently running.
	var srv *opsapi.Server
	if *listen != "" {
		srv = opsapi.New()
		srv.SetMeta("mode", "chaos")
		srv.SetMeta("seed", fmt.Sprint(*seed))
		addr, err := srv.Listen(*listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nezha-chaos: -listen: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("ops: serving http://%s (metrics, snapshot, history, stream, prof, chaos/report, health)\n", addr)
	}

	failed := 0
	var failedSeeds []int64
	for i := 0; i < *campaigns; i++ {
		s := *seed + int64(i)
		var hist *obs.History
		if srv != nil {
			hist = obs.NewHistory(obs.HistoryOptions{})
			srv.SetHistory(hist)
		}
		cfg := chaos.CampaignConfig{
			Seed:                 s,
			Duration:             sim.Time(*duration),
			Servers:              *servers,
			Clients:              *clients,
			RatePerClient:        *cps,
			Events:               *events,
			MidPushKill:          *midpush,
			CtrlCrash:            crashOn && !crashOnPrepare && !crashAtGap,
			CtrlCrashAt:          crashAt,
			CtrlOutage:           sim.Time(*ctrlOutage),
			CtrlCrashOnPrepare:   crashOnPrepare,
			CtrlCrashAtCommitGap: crashAtGap,
			Obs:                  srv != nil,
			Prof:                 srv != nil,
			DumpDir:              *dumpDir,
			Hist:                 hist,
			Pace:                 *pace,
			SLO:                  *sloObj > 0,
			SLOObjective:         sim.Time(*sloObj),
		}
		rep, err := chaos.RunCampaign(cfg)
		if err == nil && *replay && !rep.Failed() {
			rep, err = chaos.Replay(cfg, rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", s, err)
			os.Exit(2)
		}
		verdict := "ok"
		if rep.Failed() {
			verdict = fmt.Sprintf("FAIL (%d violations)", len(rep.Violations))
			failed++
			failedSeeds = append(failedSeeds, s)
		}
		recovery := "-"
		if crashOn {
			recovery = fmt.Sprintf("%d/%.1fms", rep.Recoveries, rep.RecoveryMs)
		}
		sloCol := ""
		if *sloObj > 0 {
			// Worst SLO offender: the vNIC with the highest end-to-end p99
			// against the configured objective, plus any burn events.
			sloCol = fmt.Sprintf(" slo[vnic=%d p99=%v/%v burns=%d]",
				rep.SLOWorstVNIC, rep.SLOWorstP99, rep.SLOObjective, rep.SLOBurnEvents)
		}
		fmt.Printf("seed %-4d %-22s completed=%-6d declared=%-2d failovers=%-2d recovery=%-10s digest=%016x%s\n",
			s, verdict, rep.Completed, rep.Declared, rep.Failovers, recovery, rep.Digest, sloCol)
		if !rep.Failed() && *replay {
			fmt.Printf("    replay: prof=%s%s\n", rep.ProfDumpPath, journalCol(rep))
		}
		if *verbose || rep.Failed() {
			for _, a := range rep.Schedule {
				fmt.Printf("    schedule: %v\n", a)
			}
		}
		for _, v := range rep.Violations {
			fmt.Printf("    %v\n", v)
		}
		if rep.Failed() {
			// The one-line failure handle: the seed and the replay's
			// artefacts together, so a CI log grep lands on everything
			// needed to debug the run.
			fmt.Printf("FAIL seed=%d dump=%s prof=%s%s%s\n", s, rep.DumpPath, rep.ProfDumpPath, journalCol(rep), sloCol)
			repro := fmt.Sprintf("nezha-chaos -seed %d -campaigns 1 -v", s)
			if *midpush {
				repro += " -midpush"
			}
			if crashOn {
				if *ctrlAt != "" {
					repro += " -ctrl-crash-at=" + *ctrlAt
				} else {
					repro += " -ctrl-crash"
				}
				if *ctrlOutage != 1500*time.Millisecond {
					repro += fmt.Sprintf(" -ctrl-outage=%v", *ctrlOutage)
				}
			}
			if *sloObj > 0 {
				repro += fmt.Sprintf(" -slo=%v", *sloObj)
			}
			fmt.Printf("    reproduce: %s -replay -dump-dir %s\n", repro, *dumpDir)
		}
	}
	if *failfile != "" && len(failedSeeds) > 0 {
		f, err := os.Create(*failfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "failfile: %v\n", err)
			os.Exit(2)
		}
		for _, s := range failedSeeds {
			fmt.Fprintf(f, "%d\n", s)
		}
		f.Close()
	}
	if srv != nil && *hold > 0 {
		fmt.Printf("ops: holding the server up for %v (attach with nezha-top -attach)\n", *hold)
		time.Sleep(*hold)
		srv.Close()
	}
	if failed > 0 {
		fmt.Printf("%d/%d campaigns violated invariants\n", failed, *campaigns)
		os.Exit(1)
	}
	fmt.Printf("all %d campaigns clean\n", *campaigns)
}
