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
//	            [-obs] [-obs-sample 1.0] [-obs-dir dumps/]
//	            [-prof] [-prof-dir profiles/]
//
// With -slo, every campaign carries the always-on latency ledger: a
// p99-vs-objective SLO per vNIC, a burn-rate evaluator whose events
// land in the flight recorder, and the slo-burn-bound invariant (a
// vNIC burning its error budget for too many consecutive windows is a
// violation). The per-seed summary and FAIL lines gain the worst
// offender: slo[vnic=N p99=observed/objective burns=K].
//
// With -obs (the default), every campaign runs with the observability
// layer attached: a violation automatically writes a flight-recorder
// dump — the control-plane event lead-up, transaction spans, and
// hop-by-hop packet traces — and the failure line carries both the
// failing seed and the dump path.
//
// With -prof, the cycle/byte attribution profiler runs alongside and
// every campaign writes a pprof-encoded profile (at the moment of the
// first violation, or at campaign end when clean). Inspect with
// `go tool pprof -top <dump>` or `nezha-prof top <dump>`.
//
// With -listen (requires -obs), the process hosts the live ops API:
// per-second registry snapshots, Prometheus /metrics, SSE streaming,
// the chaos report, and attribution profiles, all served from a
// ring-buffer history the running campaign publishes into. Pair with
// -pace 1 so the campaign advances in real time and -hold 60s so the
// server outlives the run:
//
//	nezha-chaos -campaigns 1 -pace 1 -listen 127.0.0.1:8378 -hold 60s &
//	nezha-top -attach http://127.0.0.1:8378
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nezha/internal/chaos"
	"nezha/internal/cluster"
	"nezha/internal/obs"
	"nezha/internal/opsapi"
	"nezha/internal/sim"
)

// validate checks the flag combination before any campaign runs: the
// world must fit the address plan and the region, as in nezha-sim.
func validate(campaigns, servers, clients int, ctrlAt string, midpush bool, listen string, obsOn bool) error {
	switch {
	case campaigns < 1:
		return fmt.Errorf("-campaigns %d: need at least 1", campaigns)
	case ctrlAt == "prepare" && midpush:
		return fmt.Errorf("-ctrl-crash-at=prepare and -midpush both need the prepare hook; pick one")
	case listen != "" && !obsOn:
		return fmt.Errorf("-listen requires -obs")
	}
	return cluster.CheckSize(servers, clients)
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
		obsOn      = flag.Bool("obs", true, "attach the observability layer (flight-recorder dump on violation)")
		obsSample  = flag.Float64("obs-sample", 1.0, "flight-trace sampling probability")
		obsDir     = flag.String("obs-dir", "", "directory for flight-recorder dumps (default: system temp dir)")
		profOn     = flag.Bool("prof", false, "attach the cycle/byte attribution profiler (pprof dump per campaign)")
		profDir    = flag.String("prof-dir", "", "directory for attribution profiles (default: system temp dir)")
		sloObj     = flag.Duration("slo", 0, "latency SLO objective (e.g. 100ms): attach the always-on latency ledger and arm the slo-burn-bound invariant (0 = off)")
		listen     = flag.String("listen", "", "serve the live ops API on this address (host:port); requires -obs")
		pace       = flag.Float64("pace", 0, "throttle campaigns to this multiple of wall-clock speed (0 = unpaced; 1 with -listen for a live-feeling run)")
		hold       = flag.Duration("hold", 0, "with -listen: keep serving this long after the last campaign ends")
	)
	flag.Parse()
	if err := validate(*campaigns, *servers, *clients, *ctrlAt, *midpush, *listen, *obsOn); err != nil {
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

	dumpDir := *obsDir
	if *obsOn && dumpDir == "" {
		dumpDir = os.TempDir()
	}
	pDir := *profDir
	if *profOn && pDir == "" {
		pDir = os.TempDir()
	}
	for _, dir := range []string{dumpDir, pDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "nezha-chaos: %v\n", err)
				os.Exit(2)
			}
		}
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
		rep, err := chaos.RunCampaign(chaos.CampaignConfig{
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
			Obs:                  *obsOn,
			ObsSampleRate:        *obsSample,
			ObsDumpDir:           dumpDir,
			Prof:                 *profOn,
			ProfDir:              pDir,
			Hist:                 hist,
			Pace:                 *pace,
			SLO:                  *sloObj > 0,
			SLOObjective:         sim.Time(*sloObj),
		})
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
		if !rep.Failed() && rep.ProfDumpPath != "" {
			fmt.Printf("    prof: %s\n", rep.ProfDumpPath)
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
			// The one-line failure handle: seed and dump together, so a
			// CI log grep lands on everything needed to debug the run.
			if rep.ProfDumpPath != "" {
				fmt.Printf("FAIL seed=%d dump=%s prof=%s%s\n", s, rep.DumpPath, rep.ProfDumpPath, sloCol)
			} else {
				fmt.Printf("FAIL seed=%d dump=%s%s\n", s, rep.DumpPath, sloCol)
			}
			if rep.JournalPath != "" {
				fmt.Printf("    journal: %s\n", rep.JournalPath)
			}
			repro := fmt.Sprintf("nezha-chaos -seed %d -campaigns 1 -v", s)
			if *midpush {
				repro += " -midpush"
			}
			if crashOn {
				repro += " -ctrl-crash"
				if *ctrlAt != "" {
					repro += " -ctrl-crash-at=" + *ctrlAt
				}
				if *ctrlOutage != 1500*time.Millisecond {
					repro += fmt.Sprintf(" -ctrl-outage=%v", *ctrlOutage)
				}
			}
			if *sloObj > 0 {
				repro += fmt.Sprintf(" -slo=%v", *sloObj)
			}
			fmt.Printf("    reproduce: %s\n", repro)
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
