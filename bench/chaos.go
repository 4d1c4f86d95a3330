package main

import (
	"errors"
	"fmt"
	"slices"

	"nezha/internal/chaos"
	"nezha/internal/obs"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

// chaos_campaign is ten chaos.RunCampaign calls per measured region,
// 8 virtual s each at the package defaults (8 servers, 3 clients ×
// 250 CPS, 12 fault events, 20 ms invariant checks) with Obs, Prof and
// SLO (100 ms objective) on: four plain, three with MidPushKill, three
// with CtrlCrash. The seed picks which campaigns, see campaignConfigs.
//
// Why: almost no datapath load, so far-horizon timers (200 ms probes,
// RPC timeouts: beyond the calendar window, the far-heap path), monitor
// probing, ctrlrpc retries, controller transactions, journal appends,
// invariant sweeps and full-rate flight tracing dominate. It is the
// unit of the tier-1 long pole and of every nightly soak, and it must
// not move when the datapath is optimised.
const (
	chaosCampaigns  = 10
	chaosDuration   = 8 * sim.Second
	chaosObjective  = 100 * sim.Millisecond
	chaosCheckEvery = 20 * sim.Millisecond // the package default, for chaos.invariant_checks
	// chaosInvariants is RegisterStandard's five plus slo-burn-bound;
	// campaigns that arm a controller crash register more, so the
	// derived check count is a lower bound.
	chaosInvariants = 6
	// A campaign of this length does nothing but set up: build the rig,
	// generate and apply the schedule, force the offload, and quiesce.
	chaosSetupProbe = sim.Millisecond
)

// chaosPoolSeeds is the campaign seeds the workload draws from: 1…25,
// the sweep of the repository's own soak tests. An arbitrary campaign
// seed is not safe to benchmark: the issue's seed*100+i scheme hit
// no-blackhole violations in the quiesce of CtrlCrash campaigns 302, 800
// and 905 (a finding for the correctness work, not for this harness),
// and a workload must not fail for a seed the driver happens to pick.
// All 25 seeds are clean in all three variants at this commit.
const chaosPoolSeeds = 25

// campaignConfigs draws the run's n campaigns from the pool: for each
// variant the seed shuffles 1…25 and the variants take turns, so ten
// campaigns are four plain, three MidPushKill and three CtrlCrash.
func campaignConfigs(seed int64, n int, telemetry bool) []chaos.CampaignConfig {
	rng := sim.NewRand(seed)
	var order [3][chaosPoolSeeds]int64
	for v := range order {
		for i := range order[v] {
			order[v][i] = int64(i + 1)
		}
		rng.Shuffle(chaosPoolSeeds, func(i, j int) { order[v][i], order[v][j] = order[v][j], order[v][i] })
	}
	cfgs := make([]chaos.CampaignConfig, n)
	for i := range cfgs {
		cfgs[i] = chaos.CampaignConfig{
			Seed: order[i%3][i/3%chaosPoolSeeds], Duration: chaosDuration,
			Obs: telemetry, Prof: telemetry, SLO: telemetry, SLOObjective: chaosObjective,
			MidPushKill: i%3 == 1, CtrlCrash: i%3 == 2,
		}
	}
	return cfgs
}

// chaosWorkload remembers what the last Hist-instrumented rep of a
// seed read: the campaign's world is private to RunCampaign, so its
// counters are reachable only through CampaignConfig.Hist, which costs
// wall time. Campaigns are bit-reproducible and the history publisher
// is an observer, so the counters of the instrumented rep are those of
// every rep of the seed; the report digests prove it each time.
//
// The same goes for heap_live_mb: when RunCampaign returns the world is
// gone and a rep keeps only its ten reports, about 0.1 MB that no
// change to the program would move. The instrumented rep also keeps the
// ten history rings (ten snapshots each), which is what a live ops
// surface holds per campaign, so the heap is measured there.
type chaosWorkload struct {
	seed       int64
	size       float64
	counts     counts
	gauges     values
	heapLiveMB float64
	reports    []uint64 // Report.Digest per campaign
}

func (*chaosWorkload) name() string { return "chaos_campaign" }

func (*chaosWorkload) probeInputs() probeInputs {
	// The campaign rig is the crr_offload rig at a third of the size.
	in := crrWorkload{}.probeInputs()
	in.flows = in.flows[:512]
	in.pending = 64 // Loop.Pending is private to the campaign; monitors, tickers and RPC timers
	return in
}

var haveChaos = slots(cFromVM, cFromNet, cDelivered, cSent, cAbsorbed, cSlow, cFast, cNotifySent, cProbes,
	cDrops, cACLDrops, cTouches, cFabSends, cFabDelivered, cFabLost, cFabBytes,
	cRPCSent, cRPCRetries, cRPCExpired, cOffloads, cScaleOuts, cFailovers, cAborts,
	cMonProbes, cMonDeclared, cJournalAppends, cJournalSnaps, cConnsCompleted)

func (w *chaosWorkload) rep(rc repCtx) (*rep, error) {
	out := &rep{sim: values{}, gauges: values{}, have: haveChaos}
	n := scaled(chaosCampaigns, rc.size)
	tr := rc.tr

	// Set-up is inside RunCampaign and cannot be timed apart from the
	// run, so it is measured on campaigns too short to do anything else.
	cfgs := campaignConfigs(rc.seed, n, !rc.telemetryOff)
	var err error
	out.setupS, err = medianSetup(9, nil, func() error {
		for _, cfg := range cfgs {
			cfg.Duration = chaosSetupProbe
			if _, err := chaos.RunCampaign(cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("chaos_campaign: set-up probe: %w", err)
	}

	reports := make([]chaos.Report, 0, n)
	var hists []*obs.History
	var errs []error
	reg := openRegion()
	tr.resume()
	for _, cfg := range cfgs {
		if rc.deep {
			cfg.Hist = obs.NewHistory(obs.HistoryOptions{})
			hists = append(hists, cfg.Hist)
		}
		tr.begin(spanCampaign, uint64(cfg.Seed), 0)
		r, err := chaos.RunCampaign(cfg)
		tr.end()
		if err != nil {
			errs = append(errs, fmt.Errorf("seed %d: %w", cfg.Seed, err))
			continue
		}
		reports = append(reports, r)
	}
	tr.pause()
	reg.close(out, []any{reports, hists})
	out.simS = float64(n) * chaosDuration.Seconds()

	var completed, violations, bad uint64
	d := newDigest()
	digests := make([]uint64, 0, n)
	for _, r := range reports {
		completed += r.Completed
		violations += uint64(len(r.Violations))
		if r.Failed() {
			bad++
			errs = append(errs, fmt.Errorf("seed %d: %d invariant violations, first: %v", r.Seed, len(r.Violations), r.Violations[0]))
		}
		d.add(r.Digest, r.Completed, r.Declared, r.Failovers, r.Recoveries)
		digests = append(digests, r.Digest)
	}
	bad += uint64(n - len(reports)) // campaigns that returned an error
	out.sim["sim_cps"] = float64(completed) / out.simS
	out.sim["fail_share"] = float64(bad) / float64(n)
	out.attempted, out.failed = uint64(n), bad
	d.addValues(out.sim, "sim_cps", "fail_share")
	out.digest = uint64(d)
	if completed == 0 {
		errs = append(errs, errors.New("no connection completed"))
	}

	if rc.deep && !rc.telemetryOff {
		w.seed, w.size, w.reports = rc.seed, rc.size, digests
		w.counts, w.gauges = readHistories(hists)
		w.counts[cConnsCompleted] = completed
		w.heapLiveMB = out.heapLiveMB
	} else if w.reports == nil || w.seed != rc.seed || w.size != rc.size {
		errs = append(errs, errors.New("no Hist-instrumented rep of this seed ran first"))
	} else if !rc.telemetryOff && !slices.Equal(digests, w.reports) {
		errs = append(errs, errors.New("campaign digests differ from the Hist-instrumented rep: the history publisher is not observer-only"))
	}
	out.counts, out.heapLiveMB = w.counts, w.heapLiveMB
	for k, v := range w.gauges {
		out.gauges[k] = v
	}
	out.pkts = w.counts[cFromVM] + w.counts[cFromNet]
	out.gauges["chaos.campaigns"] = float64(n)
	out.gauges["chaos.violations"] = float64(violations)
	out.gauges["chaos.invariant_checks"] = float64(n) * float64(chaosDuration/chaosCheckEvery) * chaosInvariants
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("chaos_campaign: %w", err)
	}
	return out, nil
}

// readHistories sums the exported series of each campaign's last
// published snapshot (virtual second 10 of 10: the run plus its
// quiesce) into the counter slots a campaign can fill.
func readHistories(hists []*obs.History) (counts, values) {
	var c counts
	g := values{}
	byName := map[string]int{
		"vswitch_from_vm_total": cFromVM, "vswitch_from_net_total": cFromNet,
		"vswitch_delivered_total": cDelivered, "vswitch_sent_total": cSent,
		"vswitch_absorbed_total": cAbsorbed, "vswitch_slowpath_total": cSlow,
		"vswitch_fastpath_total": cFast, "vswitch_notify_sent_total": cNotifySent,
		"vswitch_probes_seen_total": cProbes, "vswitch_drops_total": cDrops,
		"fabric_sends_total": cFabSends, "fabric_delivered_total": cFabDelivered,
		"fabric_lost_total": cFabLost, "fabric_chaos_lost_total": cFabLost, "fabric_bytes_total": cFabBytes,
		"ctrlrpc_attempts_total": cRPCSent, "ctrlrpc_retries_total": cRPCRetries, "ctrlrpc_timeouts_total": cRPCExpired,
		"controller_offloads_total": cOffloads, "controller_scaleouts_total": cScaleOuts,
		"controller_failovers_total": cFailovers, "controller_aborts_total": cAborts,
		"monitor_probes_sent_total": cMonProbes, "monitor_declared_total": cMonDeclared,
		"journal_appends_total": cJournalAppends, "journal_snapshots_total": cJournalSnaps,
	}
	var waitSum, waitN, series, live float64
	for _, h := range hists {
		snap := h.Latest()
		if snap == nil {
			continue
		}
		series += float64(len(snap.Points))
		homes := map[string]bool{} // nodes that home a vNIC hold session state
		for i := range snap.Points {
			if p := &snap.Points[i]; p.Name == "vswitch_vnics" && p.Value > 0 {
				homes[p.Labels["node"]] = true
			}
		}
		for i := range snap.Points {
			p := &snap.Points[i]
			if slot, ok := byName[p.Name]; ok {
				c[slot] += uint64(p.Value)
			}
			home := homes[p.Labels["node"]]
			switch {
			case p.Name == "vswitch_drops_total" && p.Labels["reason"] == vswitch.DropACL.String():
				c[cACLDrops] += uint64(p.Value)
				if home {
					c[cTouches] += uint64(p.Value)
				}
			case home && (p.Name == "vswitch_from_vm_total" || p.Name == "vswitch_delivered_total"):
				c[cTouches] += uint64(p.Value)
			case p.Name == "vswitch_sessions":
				live += p.Value
			}
		}
		if us, ok := queueWaitMeanUS(snap); ok {
			waitSum += us
			waitN++
		}
	}
	if n := float64(len(hists)); n > 0 {
		g["obs.series"] = series / n
	}
	if waitN > 0 {
		g["nic.sim_wait_us_mean"] = waitSum / waitN
	}
	g["flowcache.live_entries"] = live
	return c, g
}
