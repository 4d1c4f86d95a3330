package main

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// runOptions is one invocation's settings for a workload.
type runOptions struct {
	seed    int64
	seconds float64 // how long to measure
	trace   bool
	size    float64 // 1, or the smoke test's fraction of the fixed work
	outDir  string  // where the traced rep's spans go
}

const (
	minReps = 3
	maxReps = 7
	// With -trace the untraced reps only have to anchor the overhead
	// shares; the rest of the time goes to the traced pass.
	traceReps = 2
)

// result is what one workload reports.
type result struct {
	Workload    string          `json:"workload"`
	Reps        int             `json:"reps"`
	EndToEnd    map[string]stat `json:"end_to_end"`
	Layers      values          `json:"per_layer,omitempty"`
	ProbeAlloc  values          `json:"probe_allocs_per_op,omitempty"`
	ProbeSample string          `json:"probe_sample,omitempty"`
	LatSamples  uint64          `json:"latency_samples,omitempty"`
	Digest      string          `json:"digest"`
	Attempted   uint64          `json:"attempted"`
	Failed      uint64          `json:"failed"`
	TracePath   string          `json:"trace_file,omitempty"`
}

// runWorkload does one discarded warm-up rep, then measured reps for
// opt.seconds, then — with opt.trace — the traced pass. Every rep's
// output checks are fatal.
func runWorkload(w benchWorkload, opt runOptions) (*result, error) {
	begin := time.Now()
	budget := time.Duration(opt.seconds * float64(time.Second))
	want, most := minReps, maxReps
	if opt.trace {
		want, most = traceReps, traceReps
	}

	// The warm-up rep heats the process (heap size, pools, caches) and
	// carries the deep checks.
	first, err := w.rep(repCtx{seed: opt.seed, size: opt.size, deep: true})
	if err != nil {
		return nil, err
	}
	var reps []*rep
	for len(reps) < most {
		t := time.Now()
		r, err := w.rep(repCtx{seed: opt.seed, size: opt.size})
		if err != nil {
			return nil, err
		}
		if err := sameOutputs(first, r); err != nil {
			return nil, fmt.Errorf("%s: rep %d differs from the warm-up rep: %w", w.name(), len(reps)+1, err)
		}
		reps = append(reps, r)
		if len(reps) >= want && time.Since(begin)+time.Since(t) > budget {
			break
		}
	}

	res := &result{
		Workload: w.name(), Reps: len(reps), EndToEnd: map[string]stat{},
		LatSamples: first.latSamples, Digest: fmt.Sprintf("%016x", first.digest),
	}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	bit := workloadBit(w.name())
	host := func(name string, f func(*rep) float64) { res.EndToEnd[name] = summarise(samplesOf(reps, f)) }
	host("setup_s", func(r *rep) float64 { return r.setupS })
	host("host_pkts_per_s", func(r *rep) float64 { return float64(r.pkts) / r.wallS })
	host("sim_s_per_wall_s", func(r *rep) float64 { return r.simS / r.wallS })
	host("allocs_per_pkt", func(r *rep) float64 { return float64(r.mallocs) / float64(r.pkts) })
	host("heap_live_mb", func(r *rep) float64 { return r.heapLiveMB })
	for name, v := range first.sim {
		res.EndToEnd[name] = stat{Median: v, Q1: v, Q3: v, N: len(reps)}
	}
	if err := checkApplies(bit, srcE, func(name string) bool { _, ok := res.EndToEnd[name]; return ok }); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	if !opt.trace {
		return res, nil
	}

	// Traced pass: one rep with the harness's wrappers installed, one
	// with telemetry off where the workload runs with it on, and the
	// isolated probes on the workload's inputs.
	untracedWall := medianOf(reps, func(r *rep) float64 { return r.wallS })
	tr := newTracer()
	traced, err := w.rep(repCtx{seed: opt.seed, size: opt.size, tr: tr, deep: true})
	if err != nil {
		return nil, err
	}
	if err := sameOutputs(first, traced); err != nil {
		return nil, fmt.Errorf("%s: observer effect, the traced rep differs from the untraced ones: %w", w.name(), err)
	}
	teleOffWall := math.NaN()
	if bit&(wOff|wChaos) != 0 {
		off, err := w.rep(repCtx{seed: opt.seed, size: opt.size, telemetryOff: true})
		if err != nil {
			return nil, err
		}
		teleOffWall = off.wallS
	}
	in := w.probeInputs()
	if p := tr.meanPending(); p > 0 {
		in.pending = p
	}
	pr, sample := runProbes(in, budget/4)

	res.Layers, res.ProbeAlloc = layerValues(bit, in, reps, traced, tr, pr, untracedWall, teleOffWall)
	res.ProbeSample = sample.String()
	if err := checkApplies(bit, 0, func(name string) bool { _, ok := res.Layers[name]; return ok }); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	if res.TracePath, err = tr.write(opt.outDir, w.name()); err != nil {
		return nil, err
	}
	return res, nil
}

// sameOutputs is the determinism check between two reps of a seed:
// the simulated metrics and the counter digest must be identical.
func sameOutputs(a, b *rep) error {
	var errs []error
	for name, v := range a.sim {
		if got, ok := b.sim[name]; !ok || got != v {
			errs = append(errs, fmt.Errorf("%s %v != %v", name, got, v))
		}
	}
	if len(a.sim) != len(b.sim) {
		errs = append(errs, errors.New("different simulated metrics"))
	}
	if a.digest != b.digest {
		errs = append(errs, fmt.Errorf("counter digest %016x != %016x", b.digest, a.digest))
	}
	return errors.Join(errs...)
}

// checkApplies holds the dictionary to the results: a metric is
// present exactly where the dictionary says it applies. src 0 checks
// the per-layer sources, srcE the end-to-end ones.
func checkApplies(w wset, src byte, present func(string) bool) error {
	var errs []error
	for i := range dictionary {
		m := &dictionary[i]
		if m.endToEnd() != (src == srcE) {
			continue
		}
		switch applies := m.applies&w != 0; {
		case applies && !present(m.name):
			errs = append(errs, fmt.Errorf("%s applies but was not measured", m.name))
		case !applies && present(m.name):
			errs = append(errs, fmt.Errorf("%s was measured but does not apply", m.name))
		}
	}
	return errors.Join(errs...)
}

func samplesOf(reps []*rep, f func(*rep) float64) []float64 {
	s := make([]float64, len(reps))
	for i, r := range reps {
		s[i] = f(r)
	}
	return s
}

func medianOf(reps []*rep, f func(*rep) float64) float64 { return quantile(samplesOf(reps, f), 0.5) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerValues assembles the per-layer metrics of one workload: the
// traced rep's counters and spans, the probes, and the ledger that
// multiplies one by the other.
func layerValues(w wset, in probeInputs, reps []*rep, traced *rep, tr *tracer, pr map[string]probeResult,
	untracedWall, teleOffWall float64) (values, values) {
	v, allocs := values{}, values{}
	c, have := traced.counts, traced.have
	count := func(name string, slot int) {
		if have.has(slot) {
			v[name] = float64(c[slot])
		}
	}
	pktsIn := c[cFromVM] + c[cFromNet]

	// Counters (C) and what derives from them (D).
	count("sim.events_fired", cEvents)
	if have.has(cEvents) {
		v["sim.events_per_pkt"] = ratio(c[cEvents], pktsIn)
	}
	count("packet.pool_gets", cPoolGets)
	count("tables.slow_walks", cSlow)
	count("state.touches", cTouches)
	count("flowcache.hits", cFcHits)
	count("flowcache.misses", cFcMisses)
	count("flowcache.evictions", cFcEvict)
	if have.has(cFcHits) {
		v["flowcache.hit_ratio"] = ratio(c[cFcHits], c[cFcHits]+c[cFcMisses])
	}
	count("nic.cpu_jobs", cCPUJobs)
	count("nic.cpu_drops", cCPUDrops)
	count("fabric.sends", cFabSends)
	count("fabric.lost", cFabLost)
	v["fabric.bytes_per_pkt"] = ratio(c[cFabBytes], c[cFabSends])
	v["vswitch.pkts_in"] = float64(pktsIn)
	v["vswitch.fastpath_share"] = ratio(c[cFast], c[cFast]+c[cSlow])
	v["vswitch.drop_share"] = ratio(c[cDrops], pktsIn)
	v["vswitch.notify_share"] = ratio(c[cNotifySent], pktsIn)
	v["vswitch.extra_hop_share"] = ratio(c[cSent], c[cDelivered]) - 1
	count("workload.conns_started", cConnsStarted)
	count("workload.conns_completed", cConnsCompleted)
	count("workload.kernel_drops", cKernelDrops)
	count("ctrlrpc.sent", cRPCSent)
	if have.has(cRPCSent) {
		v["ctrlrpc.retry_share"] = ratio(c[cRPCRetries], c[cRPCSent])
	}
	count("ctrlrpc.expired", cRPCExpired)
	count("controller.offloads", cOffloads)
	count("controller.scaleouts", cScaleOuts)
	count("controller.failovers", cFailovers)
	count("controller.aborts", cAborts)
	count("monitor.probes", cMonProbes)
	count("monitor.declared", cMonDeclared)
	count("journal.appends", cJournalAppends)
	count("journal.snapshots", cJournalSnaps)
	count("obs.traces_sampled", cTraceHops)
	for name, g := range traced.gauges {
		v[name] = g
	}
	for name := range reps[0].rt {
		name := name
		v[name] = medianOf(reps, func(r *rep) float64 { return r.rt[name] })
	}

	// Seam spans (S).
	perUnit := func(name string, kind int) {
		if ns, ok := tr.perUnit(kind); ok {
			v[name] = ns
		}
	}
	perUnit("sim.event_self_ns", spanEvent)
	perUnit("vswitch.underlay_ns_per_pkt", spanUnderlay)
	perUnit("vswitch.from_vm_ns_per_pkt", spanFromVM)
	perUnit("workload.deliver_ns_per_pkt", spanDeliver)
	if a := &tr.agg[spanCampaign]; a.Count > 0 {
		ms := make([]float64, len(a.durs))
		for i, d := range a.durs {
			ms[i] = float64(d) / 1e6
		}
		v["chaos.campaign_ms"] = quantile(ms, 0.5)
		v["chaos.campaign_ms_max"] = quantile(ms, 1)
	}
	if a := &tr.agg[spanBuild]; a.Count > 0 {
		v["cluster.build_ms"] = float64(a.Total) / 1e6
	}
	v["trace.spans"] = float64(tr.spans())
	v["trace.overhead_share"] = (traced.wallS - untracedWall) / untracedWall
	if !math.IsNaN(teleOffWall) {
		v["telemetry.overhead_share"] = (untracedWall - teleOffWall) / teleOffWall
	}

	// Probes (P).
	p := func(name string) float64 { return pr[name].ns }
	for name, r := range pr {
		v[name] = r.ns
		if lookupMetric(name).unit == "ms" {
			v[name] = r.ns / 1e6
		}
		allocs[name] = r.allocs
	}

	// The ledger: count × isolated cost ÷ the workload's untraced wall.
	wallNS := untracedWall * 1e9
	share := func(name string, ns float64) float64 {
		v[name] = ns / wallNS
		return v[name]
	}
	submit, send := p("nic.submit_ns"), p("fabric.send_ns")
	if in.burst > 1 {
		submit, send = p("nic.submit_burst_ns_per_pkt"), p("fabric.send_burst_ns_per_pkt")
	}
	relays := float64(c[cSent]) - float64(c[cDelivered]) // sends beyond one per delivery carry a Nezha header
	if relays < 0 {
		relays = 0
	}
	var explained float64
	if have.has(cEvents) {
		explained += share("sim.ledger_share", float64(c[cEvents])*p("sim.sched_near_ns"))
		explained += share("packet.ledger_share", float64(c[cPoolGets])*(p("packet.get_release_ns")+p("packet.hash_ns")))
		explained += share("flowcache.ledger_share",
			float64(c[cFcHits])*p("flowcache.lookup_hit_ns")+float64(c[cFcMisses])*p("flowcache.insert_delete_ns"))
		explained += share("nic.ledger_share", float64(c[cCPUJobs])*submit)
	}
	explained += share("tables.ledger_share", float64(c[cSlow])*p("tables.lookup_ns"))
	explained += share("state.ledger_share", float64(c[cTouches])*p("state.touch_ns")+relays*p("state.codec_ns"))
	explained += share("fabric.ledger_share", float64(c[cFabSends])*send+float64(c[cFromVM])*p("fabric.gw_pick_ns"))
	explained += float64(c[cJournalAppends]) * p("journal.append_ns") / wallNS
	var telemetry float64
	if w&(wOff|wChaos) != 0 {
		// Per packet the hooks pay: a latency record at each delivery or
		// drop, about three attribution charges, one histogram update.
		telemetry = float64(c[cDelivered])*p("slo.record_deliver_ns") + float64(c[cDrops])*p("slo.record_drop_ns") +
			float64(pktsIn)*(3*p("prof.charge_ns")+p("obs.counter_inc_ns"))
	}
	explained += share("telemetry.ledger_share", telemetry)
	v["ledger.explained_share"] = explained
	v["ledger.unexplained_share"] = 1 - explained
	return v, allocs
}
