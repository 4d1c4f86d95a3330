// Command nezha-top renders the cluster telemetry stream that
// nezha-sim emits with -obs (or serves with -listen, as nezha-chaos
// does): per-node utilization and packet rates, per-vNIC offload
// state, and control-plane transaction and RPC activity. Runs with the
// latency SLO ledger attached (-slo) additionally get a LATENCY
// section (per-vNIC end-to-end p99 vs objective, burn rate, per-path
// breakdown) and a TOP FLOWS (hot) table of the top-K flows from the
// count-min heavy-hitter sketch — in both file and attach modes.
//
// Two input modes:
//
// File mode — newline-delimited JSON snapshots (one per virtual
// second), or '-' for stdin:
//
//	nezha-sim -obs run.jsonl &
//	nezha-top -follow run.jsonl
//
// Without -follow the last snapshot is rendered once and the program
// exits — useful for post-mortem inspection of a finished run. With
// -follow the file is tailed and the screen redrawn as snapshots
// arrive, top(1)-style.
//
// Attach mode — connect to a live run's ops service (nezha-sim
// -listen / nezha-chaos -listen) over HTTP:
//
//	nezha-chaos -listen 127.0.0.1:8378 -pace 1 &
//	nezha-top -attach http://127.0.0.1:8378
//
// The latest snapshot is fetched for immediate scrollback, then the
// screen follows the SSE stream (one snapshot per virtual second).
// With -once a single snapshot is rendered and the program exits.
//
// -node and -vnic narrow every section to the matching node address /
// vNIC id.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nezha/internal/obs"
	"nezha/internal/sim"
)

// usage is what a bad invocation prints after its error.
const usage = "usage: nezha-top [-follow] [-interval 500ms] [-n 10] [-node a] [-vnic 7] <run.jsonl | -> | nezha-top -attach http://host:port [-once]"

// validate checks the flags before anything is opened or fetched;
// main exits 2 on its error. Go's flag stops at the first positional
// argument, so one before a flag would silently drop that flag.
func validate(args []string, attach string, once bool, topK int, interval time.Duration) error {
	switch {
	case topK < 1:
		return fmt.Errorf("-n %d: need at least 1 flow", topK)
	case interval <= 0:
		return fmt.Errorf("-interval %v: need a positive poll period", interval)
	case attach != "" && len(args) > 0:
		return fmt.Errorf("unexpected arguments %q with -attach (it reads no file; flags go first)", args)
	case attach == "" && once:
		return fmt.Errorf("-once needs -attach (without -follow a file is rendered once anyway)")
	case attach == "" && len(args) != 1:
		return fmt.Errorf("want one input, a file or -, got %d arguments %q", len(args), args)
	}
	return nil
}

func main() {
	var (
		follow   = flag.Bool("follow", false, "tail the file and redraw as snapshots arrive")
		interval = flag.Duration("interval", 500*time.Millisecond, "poll period in -follow mode")
		topK     = flag.Int("n", 10, "flows to show in the TOP FLOWS table")
		attach   = flag.String("attach", "", "attach to a live ops service (http://host:port) instead of reading a file")
		once     = flag.Bool("once", false, "with -attach: render one snapshot and exit")
		nodeF    = flag.String("node", "", "only show rows for this node address")
		vnicF    = flag.String("vnic", "", "only show rows for this vNIC id")
	)
	flag.Parse()
	if err := validate(flag.Args(), *attach, *once, *topK, *interval); err != nil {
		fmt.Fprintf(os.Stderr, "nezha-top: %v\n%s\n", err, usage)
		os.Exit(2)
	}
	f := filter{node: *nodeF, vnic: *vnicF}

	if *attach != "" {
		if err := runAttach(strings.TrimRight(*attach, "/"), *topK, f, *once); err != nil {
			fmt.Fprintf(os.Stderr, "nezha-top: %v\n", err)
			os.Exit(1)
		}
		return
	}

	path := flag.Arg(0)

	var in io.Reader
	if path == "-" {
		in = os.Stdin
	} else {
		file, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nezha-top: %v\n", err)
			os.Exit(1)
		}
		defer file.Close()
		in = file
	}

	r := bufio.NewReader(in)
	var last *obs.Snapshot
	rendered := false
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 1 {
			var s obs.Snapshot
			if jerr := json.Unmarshal(line, &s); jerr == nil {
				last = &s
				if *follow {
					fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
					render(os.Stdout, last, *topK, f)
					rendered = true
				}
			}
		}
		if err != nil {
			if err == io.EOF && *follow && path != "-" {
				time.Sleep(*interval)
				continue
			}
			break
		}
	}
	if last == nil {
		fmt.Fprintln(os.Stderr, "nezha-top: no snapshots in input")
		os.Exit(1)
	}
	if !rendered {
		render(os.Stdout, last, *topK, f)
	}
}

// fetchSnapshot polls /api/v1/snapshot until the service has published
// one (the host may still be starting up — CI races the first virtual
// second), bounded by the deadline.
func fetchSnapshot(base string, deadline time.Duration) (*obs.Snapshot, error) {
	var lastErr error
	for end := time.Now().Add(deadline); ; {
		resp, err := http.Get(base + "/api/v1/snapshot")
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				var s obs.Snapshot
				err = json.NewDecoder(resp.Body).Decode(&s)
				resp.Body.Close()
				if err != nil {
					return nil, err
				}
				return &s, nil
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			lastErr = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
		} else {
			lastErr = err
		}
		if time.Now().After(end) {
			return nil, fmt.Errorf("no snapshot from %s: %v", base, lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// runAttach drives the live view: one snapshot (with retries, so a CI
// smoke can start nezha-top before the service has published), then —
// unless -once — the SSE stream, redrawing per event.
func runAttach(base string, topK int, f filter, once bool) error {
	snap, err := fetchSnapshot(base, 15*time.Second)
	if err != nil {
		return err
	}
	if once {
		render(os.Stdout, snap, topK, f)
		return nil
	}
	fmt.Print("\x1b[2J\x1b[H")
	render(os.Stdout, snap, topK, f)

	resp, err := http.Get(base + "/api/v1/stream?replay=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		case line == "" && data.Len() > 0:
			var s obs.Snapshot
			if jerr := json.Unmarshal([]byte(data.String()), &s); jerr == nil {
				fmt.Print("\x1b[2J\x1b[H")
				render(os.Stdout, &s, topK, f)
			}
			data.Reset()
		}
	}
	return sc.Err()
}

// filter narrows the rendered sections to one node and/or one vNIC.
// Zero values match everything.
type filter struct {
	node string
	vnic string
}

func (f filter) matchNode(n string) bool { return f.node == "" || f.node == n }
func (f filter) matchVNIC(v string) bool { return f.vnic == "" || f.vnic == v }

// index groups a snapshot's points by metric name for cheap lookups.
type index map[string][]obs.Point

func makeIndex(s *obs.Snapshot) index {
	idx := make(index)
	for _, p := range s.Points {
		idx[p.Name] = append(idx[p.Name], p)
	}
	return idx
}

// val returns the value of name with label k=v (0 if absent).
func (idx index) val(name, k, v string) float64 {
	for _, p := range idx[name] {
		if p.Labels[k] == v {
			return p.Value
		}
	}
	return 0
}

// rate returns the windowed per-second rate of name with label k=v.
func (idx index) rate(name, k, v string) float64 {
	var t float64
	for _, p := range idx[name] {
		if p.Labels[k] == v {
			t += p.Rate
		}
	}
	return t
}

// total returns the summed value of every series of name.
func (idx index) total(name string) float64 {
	var t float64
	for _, p := range idx[name] {
		t += p.Value
	}
	return t
}

// labelValues returns the sorted distinct values of label k across
// name's series.
func (idx index) labelValues(name, k string) []string {
	seen := make(map[string]bool)
	for _, p := range idx[name] {
		if v, ok := p.Labels[k]; ok && !seen[v] {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// sumWhere sums the values of name's series whose labels pass match.
func (idx index) sumWhere(name string, match func(l map[string]string) bool) float64 {
	var t float64
	for _, p := range idx[name] {
		if match(p.Labels) {
			t += p.Value
		}
	}
	return t
}

// renderProf draws the attribution-profiler sections: a per-node
// cycle/byte breakdown and the hottest still-resident vNICs by
// relocatable work (slow-path and session-install cycles, the work an
// offload moves to the FEs).
func renderProf(w io.Writer, idx index, topK int, f filter) {
	nodes := idx.labelValues("prof_cycles_total", "node")
	var kept []string
	for _, n := range nodes {
		if f.matchNode(n) {
			kept = append(kept, n)
		}
	}
	nodes = kept
	if len(nodes) == 0 {
		return
	}
	fmt.Fprintf(w, "PROF %-15s %14s  %-42s %10s %6s\n", "", "CYCLES", "TOP STAGES", "LIVE MEM", "CORE%")
	for _, n := range nodes {
		byNode := func(l map[string]string) bool { return l["node"] == n }
		total := idx.sumWhere("prof_cycles_total", byNode)
		type sc struct {
			stage string
			c     float64
		}
		var stages []sc
		for _, st := range idx.labelValues("prof_cycles_total", "stage") {
			c := idx.sumWhere("prof_cycles_total", func(l map[string]string) bool {
				return l["node"] == n && l["stage"] == st
			})
			if c > 0 {
				stages = append(stages, sc{st, c})
			}
		}
		sort.Slice(stages, func(i, j int) bool { return stages[i].c > stages[j].c })
		top := ""
		for i, s := range stages {
			if i == 3 {
				break
			}
			if i > 0 {
				top += " "
			}
			top += fmt.Sprintf("%s %.0f%%", s.stage, s.c/total*100)
		}
		live := idx.sumWhere("prof_mem_live_bytes", byNode)
		var util, cores float64
		for _, p := range idx["prof_core_util"] {
			if p.Labels["node"] == n {
				util += p.Value
				cores++
			}
		}
		if cores > 0 {
			util = util / cores * 100
		}
		fmt.Fprintf(w, "  %-18s %14.0f  %-42s %9.0fK %5.1f%%\n", n, total, top, live/1024, util)
	}

	// Hottest resident vNICs by relocatable cycles (slow path + session
	// installs on role=local slots): the offload-ranking signal.
	type hot struct {
		node, vnic string
		cyc, bytes float64
	}
	var hots []hot
	for _, n := range nodes {
		for _, v := range idx.labelValues("prof_cycles_total", "vnic") {
			if !f.matchVNIC(v) {
				continue
			}
			reloc := idx.sumWhere("prof_cycles_total", func(l map[string]string) bool {
				return l["node"] == n && l["vnic"] == v && l["role"] == "local" &&
					(l["stage"] == "slowpath" || l["stage"] == "session-install")
			})
			if reloc == 0 {
				continue
			}
			b := idx.sumWhere("prof_mem_live_bytes", func(l map[string]string) bool {
				return l["node"] == n && l["vnic"] == v && l["role"] == "local"
			})
			hots = append(hots, hot{n, v, reloc, b})
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].cyc > hots[j].cyc })
	if len(hots) > topK {
		hots = hots[:topK]
	}
	if len(hots) > 0 {
		fmt.Fprintf(w, "PROF HOT VNICS %-6s %-18s %16s %12s\n", "", "NODE", "RELOC CYCLES", "LIVE BYTES")
		for _, h := range hots {
			fmt.Fprintf(w, "  vnic %-10s %-18s %16.0f %12.0f\n", h.vnic, h.node, h.cyc, h.bytes)
		}
	}
	fmt.Fprintln(w)
}

// renderSLO draws the LATENCY section from the snapshot's embedded
// SLO view: per-vNIC end-to-end p99 against the objective, violation
// and drop totals, the current burn rate, and the per-path breakdown.
func renderSLO(w io.Writer, s *obs.Snapshot, topK int, f filter) {
	if s.SLO == nil || len(s.SLO.VNICs) == 0 {
		return
	}
	fmt.Fprintf(w, "LATENCY (objective %v, burn events %d) %s\n",
		sim.Time(s.SLO.ObjectiveNS), s.SLO.BurnEvents, "")
	fmt.Fprintf(w, "  %-8s %10s %8s %7s %12s %6s  %s\n",
		"VNIC", "TOTAL", "VIOL", "DROPS", "P99", "BURN", "PATHS")
	for _, vn := range s.SLO.VNICs {
		if !f.matchVNIC(strconv.FormatUint(uint64(vn.VNIC), 10)) {
			continue
		}
		paths := ""
		for _, p := range vn.Paths {
			if paths != "" {
				paths += " "
			}
			paths += fmt.Sprintf("%s/%s:%v", p.Path, p.Dir, sim.Time(p.P99))
		}
		burn := fmt.Sprintf("%.2f", vn.Burn)
		if vn.Burning > 0 {
			burn += fmt.Sprintf("*%d", vn.Burning)
		}
		fmt.Fprintf(w, "  %-8d %10d %8d %7d %12v %6s  %s\n",
			vn.VNIC, vn.Total, vn.Violations, vn.Drops, sim.Time(vn.P99), burn, paths)
	}
	fmt.Fprintln(w)
	if len(s.SLO.HotFlows) > 0 && f.node == "" {
		fmt.Fprintf(w, "TOP FLOWS (hot, count-min) %12s %12s %6s\n", "PACKETS", "BYTES", "VNIC")
		n := len(s.SLO.HotFlows)
		if n > topK {
			n = topK
		}
		for _, fl := range s.SLO.HotFlows[:n] {
			if !f.matchVNIC(strconv.FormatUint(uint64(fl.VNIC), 10)) {
				continue
			}
			fmt.Fprintf(w, "  %-32s %10d %12d %6d\n", fl.Flow, fl.Packets, fl.Bytes, fl.VNIC)
		}
		fmt.Fprintln(w)
	}
}

// renderSpans draws the TXN SPANS section from the completed
// control-plane transaction spans embedded in live snapshots.
func renderSpans(w io.Writer, s *obs.Snapshot, f filter) {
	var spans []obs.Span
	for _, sp := range s.Spans {
		if !f.matchVNIC(strconv.FormatUint(uint64(sp.VNIC), 10)) {
			continue
		}
		if sp.Node != 0 && !f.matchNode(sp.Node.String()) {
			continue
		}
		spans = append(spans, sp)
	}
	if len(spans) == 0 {
		return
	}
	fmt.Fprintf(w, "TXN SPANS %-9s %6s %7s %12s %12s %10s\n", "", "VNIC", "EPOCH", "START", "TOOK", "OUTCOME")
	for _, sp := range spans {
		fmt.Fprintf(w, "  %-16s %6d %7d %12v %12v %10s\n",
			sp.Kind, sp.VNIC, sp.Epoch, sp.Start, sp.End-sp.Start, sp.Outcome)
	}
	fmt.Fprintln(w)
}

func render(w io.Writer, s *obs.Snapshot, topK int, f filter) {
	idx := makeIndex(s)
	fmt.Fprintf(w, "nezha-top  t=%v  series=%d", s.T, len(s.Points))
	if f.node != "" {
		fmt.Fprintf(w, "  node=%s", f.node)
	}
	if f.vnic != "" {
		fmt.Fprintf(w, "  vnic=%s", f.vnic)
	}
	fmt.Fprint(w, "\n\n")

	if nodes := idx.labelValues("vswitch_cpu_util", "node"); len(nodes) > 0 {
		var shown []string
		for _, n := range nodes {
			if f.matchNode(n) {
				shown = append(shown, n)
			}
		}
		if len(shown) > 0 {
			fmt.Fprintf(w, "NODES %-14s %6s %6s %8s %6s %5s %5s %10s %9s %6s\n",
				"", "CPU%", "MEM%", "SESS", "VNICS", "OFF", "FES", "PPS", "DROP/s", "STATE")
			for _, n := range shown {
				state := "up"
				if idx.val("vswitch_crashed", "node", n) > 0 {
					state = "CRASH"
				} else if idx.val("controller_node_down", "node", n) > 0 {
					state = "DOWN"
				}
				pps := idx.rate("vswitch_from_vm_total", "node", n) + idx.rate("vswitch_from_net_total", "node", n)
				fmt.Fprintf(w, "  %-18s %5.1f%% %5.1f%% %8.0f %6.0f %5.0f %5.0f %10.0f %9.1f %6s\n",
					n,
					idx.val("vswitch_cpu_util", "node", n)*100,
					idx.val("vswitch_mem_util", "node", n)*100,
					idx.val("vswitch_sessions", "node", n),
					idx.val("vswitch_vnics", "node", n),
					idx.val("vswitch_vnics_offloaded", "node", n),
					idx.val("vswitch_fes_hosted", "node", n),
					pps,
					idx.rate("vswitch_drops_total", "node", n),
					state)
			}
			fmt.Fprintln(w)
		}
	}

	if vnics := idx.labelValues("controller_vnic_offloaded", "vnic"); len(vnics) > 0 {
		var shown []string
		for _, v := range vnics {
			if f.matchVNIC(v) {
				shown = append(shown, v)
			}
		}
		sort.Slice(shown, func(i, j int) bool {
			a, _ := strconv.Atoi(shown[i])
			b, _ := strconv.Atoi(shown[j])
			return a < b
		})
		if len(shown) > 0 {
			fmt.Fprintf(w, "VNICS %-8s %10s %5s %7s %9s %6s\n", "", "STATE", "FES", "EPOCH", "DEGRADED", "DIRTY")
			for _, v := range shown {
				state := "local"
				if idx.val("controller_vnic_offloaded", "vnic", v) > 0 {
					state = "offloaded"
				}
				fmt.Fprintf(w, "  %-12s %10s %5.0f %7.0f %9.0f %6.0f\n",
					v, state,
					idx.val("controller_vnic_fes", "vnic", v),
					idx.val("controller_vnic_epoch", "vnic", v),
					idx.val("controller_vnic_degraded", "vnic", v),
					idx.val("controller_vnic_dirty", "vnic", v))
			}
			fmt.Fprintln(w)
		}
	}

	fmt.Fprintf(w, "CONTROL offloads=%.0f fallbacks=%.0f scaleouts=%.0f failovers=%.0f aborts=%.0f rollbacks=%.0f degraded=%.0f txns-inflight=%.0f\n",
		idx.total("controller_offloads_total"),
		idx.total("controller_fallbacks_total"),
		idx.total("controller_scaleouts_total"),
		idx.total("controller_failovers_total"),
		idx.total("controller_aborts_total"),
		idx.total("controller_rollbacks_total"),
		idx.total("controller_vnic_degraded"),
		idx.total("controller_txns_inflight"))
	fmt.Fprintf(w, "RPC     attempts=%.0f acked=%.0f retries=%.0f timeouts=%.0f pending=%.0f   MON probes=%.0f declared=%.0f down=%.0f guard=%.0f\n\n",
		idx.total("ctrlrpc_attempts_total"),
		idx.total("ctrlrpc_acked_total"),
		idx.total("ctrlrpc_retries_total"),
		idx.total("ctrlrpc_timeouts_total"),
		idx.total("ctrlrpc_pending"),
		idx.total("monitor_probes_sent_total"),
		idx.total("monitor_declared_total"),
		idx.total("monitor_targets_down"),
		idx.total("monitor_guard_active"))

	// The CTRL line appears only when the controller publishes its
	// liveness series (always, on obs-enabled runs): process liveness,
	// crash-recovery counters, and the write-ahead journal's footprint.
	if len(idx["ctrl_up"]) > 0 {
		state := "up"
		if idx.total("ctrl_up") == 0 {
			state = "DOWN"
		}
		fmt.Fprintf(w, "CTRL    %s recoveries=%.0f last-recovery=%.1fms journal=%.1fK appends=%.0f snapshots=%.0f dup-effects=%.0f\n\n",
			state,
			idx.total("ctrl_recoveries_total"),
			idx.total("ctrl_recovery_ms"),
			idx.total("journal_bytes")/1024,
			idx.total("journal_appends_total"),
			idx.total("journal_snapshots_total"),
			idx.total("ctrl_dup_side_effects_total"))
	}

	// The POLICY line appears only when the policy engine decides
	// (nezha-sim -policy, policy scenarios: cluster Options.Policy).
	if idx.total("policy_steps_total") > 0 {
		fmt.Fprintf(w, "POLICY  steps=%.0f offloads=%.0f fallbacks=%.0f scale-outs=%.0f scale-ins=%.0f rejected=%.0f thrash=%.0f\n\n",
			idx.total("policy_steps_total"),
			idx.val("policy_decisions_total", "action", "offload"),
			idx.val("policy_decisions_total", "action", "fallback"),
			idx.val("policy_decisions_total", "action", "scale-out"),
			idx.val("policy_decisions_total", "action", "scale-in"),
			idx.total("policy_rejected_total"),
			idx.total("policy_thrash_total"))
	}

	renderSLO(w, s, topK, f)
	renderSpans(w, s, f)
	renderProf(w, idx, topK, f)
}
