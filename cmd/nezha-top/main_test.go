package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nezha/internal/obs"
	"nezha/internal/prof"
)

func TestValidate(t *testing.T) {
	const iv = 500 * time.Millisecond
	for _, c := range []struct {
		args     []string
		attach   string
		once     bool
		n        int
		interval time.Duration
		want     string // "" = valid; else a substring of the error
	}{
		{args: []string{"run.jsonl"}, n: 10, interval: iv},
		{args: []string{"-"}, n: 1, interval: time.Millisecond},
		{attach: "http://127.0.0.1:8378", n: 10, interval: iv},
		{attach: "http://127.0.0.1:8378", once: true, n: 10, interval: iv},
		{args: []string{"run.jsonl"}, n: 0, interval: iv, want: "-n 0: need at least 1 flow"},
		{args: []string{"run.jsonl"}, n: -3, interval: iv, want: "-n -3: need at least 1 flow"},
		{args: []string{"run.jsonl"}, n: 10, interval: 0, want: "-interval 0s: need a positive poll period"},
		{args: []string{"run.jsonl"}, n: 10, interval: -time.Second, want: "-interval -1s: need a positive poll period"},
		{args: []string{"run.jsonl"}, attach: "http://127.0.0.1:8378", n: 10, interval: iv, want: `unexpected arguments ["run.jsonl"] with -attach`},
		{args: []string{"run.jsonl"}, once: true, n: 10, interval: iv, want: "-once needs -attach"},
		{n: 10, interval: iv, want: "want one input, a file or -, got 0 arguments"},
		{args: []string{"run.jsonl", "-follow"}, n: 10, interval: iv, want: `got 2 arguments ["run.jsonl" "-follow"]`},
	} {
		err := validate(c.args, c.attach, c.once, c.n, c.interval)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}

// TestRenderProfSections feeds render a snapshot produced by a real
// profiler drained through a real registry — the same JSONL pipeline
// nezha-sim/nezha-chaos emit — and checks the PROF sections surface
// the attribution series.
func TestRenderProfSections(t *testing.T) {
	pr := prof.New()
	n := pr.Node("10.1.0.1", 2)
	hot := n.Slot(100, prof.RoleLocal)
	hot.Charge(prof.DirTX, prof.StageSlowpath, 900_000)
	hot.Charge(prof.DirTX, prof.StageSessionInstall, 300_000)
	hot.Charge(prof.DirTX, prof.StageFastpath, 50_000)
	hot.MemAlloc(prof.CauseRuleTable, 4096)
	cold := n.Slot(200, prof.RoleLocal)
	cold.Charge(prof.DirTX, prof.StageSlowpath, 10_000)

	reg := obs.NewRegistry()
	pr.Attach(reg)
	raw, err := json.Marshal(reg.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	render(&buf, &snap, 10, filter{})
	out := buf.String()
	for _, want := range []string{
		"PROF",
		"10.1.0.1",
		"slowpath",
		"PROF HOT VNICS",
		"vnic 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// The hot vNIC must be listed before the cold one.
	if i, j := strings.Index(out, "vnic 100"), strings.Index(out, "vnic 200"); j >= 0 && j < i {
		t.Errorf("hot vNIC ranked after cold one:\n%s", out)
	}
}

// TestRenderWithoutProfSeries pins the no-profiler path: snapshots
// from runs without -prof must render with no PROF section.
func TestRenderWithoutProfSeries(t *testing.T) {
	var buf bytes.Buffer
	render(&buf, &obs.Snapshot{}, 10, filter{})
	if strings.Contains(buf.String(), "PROF") {
		t.Errorf("PROF section rendered with no prof series:\n%s", buf.String())
	}
}

// constant registers one series that reads *v.
func constant(reg *obs.Registry, name string, labels obs.Labels, kind obs.Kind, v *float64) {
	obs.Register(reg, v, labels, &obs.Table[float64]{Series: []obs.Series[float64]{
		{Name: name, Kind: kind, Value: func(v *float64) float64 { return *v }},
	}})
}

func ptr(v float64) *float64 { return &v }

// TestRenderCtrlLine round-trips the controller liveness series
// through the registry → JSON → snapshot pipeline and checks the CTRL
// line surfaces recovery and journal state; a snapshot taken during an
// outage must flag the controller DOWN.
func TestRenderCtrlLine(t *testing.T) {
	up := 1.0
	reg := obs.NewRegistry()
	constant(reg, "ctrl_up", nil, obs.KindGauge, &up)
	constant(reg, "ctrl_recoveries_total", nil, obs.KindCounter, ptr(2))
	constant(reg, "ctrl_recovery_ms", nil, obs.KindGauge, ptr(3.5))
	constant(reg, "journal_bytes", nil, obs.KindGauge, ptr(2048))
	constant(reg, "journal_appends_total", nil, obs.KindCounter, ptr(42))
	constant(reg, "journal_snapshots_total", nil, obs.KindCounter, ptr(1))
	constant(reg, "ctrl_dup_side_effects_total", nil, obs.KindCounter, ptr(0))

	roundTrip := func() string {
		raw, err := json.Marshal(reg.Snapshot(0))
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		render(&buf, &snap, 10, filter{})
		return buf.String()
	}

	out := roundTrip()
	for _, want := range []string{
		"CTRL    up",
		"recoveries=2",
		"last-recovery=3.5ms",
		"journal=2.0K",
		"appends=42",
		"snapshots=1",
		"dup-effects=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}

	up = 0
	if out := roundTrip(); !strings.Contains(out, "CTRL    DOWN") {
		t.Errorf("outage snapshot not flagged DOWN:\n%s", out)
	}

	// Snapshots from runs predating the liveness series render no CTRL
	// line at all.
	var buf bytes.Buffer
	render(&buf, &obs.Snapshot{}, 10, filter{})
	if strings.Contains(buf.String(), "CTRL") {
		t.Errorf("CTRL line rendered with no ctrl series:\n%s", buf.String())
	}
}

// TestRenderNodeVNICFilters round-trips a two-node, two-vNIC snapshot
// through the registry → JSON → snapshot pipeline and checks -node and
// -vnic narrow every section to the matching rows.
func TestRenderNodeVNICFilters(t *testing.T) {
	reg := obs.NewRegistry()
	for _, n := range []string{"10.1.0.1", "10.1.0.2"} {
		lbl := obs.L("node", n)
		constant(reg, "vswitch_cpu_util", lbl, obs.KindGauge, ptr(0.5))
		constant(reg, "vswitch_sessions", lbl, obs.KindGauge, ptr(7))
	}
	for _, v := range []string{"100", "200"} {
		lbl := obs.L("vnic", v)
		constant(reg, "controller_vnic_offloaded", lbl, obs.KindGauge, ptr(1))
		constant(reg, "controller_vnic_fes", lbl, obs.KindGauge, ptr(2))
	}
	pr := prof.New()
	pr.Node("10.1.0.1", 2).Slot(100, prof.RoleLocal).Charge(prof.DirTX, prof.StageSlowpath, 500_000)
	pr.Node("10.1.0.2", 2).Slot(200, prof.RoleLocal).Charge(prof.DirTX, prof.StageSlowpath, 400_000)
	pr.Attach(reg)

	roundTrip := func(f filter) string {
		raw, err := json.Marshal(reg.Snapshot(0))
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		render(&buf, &snap, 10, f)
		return buf.String()
	}

	// Unfiltered: both nodes and both vNICs appear.
	out := roundTrip(filter{})
	for _, want := range []string{"10.1.0.1", "10.1.0.2", "100", "200"} {
		if !strings.Contains(out, want) {
			t.Errorf("unfiltered output missing %q:\n%s", want, out)
		}
	}

	// -node filters NODES and PROF rows.
	out = roundTrip(filter{node: "10.1.0.1"})
	if !strings.Contains(out, "10.1.0.1") {
		t.Errorf("-node output missing the selected node:\n%s", out)
	}
	if strings.Contains(out, "10.1.0.2") {
		t.Errorf("-node output leaked the other node:\n%s", out)
	}

	// -vnic filters VNICS and PROF HOT VNICS rows.
	out = roundTrip(filter{vnic: "100"})
	if !strings.Contains(out, "vnic 100") {
		t.Errorf("-vnic output missing the selected vNIC:\n%s", out)
	}
	if strings.Contains(out, "vnic 200") || strings.Contains(out, "  200 ") {
		t.Errorf("-vnic output leaked the other vNIC:\n%s", out)
	}

	// A filter matching nothing renders no NODES/VNICS section.
	out = roundTrip(filter{node: "10.9.9.9", vnic: "999"})
	if strings.Contains(out, "NODES") || strings.Contains(out, "VNICS ") {
		t.Errorf("non-matching filter still rendered sections:\n%s", out)
	}
}

// TestRenderSpansSection checks the TXN SPANS section renders the
// spans embedded in live snapshots and honors the -vnic filter.
func TestRenderSpansSection(t *testing.T) {
	snap := &obs.Snapshot{Spans: []obs.Span{
		{Kind: "offload", VNIC: 100, Epoch: 3, Start: 0, End: 1_000_000, Outcome: "commit"},
		{Kind: "scale-out", VNIC: 200, Epoch: 1, Start: 0, End: 2_000_000, Outcome: "abort"},
	}}
	var buf bytes.Buffer
	render(&buf, snap, 10, filter{})
	out := buf.String()
	for _, want := range []string{"TXN SPANS", "offload", "scale-out", "commit", "abort"} {
		if !strings.Contains(out, want) {
			t.Errorf("spans output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	render(&buf, snap, 10, filter{vnic: "100"})
	out = buf.String()
	if !strings.Contains(out, "offload") || strings.Contains(out, "scale-out") {
		t.Errorf("-vnic span filter wrong:\n%s", out)
	}

	// Snapshots without spans (file mode) render no TXN section.
	buf.Reset()
	render(&buf, &obs.Snapshot{}, 10, filter{})
	if strings.Contains(buf.String(), "TXN SPANS") {
		t.Errorf("TXN SPANS rendered with no spans:\n%s", buf.String())
	}
}
