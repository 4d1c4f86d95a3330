package obs_test

// Exporter round-trip tests: the JSONL and Prometheus renderings of a
// snapshot must carry histogram quantiles (q=0.5/0.99) and the
// prof-derived attribution series losslessly enough for nezha-top and
// scrape tooling to reconstruct them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"nezha/internal/obs"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

// waitHist snapshots a registry holding one wait_ns{node="a"}
// histogram of the powers of two 1..1024.
func waitHist(t *testing.T) *obs.Snapshot {
	t.Helper()
	r := obs.NewRegistry()
	var h slo.Hist
	r.HistVar("wait_ns", obs.L("node", "a"), &h)
	for v := uint64(1); v <= 1024; v *= 2 {
		h.Observe(v)
	}
	s := r.Snapshot(sim.Second)
	if len(s.Points) != 1 || s.Points[0].Count != 11 {
		t.Fatalf("snapshot %+v, want the one histogram of 11 observations", s.Points)
	}
	return s
}

func TestJSONLRoundTripQuantiles(t *testing.T) {
	snap := waitHist(t)
	want := snap.Points[0]
	var buf bytes.Buffer
	if err := snap.WriteJSONLine(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("JSONL wrote %d newlines, want 1", n)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.T != sim.Second {
		t.Errorf("T = %v, want %v", back.T, sim.Second)
	}
	var pt *obs.Point
	for i := range back.Points {
		if back.Points[i].Name == "wait_ns" {
			pt = &back.Points[i]
		}
	}
	if pt == nil {
		t.Fatal("wait_ns missing from round-tripped snapshot")
	}
	if pt.Labels["node"] != "a" || pt.Kind != "histogram" {
		t.Errorf("labels/kind lost: %+v", pt)
	}
	if pt.P50 != want.P50 || pt.P99 != want.P99 || pt.P999 != want.P999 {
		t.Errorf("quantiles lost: p50=%d p99=%d p999=%d, want %d/%d/%d",
			pt.P50, pt.P99, pt.P999, want.P50, want.P99, want.P999)
	}
	if pt.Count != 11 || pt.Sum != 2047 {
		t.Errorf("count/sum lost: %d/%d", pt.Count, pt.Sum)
	}
}

// promQuantiles scans Prometheus text output for name{...quantile="q"...}
// samples and returns q -> value.
func promQuantiles(t *testing.T, out, name string) map[string]uint64 {
	t.Helper()
	got := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"{") || !strings.Contains(line, `quantile="`) {
			continue
		}
		q := line[strings.Index(line, `quantile="`)+len(`quantile="`):]
		q = q[:strings.Index(q, `"`)]
		fields := strings.Fields(line)
		v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad prom sample %q: %v", line, err)
		}
		got[q] = v
	}
	return got
}

func TestPrometheusRoundTripQuantileLabels(t *testing.T) {
	snap := waitHist(t)
	want := snap.Points[0]
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	qs := promQuantiles(t, out, "wait_ns")
	if len(qs) != 3 {
		t.Fatalf("got quantile samples %v, want exactly q=0.5, q=0.99, q=0.999", qs)
	}
	if qs["0.5"] != want.P50 {
		t.Errorf(`quantile="0.5" = %d, want %d`, qs["0.5"], want.P50)
	}
	if qs["0.99"] != want.P99 {
		t.Errorf(`quantile="0.99" = %d, want %d`, qs["0.99"], want.P99)
	}
	if qs["0.999"] != want.P999 {
		t.Errorf(`quantile="0.999" = %d, want %d`, qs["0.999"], want.P999)
	}
	// The base labels must survive on the quantile samples too.
	if !strings.Contains(out, `wait_ns{node="a",quantile="0.5"}`) {
		t.Errorf("q=0.5 sample lost its node label:\n%s", out)
	}
}

// TestProfSeriesExportBothFormats drains an attached profiler through
// both exporters and checks the attribution series survive with their
// full label sets — the series nezha-top's PROF section parses.
func TestProfSeriesExportBothFormats(t *testing.T) {
	p := prof.New()
	p.SetClock(func() sim.Time { return sim.Second })
	v := p.Node("10.1.0.1", 2).Slot(7, prof.RoleLocal)
	v.Charge(prof.DirTX, prof.StageSlowpath, 12345)
	v.MemAlloc(prof.CauseRuleTable, 4096)

	r := obs.NewRegistry()
	p.Attach(r)
	snap := r.Snapshot(sim.Second)

	var buf bytes.Buffer
	if err := snap.WriteJSONLine(&buf); err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	var cycles, mem *obs.Point
	for i := range back.Points {
		switch back.Points[i].Name {
		case "prof_cycles_total":
			cycles = &back.Points[i]
		case "prof_mem_live_bytes":
			mem = &back.Points[i]
		}
	}
	if cycles == nil || mem == nil {
		t.Fatalf("prof series missing from JSONL round trip")
	}
	if cycles.Value != 12345 || cycles.Labels["stage"] != "slowpath" ||
		cycles.Labels["vnic"] != "7" || cycles.Labels["dir"] != "tx" {
		t.Errorf("prof_cycles_total round trip: %+v", cycles)
	}
	if mem.Value != 4096 || mem.Labels["cause"] != "rule-table" {
		t.Errorf("prof_mem_live_bytes round trip: %+v", mem)
	}

	var pb strings.Builder
	if err := snap.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	want := `prof_cycles_total{cause="rule-table",dir="tx",node="10.1.0.1",role="local",stage="slowpath",vnic="7"} 12345`
	if !strings.Contains(pb.String(), want) {
		t.Errorf("prometheus output missing %q:\n%s", want, pb.String())
	}
}
