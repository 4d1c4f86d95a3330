package experiments

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be
	// registered.
	want := []string{
		"fig2", "fig3", "fig4", "table1",
		"fig9", "fig10", "fig11", "fig12",
		"table3", "table4", "fig13", "fig14", "fig15",
		"table5", "tablea1", "figa1", "b1", "b2", "ablation", "overhead", "region",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d entries, want >= %d", len(All()), len(want))
	}
	for _, e := range All() {
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

// Determinism: the cheap experiments must produce the results pinned
// in testdata/quick_golden.json for seed 7 (the whole simulation is
// virtual-clocked and seeded), and the stochastic ones must move with
// the seed. The JSON encodings are compared: they keep every digit
// Render rounds away. The golden is the -json output of each id in
// order; regenerate it with
//
//	for id in fig2 fig3 fig4 table1 fig11 fig12 table4 fig13 fig15 b1 b2; do go run ./cmd/nezha-bench -seed 7 -quick -json -exp $id; done > internal/experiments/testdata/quick_golden.json
func TestDeterministicOutput(t *testing.T) {
	f, err := os.Open("testdata/quick_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := json.NewDecoder(f)
	run := func(e Experiment, seed int64) string {
		b, err := e.Run(RunConfig{Seed: seed, Quick: true}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// seeded lists the ids checked to move with the seed; b1's output
	// has no stochastic component.
	seeded := map[string]bool{"fig3": true, "fig4": true, "table1": true, "fig13": true, "b2": true, "fig11": true}
	for _, id := range []string{"fig2", "fig3", "fig4", "table1", "fig11", "fig12", "table4", "fig13", "fig15", "b1", "b2"} {
		var want json.RawMessage
		if err := golden.Decode(&want); err != nil {
			t.Fatalf("golden has no %s: %v", id, err)
		}
		e, _ := ByID(id)
		a := run(e, 7)
		if a != string(want) {
			t.Errorf("%s: seed-7 output differs from the golden:\n%s", id, a)
		}
		if seeded[id] && run(e, 8) == a {
			t.Errorf("%s ignores the seed", id)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

// cell finds a table cell by row key and column header.
func cell(t *testing.T, r *Result, rowKey, colName string) float64 {
	t.Helper()
	for _, tb := range r.Tables {
		ci := -1
		for i, h := range tb.Header {
			if h == colName {
				ci = i
			}
		}
		if ci < 0 {
			continue
		}
		for _, row := range tb.Rows {
			if row[0] == rowKey {
				v, err := strconv.ParseFloat(strings.TrimSpace(row[ci]), 64)
				if err != nil {
					t.Fatalf("cell %s/%s not numeric: %q", rowKey, colName, row[ci])
				}
				return v
			}
		}
	}
	t.Fatalf("cell %s/%s not found", rowKey, colName)
	return 0
}

func quickRun(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	return e.Run(RunConfig{Seed: 42, Quick: true})
}

func TestFig3Shares(t *testing.T) {
	r := quickRun(t, "fig3")
	cps := cell(t, r, "CPS", "share%")
	if cps < 55 || cps > 67 {
		t.Fatalf("CPS share = %v, want ≈61", cps)
	}
}

func TestFig4Tails(t *testing.T) {
	r := quickRun(t, "fig4")
	if v := cell(t, r, "CPU", "p9999%"); v < 70 || v > 100 {
		t.Fatalf("CPU p9999 = %v, want ≈90", v)
	}
	if v := cell(t, r, "memory", "p9999%"); v < 75 || v > 100 {
		t.Fatalf("mem p9999 = %v, want ≈96", v)
	}
}

func TestTable1Skew(t *testing.T) {
	r := quickRun(t, "table1")
	if v := cell(t, r, "P50", "CPS%"); v > 5 {
		t.Fatalf("P50 usage = %v%% of P9999, want <5%%", v)
	}
}

func TestFig15StateSizes(t *testing.T) {
	r := quickRun(t, "fig15")
	if v := cell(t, r, "avg state size", "bytes"); v < 4 || v > 9 {
		t.Fatalf("avg state size = %v, want 5-8", v)
	}
}

func TestTable5Model(t *testing.T) {
	r := quickRun(t, "table5")
	if v := cell(t, r, "software development (P-M)", "Nezha"); v != 15 {
		t.Fatalf("Nezha software P-M = %v", v)
	}
	if v := cell(t, r, "hardware development (P-M)", "Sailfish"); v != 100 {
		t.Fatalf("Sailfish hardware P-M = %v", v)
	}
}

func TestFig13Resolution(t *testing.T) {
	r := quickRun(t, "fig13")
	if v := cell(t, r, "#vNICs", "after/day"); v != 0 {
		t.Fatalf("#vNIC overloads after Nezha = %v, want 0", v)
	}
	before := cell(t, r, "CPS", "before/day")
	after := cell(t, r, "CPS", "after/day")
	if after > before*0.02 {
		t.Fatalf("CPS overloads: %v before, %v after — want >98%% resolved", before, after)
	}
}

func TestB2ScalingFraction(t *testing.T) {
	r := quickRun(t, "b2")
	if v := cell(t, r, "scaled pool fraction %", "measured"); v > 8 {
		t.Fatalf("scaled fraction = %v%%, want a few percent", v)
	}
}

func TestFigA1Growth(t *testing.T) {
	r := quickRun(t, "figa1")
	small := cell(t, r, "4", "downtime-ms(avg)")
	big := cell(t, r, "104", "downtime-ms(avg)") // first 104 row is 512 GB
	if big < 2*small {
		t.Fatalf("migration downtime growth too weak: %v vs %v", small, big)
	}
}

func TestTable4Completion(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy quick experiment")
	}
	r := quickRun(t, "table4")
	avg := cell(t, r, "avg", "measured-ms")
	if avg < 500 || avg > 2500 {
		t.Fatalf("avg completion = %v ms, want O(1s)", avg)
	}
	p99 := cell(t, r, "P99", "measured-ms")
	if p99 < avg {
		t.Fatal("P99 below average")
	}
}

// TestTable3GainOrdering checks Table 3's CPS ordering: the deeper a
// middlebox's rule walk, the lower its capacity before offloading and
// the more offloading buys, so NAT (advanced tables) gains more than
// LB (ACL walk), which gains more than TR (ACL bypass).
func TestTable3GainOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy quick experiment")
	}
	r := quickRun(t, "table3")
	lb := cell(t, r, "Load-balancer", "CPS-gain")
	nat := cell(t, r, "NAT gateway", "CPS-gain")
	tr := cell(t, r, "Transit router", "CPS-gain")
	if !(nat > lb && lb > tr && tr > 1) {
		t.Fatalf("CPS gains NAT %v, LB %v, TR %v: want NAT > LB > TR > 1", nat, lb, tr)
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy quick experiment")
	}
	r := quickRun(t, "fig12")
	lowNo := cell(t, r, "0.3000", "lat-us(no Nezha)")
	lowYes := cell(t, r, "0.3000", "lat-us(Nezha)")
	if lowNo != lowYes {
		t.Fatalf("below the trigger the two systems must be identical: %v vs %v", lowNo, lowYes)
	}
	overNo := cell(t, r, "1.20", "lat-us(no Nezha)")
	overYes := cell(t, r, "1.20", "lat-us(Nezha)")
	if overNo < 3*overYes {
		t.Fatalf("overload latency: without=%v with=%v — want a blow-up without Nezha", overNo, overYes)
	}
}

func TestFig14Surge(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy quick experiment")
	}
	r := quickRun(t, "fig14")
	surge := cell(t, r, "surge duration (s)", "value")
	if surge <= 0.2 || surge > 4 {
		t.Fatalf("loss surge = %vs, want ≈2s", surge)
	}
	if v := cell(t, r, "final #FEs", "value"); v < 4 {
		t.Fatalf("pool not replenished: %v", v)
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy quick experiment")
	}
	r := quickRun(t, "fig9")
	gain4 := cell(t, r, "4", "CPS-gain")
	if gain4 < 1.8 {
		t.Fatalf("CPS gain at 4 FEs = %v, want >= 1.8", gain4)
	}
	v4 := cell(t, r, "4", "vNIC-gain")
	v1 := cell(t, r, "1", "vNIC-gain")
	if v4 < 3*v1 {
		t.Fatalf("vNIC gain not ~linear: 1 FE %v, 4 FEs %v", v1, v4)
	}
	f4 := cell(t, r, "4", "flow-gain")
	if f4 < 1.2 {
		t.Fatalf("flow gain at 4 FEs = %v, want > 1.2", f4)
	}
}

func TestRegionResolvesHotspots(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy quick experiment")
	}
	r := quickRun(t, "region")
	before := cell(t, r, "overloaded tenant vSwitches", "without Nezha")
	after := cell(t, r, "overloaded tenant vSwitches", "with Nezha")
	if before < 1 {
		t.Fatalf("no hotspot emerged (before=%v)", before)
	}
	if after != 0 {
		t.Fatalf("hotspots not resolved: %v remain", after)
	}
	cb := cell(t, r, "completed transactions", "without Nezha")
	ca := cell(t, r, "completed transactions", "with Nezha")
	if ca <= cb {
		t.Fatal("no throughput gain")
	}
}

func TestTableA1Declines(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock micro-benchmark")
	}
	r := quickRun(t, "tablea1")
	z64 := cell(t, r, "64", "0-rules(Mpps)")
	k64 := cell(t, r, "64", "1000-rules(Mpps)")
	if k64 >= z64 {
		t.Fatalf("throughput should fall with rules: 0-rules %v, 1000-rules %v", z64, k64)
	}
	if z64 < 0.5 {
		t.Fatalf("implausibly slow lookup: %v Mpps", z64)
	}
}

func TestResultJSON(t *testing.T) {
	r := quickRun(t, "table5")
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"id": "table5"`, `"header"`, `"rows"`, "Sailfish"} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("cps", 123456.0)
	tb.AddRow("gain", 3.3)
	out := tb.String()
	if !strings.Contains(out, "cps") || !strings.Contains(out, "123456") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	if !strings.Contains(out, "3.30") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
}
