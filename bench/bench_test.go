package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesDictionary keeps BENCHMARK.json and the metric
// dictionary in step: the contract lists exactly the metrics that apply
// to all four workloads and can never be 0, with the dictionary's unit,
// direction and bound.
func TestContractMatchesDictionary(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, w.Name, workloadNames[i])
		}
	}
	listed := map[string]bool{}
	check := func(ms []contractMetric, endToEnd bool) {
		for _, cm := range ms {
			if listed[cm.Name] {
				t.Errorf("%s is listed twice", cm.Name)
			}
			listed[cm.Name] = true
			m := lookupMetric(cm.Name)
			switch {
			case !nameRE.MatchString(cm.Name):
				t.Errorf("%q is not a valid metric name", cm.Name)
			case m == nil:
				t.Errorf("%s is not in the dictionary", cm.Name)
			case m.endToEnd() != endToEnd || m.applies != wAll || m.absBound != 0:
				t.Errorf("%s is listed in the wrong section, or does not apply to every workload", cm.Name)
			case m.unit != cm.Unit || m.better() != cm.Better:
				t.Errorf("%s: %s/%s in BENCHMARK.json, %s/%s in the dictionary", cm.Name, cm.Unit, cm.Better, m.unit, m.better())
			case endToEnd && (cm.Bound == nil || *cm.Bound != m.bound):
				t.Errorf("%s: bound differs from the dictionary's %v", cm.Name, m.bound)
			case !endToEnd && cm.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", cm.Name)
			}
		}
	}
	check(c.EndToEnd, true)
	check(c.PerLayer, false)
	for i := range dictionary {
		if m := &dictionary[i]; m.applies == wAll && m.absBound == 0 && !listed[m.name] {
			t.Errorf("%s applies to every workload but BENCHMARK.json does not list it", m.name)
		}
	}
}

// TestSmoke runs every workload at about 1% of its size, traced, and
// checks what the command prints: every metric of the dictionary
// exactly once per workload, finite where it applies, n/a only where it
// does not, and the driver's result object holding exactly the metrics
// BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	out := t.TempDir()
	for _, name := range workloadNames {
		res, err := runWorkload(newWorkload(name), runOptions{seed: 1, seconds: 0.2, trace: true, size: 0.01, outDir: out})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		printResult(&buf, res)
		seen := map[string]int{}
		for _, line := range strings.Split(buf.String(), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "==") {
				continue
			}
			m := lookupMetric(f[0])
			if m == nil {
				t.Errorf("%s prints %q, which is not in the dictionary", name, f[0])
				continue
			}
			seen[m.name]++
			applies := m.applies&workloadBit(name) != 0
			switch v, err := strconv.ParseFloat(f[1], 64); {
			case f[1] == "n/a" && applies:
				t.Errorf("%s: %s is n/a but applies", name, m.name)
			case f[1] == "n/a":
			case err != nil || math.IsNaN(v) || math.IsInf(v, 0):
				t.Errorf("%s: %s = %q is not a finite number", name, m.name, f[1])
			case !applies:
				t.Errorf("%s: %s has a value but does not apply", name, m.name)
			}
			if f[2] != m.unit {
				t.Errorf("%s: %s printed with unit %q, want %q", name, m.name, f[2], m.unit)
			}
		}
		for i := range dictionary {
			if n := seen[dictionary[i].name]; n != 1 {
				t.Errorf("%s prints %s %d times, want once", name, dictionary[i].name, n)
			}
		}
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			b, err := json.Marshal(contractResult(res, trace))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool
				Attempted uint64
				Failed    uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatalf("%s: result object: %v\n%s", name, err, b)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct %v attempted %d failed %d, %d metrics want %d",
					name, trace, got.Correct, got.Attempted, got.Failed, len(got.Metrics), len(want))
			}
			for _, cm := range want {
				if m, ok := got.Metrics[cm.Name]; !ok || m.Value == nil || m.Unit != cm.Unit {
					t.Errorf("%s trace=%v: result object lacks %s in %s", name, trace, cm.Name, cm.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v,
// n=4), the driver's measure of spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v; Python gives 1, 4", q1, q3)
	}
}

// TestCompareVerdicts drives -compare with one metric of each verdict.
func TestCompareVerdicts(t *testing.T) {
	mk := func(pkts, heap, setup []float64) string {
		r := run{Workloads: []*result{{Workload: "fastpath_burst", EndToEnd: map[string]stat{
			"host_pkts_per_s": summarise(pkts), "heap_live_mb": summarise(heap), "setup_s": summarise(setup),
		}}}}
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := appendJSONLine(path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := mk([]float64{100, 101, 102}, []float64{50, 50, 50}, []float64{1, 2, 3})
	b := mk([]float64{60, 61, 62}, []float64{52, 52, 52}, []float64{1, 2, 3})
	var buf bytes.Buffer
	if err := compareFiles(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	for metric, verdict := range map[string]string{"host_pkts_per_s": "regressed", "heap_live_mb": "unchanged", "setup_s": "unresolved"} {
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in\n%s", metric, verdict, buf.String())
		}
	}
}
