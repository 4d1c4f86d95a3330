package obs_test

// A strict Prometheus text-exposition checker for WritePrometheus
// output: HELP/TYPE ordering, one contiguous family per metric name,
// label-value escaping, and summary quantile/_sum/_count structure.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"nezha/internal/obs"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

type promFamily struct {
	name      string
	typ       string
	help      string
	hasHelp   bool
	samples   []promSample
	quantiles map[string]bool // summaries: quantile label values seen
	sum       bool
	count     bool
}

type promSample struct {
	name   string
	labels map[string]string
	value  string
}

// parseStrict parses exposition text and fails the test on any
// format violation.
func parseStrict(t *testing.T, out string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var cur *promFamily
	var pendingHelp *promFamily
	done := map[string]bool{} // families closed by a later family start

	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		where := fmt.Sprintf("line %d: %q", ln+1, line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(rest) != 2 || rest[0] == "" {
				t.Fatalf("%s: malformed HELP", where)
			}
			name := rest[0]
			if fams[name] != nil {
				t.Fatalf("%s: duplicate HELP/family for %s", where, name)
			}
			f := &promFamily{name: name, help: rest[1], hasHelp: true}
			fams[name] = f
			pendingHelp = f
			if cur != nil {
				done[cur.name] = true
			}
			cur = nil
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("%s: malformed TYPE", where)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "summary":
			default:
				t.Fatalf("%s: unknown type %q", where, typ)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{name: name}
				fams[name] = f
			} else if !f.hasHelp || f.typ != "" {
				t.Fatalf("%s: TYPE for %s repeats or does not directly follow its HELP", where, name)
			}
			if pendingHelp != nil && pendingHelp != f {
				t.Fatalf("%s: HELP for %s not followed by its TYPE", where, pendingHelp.name)
			}
			if cur != nil && cur != f {
				done[cur.name] = true
			}
			if done[name] {
				t.Fatalf("%s: family %s split into non-contiguous blocks", where, name)
			}
			f.typ = typ
			f.quantiles = map[string]bool{}
			cur = f
			pendingHelp = nil
		case strings.HasPrefix(line, "#"):
			t.Fatalf("%s: unexpected comment", where)
		default:
			if pendingHelp != nil {
				t.Fatalf("%s: sample after HELP %s without TYPE", where, pendingHelp.name)
			}
			s := parseSample(t, where, line)
			base := strings.TrimSuffix(strings.TrimSuffix(s.name, "_sum"), "_count")
			fam := fams[s.name]
			if fam == nil && base != s.name && fams[base] != nil && fams[base].typ == "summary" {
				fam = fams[base]
			}
			if fam == nil || fam.typ == "" {
				t.Fatalf("%s: sample without preceding TYPE", where)
			}
			if cur != fam {
				t.Fatalf("%s: sample for %s inside family %s", where, s.name, cur.name)
			}
			if q, ok := s.labels["quantile"]; ok {
				if fam.typ != "summary" {
					t.Fatalf("%s: quantile label on %s family", where, fam.typ)
				}
				fam.quantiles[q] = true
			}
			if strings.HasSuffix(s.name, "_sum") && fam.name == base {
				fam.sum = true
			}
			if strings.HasSuffix(s.name, "_count") && fam.name == base {
				fam.count = true
			}
			fam.samples = append(fam.samples, s)
		}
	}
	for name, f := range fams {
		if f.typ == "" {
			t.Fatalf("family %s has HELP but no TYPE", name)
		}
		if len(f.samples) == 0 {
			t.Fatalf("family %s has no samples", name)
		}
		if f.typ == "summary" {
			for _, q := range []string{"0.5", "0.99", "0.999"} {
				if !f.quantiles[q] {
					t.Fatalf("summary %s missing quantile %s (got %v)", name, q, f.quantiles)
				}
			}
			if !f.sum || !f.count {
				t.Fatalf("summary %s missing _sum/_count (sum=%v count=%v)", name, f.sum, f.count)
			}
		}
	}
	return fams
}

func parseSample(t *testing.T, where, line string) promSample {
	t.Helper()
	sp := strings.LastIndex(line, " ")
	if sp < 0 {
		t.Fatalf("%s: no value", where)
	}
	head, val := line[:sp], line[sp+1:]
	if _, err := strconv.ParseFloat(val, 64); err != nil {
		t.Fatalf("%s: bad value %q", where, val)
	}
	s := promSample{value: val, labels: map[string]string{}}
	brace := strings.Index(head, "{")
	if brace < 0 {
		s.name = head
		return s
	}
	if !strings.HasSuffix(head, "}") {
		t.Fatalf("%s: unterminated label set", where)
	}
	s.name = head[:brace]
	body := head[brace+1 : len(head)-1]
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			t.Fatalf("%s: malformed label in %q", where, body)
		}
		k := body[:eq]
		rest := body[eq+1:]
		// Find the closing quote, honoring backslash escapes — this is
		// where broken escaping would surface as a parse failure.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			t.Fatalf("%s: unterminated label value in %q", where, body)
		}
		v, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			t.Fatalf("%s: bad label escaping %q: %v", where, rest[:end+1], err)
		}
		s.labels[k] = v
		body = rest[end+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return s
}

// TestPrometheusStrictExposition runs the full checker over a registry
// holding every series shape: help'd and help-less counters and
// gauges, a labeled summary, label values needing escaping, and help
// text needing escaping.
func TestPrometheusStrictExposition(t *testing.T) {
	r := obs.NewRegistry()
	r.Help("reqs_total", "Requests\nwith a newline and a back\\slash.")
	r.GetCounter("reqs_total", obs.L("node", `a"b\c`)).Add(7)
	r.GetCounter("reqs_total", obs.L("node", "plain")).Add(3)
	temp := 2.5
	r.GaugeVar("temp", nil, &temp) // no help registered
	r.Help("wait_ns", "Queue wait.")
	var h slo.Hist
	r.HistVar("wait_ns", obs.L("node", "a"), &h)
	for v := uint64(1); v <= 4096; v *= 2 {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.Snapshot(sim.Second).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams := parseStrict(t, b.String())

	reqs := fams["reqs_total"]
	if reqs == nil || !reqs.hasHelp || reqs.typ != "counter" {
		t.Fatalf("reqs_total family wrong: %+v", reqs)
	}
	if reqs.help != `Requests\nwith a newline and a back\\slash.` {
		t.Errorf("help not escaped: %q", reqs.help)
	}
	// The escaped label value must round-trip to the original.
	found := false
	for _, s := range reqs.samples {
		if s.labels["node"] == `a"b\c` {
			found = true
		}
	}
	if !found {
		t.Errorf("label value with quote+backslash did not round-trip: %+v", reqs.samples)
	}
	if temp := fams["temp"]; temp == nil || temp.hasHelp || temp.typ != "gauge" {
		t.Fatalf("help-less gauge family wrong: %+v", temp)
	}
	wait := fams["wait_ns"]
	if wait == nil || wait.typ != "summary" || !wait.hasHelp {
		t.Fatalf("summary family wrong: %+v", wait)
	}
	// Quantile samples carry the base labels too.
	for _, s := range wait.samples {
		if _, ok := s.labels["quantile"]; ok && s.labels["node"] != "a" {
			t.Errorf("quantile sample lost base label: %+v", s)
		}
	}
}

// TestPrometheusDroppedSeriesCounter checks the cardinality guard:
// registrations past the cap are refused, counted, warned once, and
// surfaced as obs_series_dropped_total in both export formats —
// while pre-bound handles keep working (detached, not nil).
func TestPrometheusDroppedSeriesCounter(t *testing.T) {
	r := obs.NewRegistry()
	var warns []string
	r.SetWarnFn(func(msg string) { warns = append(warns, msg) })
	r.SetMaxSeries(2)

	a := r.GetCounter("kept_a_total", nil)
	b := r.GetCounter("kept_b_total", nil)
	c := r.GetCounter("dropped_total", nil) // past the cap
	if c == nil {
		t.Fatal("capped registration returned nil handle")
	}
	a.Inc()
	b.Inc()
	c.Inc() // must not panic; just unobserved
	r.CounterFunc("dropped_func_total", nil, func() uint64 { return 9 })

	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if len(warns) != 1 {
		t.Fatalf("warned %d times, want once: %v", len(warns), warns)
	}

	snap := r.Snapshot(sim.Second)
	var names []string
	var droppedVal float64
	for _, p := range snap.Points {
		names = append(names, p.Name)
		if p.Name == "obs_series_dropped_total" {
			droppedVal = p.Value
		}
	}
	for _, n := range names {
		if n == "dropped_total" || n == "dropped_func_total" {
			t.Errorf("capped series %s leaked into the snapshot", n)
		}
	}
	if droppedVal != 2 {
		t.Errorf("obs_series_dropped_total = %v, want 2 (points: %v)", droppedVal, names)
	}

	var buf strings.Builder
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parseStrict(t, buf.String())
	if fams["obs_series_dropped_total"] == nil {
		t.Error("obs_series_dropped_total missing from exposition")
	}

	// Uncapped registries emit no synthetic point at all.
	clean := obs.NewRegistry()
	clean.GetCounter("x_total", nil).Inc()
	for _, p := range clean.Snapshot(sim.Second).Points {
		if p.Name == "obs_series_dropped_total" {
			t.Error("dropped counter emitted on a registry with no drops")
		}
	}
}
