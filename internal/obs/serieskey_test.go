package obs

import (
	"testing"

	"nezha/internal/sim"
)

// key is the label-set part of a series key, k=v joined by commas, as
// the registry first built it: the oracle oldSeriesKey is built from,
// and the reference snapshot's label sort key.
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	var b []byte
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, l.K...), '='), l.V...)
	}
	return string(b)
}

// oldSeriesKey is seriesKey as first written, by concatenation: the
// oracle for the one-allocation build.
func oldSeriesKey(name string, labels Labels) string {
	lk := labels.key()
	if lk == "" {
		return name
	}
	return name + "{" + lk + "}"
}

// TestSeriesKeyOneAlloc pins that seriesKey builds a labelled key in
// exactly one allocation, an unlabelled one in none, and that every key
// is byte-identical to the concatenated one: series keys are the
// registry's map keys and the snapshot's sort keys.
func TestSeriesKeyOneAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels Labels
		allocs float64
	}{
		{"vswitch_sent_total", nil, 0},
		{"vswitch_sent_total", Labels{}, 0},
		{"vswitch_sent_total", L("node", "10.0.0.1"), 1},
		{"vswitch_drops_total", L("reason", "overload", "node", "10.0.0.1"), 1},
		{"slo_burn", L("vnic", "100", "node", "10.0.3.7", "zone", "", "k", "v,w=x"), 1},
		{"", L("a", "1"), 1},
	} {
		want := oldSeriesKey(tc.name, tc.labels)
		if got := seriesKey(tc.name, tc.labels); got != want {
			t.Errorf("seriesKey(%q, %v) = %q, want %q", tc.name, tc.labels, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = seriesKey(tc.name, tc.labels) }); n != tc.allocs {
			t.Errorf("seriesKey(%q, %v) allocates %v times, want %v", tc.name, tc.labels, n, tc.allocs)
		}
		d := desc{name: tc.name, labels: tc.labels, key: seriesKey(tc.name, tc.labels)}
		if d.lkey() != tc.labels.key() {
			t.Errorf("lkey of %q = %q, want %q", want, d.lkey(), tc.labels.key())
		}
	}
}

// TestCounterVarReadsField pins CounterVar against CounterFunc: the
// same field published both ways reads the same value and rate.
func TestCounterVarReadsField(t *testing.T) {
	r := NewRegistry()
	var v uint64
	r.CounterVar("by_var_total", L("node", "a"), &v)
	r.CounterFunc("by_func_total", L("node", "a"), func() uint64 { return v })
	for i, at := range []int64{0, 1, 2} {
		v += uint64(10 * (i + 1))
		snap := r.Snapshot(sim.Time(at) * sim.Second)
		a, b := snap.Points[0], snap.Points[1]
		if a.Name != "by_func_total" || b.Name != "by_var_total" {
			t.Fatalf("snapshot order %q, %q", a.Name, b.Name)
		}
		if a.Value != b.Value || a.Rate != b.Rate || a.Value != float64(v) {
			t.Fatalf("snapshot %d: func %v/%v, var %v/%v, field %d", i, a.Value, a.Rate, b.Value, b.Rate, v)
		}
	}
}
