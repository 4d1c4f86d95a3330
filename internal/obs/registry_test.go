package obs

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nezha/internal/sim"
	"nezha/internal/slo"
)

func TestLabelsCanonical(t *testing.T) {
	a := L("role", "BE", "node", "10.0.0.1")
	b := L("node", "10.0.0.1", "role", "BE")
	if a.key() != b.key() {
		t.Fatalf("label order not canonical: %q vs %q", a.key(), b.key())
	}
	if got := a.key(); got != "node=10.0.0.1,role=BE" {
		t.Fatalf("key = %q", got)
	}
}

// TestCounterGaugeHistogram reads one series of each kind through a
// snapshot. A histogram's quantiles are slo.Hist's bucket upper edges,
// clamped to the largest value observed, and the max itself once the
// nearest rank is the last observation.
func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.GetCounter("pkts_total", L("node", "a"))
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	util := 0.75
	r.GaugeVar("util", nil, &util)
	var h slo.Hist
	r.HistVar("wait_ns", nil, &h)
	for v := uint64(1); v <= 1024; v *= 2 {
		h.Observe(v)
	}
	s := r.Snapshot(sim.Second)
	if p := findPoint(s, "pkts_total"); p == nil || p.Kind != "counter" || p.Value != 5 {
		t.Fatalf("counter point %+v", p)
	}
	if p := findPoint(s, "util"); p == nil || p.Kind != "gauge" || p.Value != 0.75 {
		t.Fatalf("gauge point %+v", p)
	}
	p := findPoint(s, "wait_ns")
	if p == nil || p.Kind != "histogram" || p.Count != 11 || p.Sum != 2047 || p.Value != 11 {
		t.Fatalf("histogram point %+v", p)
	}
	// The 5th of 11 observations is 16, in bucket [16,17]; p99's
	// nearest rank, ceil(0.99·11), is the 11th, the max.
	if p.P50 != 17 || p.P99 != 1024 || p.P999 != 1024 {
		t.Fatalf("p50/p99/p999 = %d/%d/%d, want 17/1024/1024", p.P50, p.P99, p.P999)
	}
}

// TestQuantileSmallCountNoOvershoot: one observation of 1000 lands in
// bucket [960,1023], and every quantile a snapshot reports of it must
// be exactly 1000, not the bucket edge.
func TestQuantileSmallCountNoOvershoot(t *testing.T) {
	r := NewRegistry()
	var h, pair, empty slo.Hist
	r.HistVar("wait_ns", nil, &h)
	r.HistVar("pair_ns", nil, &pair)
	r.HistVar("empty_ns", nil, &empty)
	h.Observe(1000)
	p := findPoint(r.Snapshot(sim.Second), "wait_ns")
	if p.P50 != 1000 || p.P99 != 1000 || p.P999 != 1000 {
		t.Fatalf("p50/p99/p999 = %d/%d/%d, want 1000 (single observation)", p.P50, p.P99, p.P999)
	}
	// A second, smaller observation sits in an exact unit bucket; the
	// tail quantiles' nearest rank is the last observation, the max.
	h.Observe(4)
	s := r.Snapshot(2 * sim.Second)
	if p := findPoint(s, "wait_ns"); p.P50 != 4 || p.P99 != 1000 || p.P999 != 1000 {
		t.Fatalf("p50/p99/p999 = %d/%d/%d, want 4/1000/1000", p.P50, p.P99, p.P999)
	}
	// p50 of two 1000s is the first: not the last rank, so it reads
	// the bucket, whose edge 1023 the max clamps.
	pair.Observe(1000)
	pair.Observe(1000)
	if p := findPoint(r.Snapshot(3*sim.Second), "pair_ns"); p.P50 != 1000 || p.P99 != 1000 {
		t.Fatalf("pair p50/p99 = %d/%d, want 1000/1000", p.P50, p.P99)
	}
	if p := findPoint(s, "empty_ns"); p.P50 != 0 || p.P99 != 0 || p.P999 != 0 || p.Count != 0 {
		t.Fatalf("empty histogram point %+v, want zeros", p)
	}
}

func TestSnapshotRatesAndFuncs(t *testing.T) {
	r := NewRegistry()
	c := r.GetCounter("sent_total", L("node", "a"))
	var plain uint64 = 7
	r.CounterFunc("plain_total", nil, func() uint64 { return plain })
	r.GaugeFunc("depth", nil, func() float64 { return 3 })
	r.Collect(func(emit Emit) {
		emit("dyn", L("vnic", "1"), KindGauge, 42)
	})

	c.Add(100)
	s1 := r.Snapshot(sim.Time(1 * sim.Second))
	if p := findPoint(s1, "sent_total"); p == nil || p.Value != 100 || p.Rate != 0 {
		t.Fatalf("first snapshot: %+v", p)
	}
	if p := findPoint(s1, "plain_total"); p == nil || p.Value != 7 {
		t.Fatalf("plain_total: %+v", p)
	}
	if p := findPoint(s1, "dyn"); p == nil || p.Value != 42 {
		t.Fatalf("dyn: %+v", p)
	}

	c.Add(50)
	plain = 17
	s2 := r.Snapshot(sim.Time(2 * sim.Second))
	if p := findPoint(s2, "sent_total"); p == nil || p.Rate != 50 {
		t.Fatalf("windowed rate: %+v", p)
	}
	if p := findPoint(s2, "plain_total"); p == nil || p.Rate != 10 {
		t.Fatalf("func counter rate: %+v", p)
	}
}

// TestSnapshotSharesLabelMaps checks that consecutive snapshots hand
// every series (atomic, func and collector-emitted alike) the
// identical label map, and that the help map is shared until a Help
// call, which leaves earlier snapshots' help untouched.
func TestSnapshotSharesLabelMaps(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("sent_total", L("node", "a")).Add(3)
	var h slo.Hist
	h.Observe(9)
	r.HistVar("wait_ns", L("node", "a"), &h)
	r.GaugeFunc("depth", L("node", "b"), func() float64 { return 1 })
	r.Collect(func(emit Emit) { emit("dyn_total", L("vnic", "1"), KindCounter, 2) })
	r.Help("sent_total", "Sent.")
	s1 := r.Snapshot(sim.Second)
	s2 := r.Snapshot(2 * sim.Second)
	if len(s1.Points) != 4 || len(s2.Points) != 4 {
		t.Fatalf("points: %d then %d, want 4", len(s1.Points), len(s2.Points))
	}
	for i := range s1.Points {
		a, b := s1.Points[i].Labels, s2.Points[i].Labels
		if a == nil || reflect.ValueOf(a).UnsafePointer() != reflect.ValueOf(b).UnsafePointer() {
			t.Errorf("%s: label maps %p and %p, want one shared map", s1.Points[i].Name, a, b)
		}
	}
	if reflect.ValueOf(s1.help).UnsafePointer() != reflect.ValueOf(s2.help).UnsafePointer() {
		t.Error("help map copied between snapshots with no Help call")
	}
	r.Help("sent_total", "Changed.")
	if s1.help["sent_total"] != "Sent." || r.Snapshot(3 * sim.Second).help["sent_total"] != "Changed." {
		t.Error("Help did not copy the help map it shared with earlier snapshots")
	}
}

// TestLabelMapsInternedAndBounded runs the churning collector of
// opsapi's TestSharedLabelsReadOnly for 10 000 snapshots. Every point
// of one label set, of any series, shares one map, and the intern
// table holds exactly the label sets of the latest snapshot: it never
// outgrows what the registry currently emits.
func TestLabelMapsInternedAndBounded(t *testing.T) {
	r := NewRegistry()
	ticks := r.GetCounter("ticks_total", L("node", "a"))
	var h slo.Hist
	h.Observe(1)
	r.HistVar("wait_ns", L("node", "a"), &h)
	r.CounterFunc("ticks_func_total", L("node", "b"), ticks.Load)
	r.Collect(func(emit Emit) {
		n := ticks.Load()
		for v := n % 7; v < 12; v += 2 {
			l := L("vnic", strconv.FormatUint(v, 10))
			emit("dyn_total", l, KindCounter, float64(n))
			emit("dyn_gauge", l, KindGauge, float64(n))
		}
		emit("node_b_dyn", L("node", "b"), KindGauge, 1)
	})
	maps := map[string]map[string]string{}
	for i := 1; i <= 10000; i++ {
		ticks.Inc()
		s := r.Snapshot(sim.Time(i) * sim.Millisecond)
		sets := map[string]bool{}
		for j := range s.Points {
			p := &s.Points[j]
			k := p.labelSet().key()
			sets[k] = true
			if m, ok := maps[k]; ok && reflect.ValueOf(m).UnsafePointer() != reflect.ValueOf(p.Labels).UnsafePointer() {
				t.Fatalf("snapshot %d: %s{%s} has its own label map", i, p.Name, k)
			}
			maps[k] = p.Labels
		}
		for k := range maps {
			if !sets[k] {
				delete(maps, k) // a label set that vanished may come back with a new map
			}
		}
		delete(sets, "")
		if len(r.labels) != len(sets) {
			t.Fatalf("snapshot %d: intern table holds %d label sets, the snapshot %d", i, len(r.labels), len(sets))
		}
	}
}

func findPoint(s *Snapshot, name string) *Point {
	for i := range s.Points {
		if s.Points[i].Name == name {
			return &s.Points[i]
		}
	}
	return nil
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("pkts_total", L("node", "a")).Add(3)
	var h slo.Hist
	h.Observe(100)
	r.HistVar("wait_ns", nil, &h)
	var b strings.Builder
	if err := r.Snapshot(sim.Time(sim.Second)).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pkts_total counter",
		`pkts_total{node="a"} 3`,
		"# TYPE wait_ns summary",
		"wait_ns_count 1",
		`wait_ns{quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestParallelWritersSharedSeries hammers one counter from many
// goroutines; run under -race this proves the counter's write side is
// synchronization-clean, and the snapshot's total must be exact.
func TestParallelWritersSharedSeries(t *testing.T) {
	r := NewRegistry()
	c := r.GetCounter("shared_total", L("node", "x", "role", "BE"))
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if p := findPoint(r.Snapshot(sim.Second), "shared_total"); p == nil || p.Value != workers*perWorker {
		t.Fatalf("shared counter point %+v, want %d", p, workers*perWorker)
	}
}

// TestSnapshotDuringWrites takes snapshots concurrently with a
// counter's writers: its value must be monotone across snapshots.
func TestSnapshotDuringWrites(t *testing.T) {
	r := NewRegistry()
	c := r.GetCounter("mono_total", nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
				}
			}
		}()
	}
	var last float64 = -1
	for i := 0; i < 200; i++ {
		s := r.Snapshot(sim.Time(i) * sim.Time(sim.Millisecond))
		p := findPoint(s, "mono_total")
		if p == nil {
			t.Fatal("mono_total missing")
		}
		if p.Value < last {
			t.Fatalf("counter went backwards: %v -> %v", last, p.Value)
		}
		last = p.Value
	}
	close(stop)
	wg.Wait()
}
