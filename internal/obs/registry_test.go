package obs

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nezha/internal/sim"
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

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.GetCounter("pkts_total", L("node", "a"))
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	// Same name+labels returns the same series.
	if r.GetCounter("pkts_total", L("node", "a")) != c {
		t.Fatal("GetCounter did not dedup")
	}
	g := r.GetGauge("util", nil)
	g.Set(0.75)
	if g.Load() != 0.75 {
		t.Fatalf("gauge = %v", g.Load())
	}
	h := r.GetHistogram("wait_ns", nil)
	for v := uint64(1); v <= 1024; v *= 2 {
		h.Observe(v)
	}
	if h.Count() != 11 || h.Sum() != 2047 {
		t.Fatalf("hist count=%d sum=%d", h.Count(), h.Sum())
	}
	// p100 clamps to the observed max exactly (the old upper-bound
	// estimate returned 2047 here).
	if q := h.Quantile(1.0); q != 1024 {
		t.Fatalf("p100 = %d, want 1024", q)
	}
	// The 6th of 11 observations is 32, in bucket [32,63]: the
	// midpoint estimate is 47 (the old code returned the upper edge).
	if q := h.Quantile(0.5); q != 47 {
		t.Fatalf("p50 = %d, want 47", q)
	}
	if h.Max() != 1024 {
		t.Fatalf("max = %d, want 1024", h.Max())
	}
}

// TestQuantileSmallCountNoOvershoot is the regression for the old
// bucket-upper-bound quantile: one observation of 1000 lands in
// bucket [512,1023], and every quantile of that histogram must be
// exactly 1000, not the bucket edge.
func TestQuantileSmallCountNoOvershoot(t *testing.T) {
	var h Histogram
	h.Observe(1000)
	for _, q := range []float64{0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%v) = %d, want 1000 (single observation)", q, got)
		}
	}
	// With two observations the lower bucket's midpoint is used but
	// still can't exceed the max.
	h.Observe(4)
	if got := h.Quantile(0.5); got != 5 { // bucket [4,7] midpoint
		t.Fatalf("Quantile(0.5) = %d, want 5", got)
	}
	if got := h.Quantile(0.99); got != 1000 {
		t.Fatalf("Quantile(0.99) = %d, want 1000", got)
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.GetGauge("x", nil)
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
	r.GetHistogram("wait_ns", L("node", "a")).Observe(9)
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
	r.GetHistogram("wait_ns", L("node", "a")).Observe(1)
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
	r.GetHistogram("wait_ns", nil).Observe(100)
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

// TestParallelWritersSharedSeries hammers one labeled series from
// many goroutines; run under -race this proves the hot-path write
// side is synchronization-clean, and the total must be exact.
func TestParallelWritersSharedSeries(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker re-resolves the same series, simulating
			// independent components binding the same labels.
			c := r.GetCounter("shared_total", L("node", "x", "role", "BE"))
			g := r.GetGauge("shared_util", L("node", "x"))
			h := r.GetHistogram("shared_wait", L("node", "x"))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.GetCounter("shared_total", L("node", "x", "role", "BE")).Load(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.GetHistogram("shared_wait", L("node", "x")).Count(); got != workers*perWorker {
		t.Fatalf("shared histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestSnapshotDuringWrites takes snapshots concurrently with writers
// and checks every snapshot is internally sane: counter values are
// monotone across snapshots and histogram count never exceeds sum+1
// relationships (values observed are >= 1 here, so sum >= count).
func TestSnapshotDuringWrites(t *testing.T) {
	r := NewRegistry()
	c := r.GetCounter("mono_total", nil)
	h := r.GetHistogram("obs_ns", nil)
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
					h.Observe(2)
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
		hp := findPoint(s, "obs_ns")
		if hp.Sum < hp.Count { // every observation is 2
			t.Fatalf("histogram sum %d < count %d", hp.Sum, hp.Count)
		}
	}
	close(stop)
	wg.Wait()
}
