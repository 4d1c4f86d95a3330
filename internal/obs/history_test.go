package obs_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"nezha/internal/obs"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

func snapAt(t sim.Time) *obs.Snapshot {
	return &obs.Snapshot{T: t, Points: []obs.Point{
		{Name: "a_total", Kind: "counter", Value: float64(t / sim.Second)},
		{Name: "b_gauge", Kind: "gauge", Value: 1},
	}}
}

// TestHistoryRingEviction fills the ring past capacity and checks the
// oldest snapshots fall out while counters track lifetime totals.
func TestHistoryRingEviction(t *testing.T) {
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 4})
	for i := 1; i <= 7; i++ {
		h.Publish(snapAt(sim.Time(i) * sim.Second))
	}
	if got := h.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := h.Published(); got != 7 {
		t.Errorf("Published = %d, want 7", got)
	}
	if got := h.Evicted(); got != 3 {
		t.Errorf("Evicted = %d, want 3", got)
	}
	if got := h.Latest().T; got != 7*sim.Second {
		t.Errorf("Latest.T = %v, want 7s", got)
	}
	// Retention is the most recent 4, in chronological order.
	all := h.Query(0, 0, nil)
	if len(all) != 4 {
		t.Fatalf("Query(all) = %d snapshots, want 4", len(all))
	}
	for i, s := range all {
		if want := sim.Time(i+4) * sim.Second; s.T != want {
			t.Errorf("Query(all)[%d].T = %v, want %v", i, s.T, want)
		}
	}
}

// TestHistoryQueryEdges pins the from/to semantics: inclusive bounds,
// to<=0 meaning unbounded, empty windows, and the series filter.
func TestHistoryQueryEdges(t *testing.T) {
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 16})
	for i := 1; i <= 5; i++ {
		h.Publish(snapAt(sim.Time(i) * sim.Second))
	}

	// Inclusive on both ends.
	got := h.Query(2*sim.Second, 4*sim.Second, nil)
	if len(got) != 3 || got[0].T != 2*sim.Second || got[2].T != 4*sim.Second {
		t.Errorf("Query(2s,4s) = %d snaps [%v..], want T=2s..4s inclusive", len(got), tOf(got))
	}
	// Exact single instant.
	if got := h.Query(3*sim.Second, 3*sim.Second, nil); len(got) != 1 || got[0].T != 3*sim.Second {
		t.Errorf("Query(3s,3s) = %v, want exactly t=3s", tOf(got))
	}
	// to=0 is unbounded above.
	if got := h.Query(4*sim.Second, 0, nil); len(got) != 2 {
		t.Errorf("Query(4s,0) = %v, want t=4s,5s", tOf(got))
	}
	// Window before retention start and after retention end are empty.
	if got := h.Query(6*sim.Second, 9*sim.Second, nil); len(got) != 0 {
		t.Errorf("Query(6s,9s) = %v, want empty", tOf(got))
	}
	// from > to is empty (not an error).
	if got := h.Query(4*sim.Second, 2*sim.Second, nil); len(got) != 0 {
		t.Errorf("Query(4s,2s) = %v, want empty", tOf(got))
	}

	// The series filter drops non-matching points without mutating the
	// retained snapshots.
	got = h.Query(0, 0, []string{"a_total"})
	if len(got) != 5 {
		t.Fatalf("filtered Query = %d snaps, want 5", len(got))
	}
	for _, s := range got {
		if len(s.Points) != 1 || s.Points[0].Name != "a_total" {
			t.Fatalf("filtered snapshot holds %v, want only a_total", s.Points)
		}
	}
	if full := h.Query(0, 0, nil); len(full[0].Points) != 2 {
		t.Errorf("series filter mutated the retained snapshot: %v", full[0].Points)
	}
}

func tOf(ss []*obs.Snapshot) []sim.Time {
	out := make([]sim.Time, len(ss))
	for i, s := range ss {
		out[i] = s.T
	}
	return out
}

// TestHistoryTail checks Tail clamps k and preserves order.
func TestHistoryTail(t *testing.T) {
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 8})
	for i := 1; i <= 3; i++ {
		h.Publish(snapAt(sim.Time(i) * sim.Second))
	}
	if got := h.Tail(2); len(got) != 2 || got[0].T != 2*sim.Second || got[1].T != 3*sim.Second {
		t.Errorf("Tail(2) = %v, want t=2s,3s", tOf(got))
	}
	if got := h.Tail(99); len(got) != 3 {
		t.Errorf("Tail(99) = %d snaps, want all 3", len(got))
	}
	if got := h.Tail(0); len(got) != 3 {
		t.Errorf("Tail(0) = %d snaps, want all 3", len(got))
	}
}

// TestHistorySubscribe checks live fan-out, the slow-subscriber drop
// path (a full channel must never block Publish), and idempotent
// cancel.
func TestHistorySubscribe(t *testing.T) {
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 8})
	ch, cancel := h.Subscribe(2)
	defer cancel()

	for i := 1; i <= 5; i++ {
		h.Publish(snapAt(sim.Time(i) * sim.Second)) // never blocks
	}
	// Buffer of 2: first two delivered, three dropped.
	if got := h.SubDropped(); got != 3 {
		t.Errorf("SubDropped = %d, want 3", got)
	}
	first := <-ch
	if first.T != sim.Second {
		t.Errorf("first delivered T = %v, want 1s", first.T)
	}

	cancel()
	cancel() // second cancel must not panic
	if _, ok := <-ch; ok {
		// one buffered snapshot may remain; drain until closed
		for range ch {
		}
	}
	// Publishing after cancel must not panic or deliver.
	h.Publish(snapAt(9 * sim.Second))
}

// TestHistorySideStores covers the bounded policy/invariant/span/prof
// stores the ops endpoints serve.
func TestHistorySideStores(t *testing.T) {
	h := obs.NewHistory(obs.HistoryOptions{PolicyLines: 2, Invariants: 2, Spans: 2})

	h.SetPolicyLog([]string{"l1", "l2", "l3"})
	if got := h.PolicyLog(); len(got) != 2 || got[0] != "l2" {
		t.Errorf("PolicyLog = %v, want tail [l2 l3]", got)
	}

	for i := 0; i < 3; i++ {
		h.AddInvariant(obs.InvariantEvent{At: sim.Time(i), Invariant: "conservation", Err: "x"})
	}
	if got := h.Invariants(); len(got) != 2 || got[0].At != 1 {
		t.Errorf("Invariants = %v, want FIFO-bounded to the last 2", got)
	}

	h.SetSpans([]obs.Span{{Kind: "a"}, {Kind: "b"}, {Kind: "c"}})
	if got := h.Spans(); len(got) != 2 || got[0].Kind != "b" {
		t.Errorf("Spans = %v, want tail [b c]", got)
	}

	if b, _ := h.Prof(); b != nil {
		t.Errorf("Prof before SetProf = %v, want nil", b)
	}
	h.SetProf(3*sim.Second, []byte{1, 2})
	h.SetProf(4*sim.Second, nil) // empty capture must not clobber
	if b, at := h.Prof(); len(b) != 2 || at != 3*sim.Second {
		t.Errorf("Prof = (%v, %v), want ([1 2], 3s)", b, at)
	}

	if h.ChaosReport() != nil {
		t.Error("ChaosReport before set should be nil")
	}
	h.SetChaosReport(map[string]int{"seed": 7})
	if h.ChaosReport() == nil {
		t.Error("ChaosReport lost the stored report")
	}

	// nil-receiver safety for the writer-side hooks.
	var nilH *obs.History
	nilH.Publish(snapAt(sim.Second))
	nilH.AddInvariant(obs.InvariantEvent{})
	nilH.SetChaosReport(1)
}

// TestPublisherCadence attaches a publisher to a live loop and checks
// one snapshot per virtual second lands in the history.
func TestPublisherCadence(t *testing.T) {
	loop := sim.NewLoop(1)
	ob := obs.New(obs.Options{})
	c := ob.Reg.GetCounter("ticks_total", nil)
	loop.Every(100*sim.Millisecond, func() { c.Inc() })

	h := obs.NewHistory(obs.HistoryOptions{})
	pub := &obs.Publisher{Obs: ob, Hist: h}
	pub.Attach(loop)

	loop.Run(5*sim.Second + 50*sim.Millisecond)
	if got := int(h.Published()); got != 5 {
		t.Fatalf("published %d snapshots over 5s, want 5", got)
	}
	if got := h.Latest().T; got != 5*sim.Second {
		t.Errorf("latest snapshot T = %v, want 5s", got)
	}
}

// TestPublisherSpanTailIsCopied checks a published snapshot holds only
// its span tail: a subslice of SpanLog.Completed would keep every
// retained span alive for as long as the snapshot is.
func TestPublisherSpanTailIsCopied(t *testing.T) {
	ob := obs.New(obs.Options{})
	for i := uint32(0); i < 40; i++ {
		ob.Spans.Begin("offload", i, 1, sim.Second)
		ob.Spans.End("offload", i, 1, 2*sim.Second, "commit")
	}
	h := obs.NewHistory(obs.HistoryOptions{})
	pub := &obs.Publisher{Obs: ob, Hist: h}
	pub.PublishNow(3 * sim.Second)
	spans := h.Latest().Spans
	if len(spans) != 12 || cap(spans) > 12 {
		t.Fatalf("snapshot spans len %d cap %d, want the 12-span tail exactly", len(spans), cap(spans))
	}
	if spans[0].VNIC != 28 || spans[11].VNIC != 39 {
		t.Errorf("snapshot spans cover vNICs %d..%d, want 28..39", spans[0].VNIC, spans[11].VNIC)
	}
	if got := len(h.Spans()); got != 40 {
		t.Errorf("history keeps %d spans, want all 40", got)
	}
}

// filtered is s cut to the points of the named series, as Query with a
// series filter returns it: T and those points only.
func filtered(s *obs.Snapshot, names ...string) *obs.Snapshot {
	out := &obs.Snapshot{T: s.T}
	for _, p := range s.Points {
		if slices.Contains(names, p.Name) {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// TestHistoryRoundTrip checks that every snapshot Latest, Tail and
// Query build renders the JSON and Prometheus bytes of the snapshot that
// was published, as a subscriber received it. The registry grows a
// series midway and its collector's label sets vanish and come back,
// so the ring holds snapshots of several schemas; it evicts, and it
// ends on snapshots built by hand.
func TestHistoryRoundTrip(t *testing.T) {
	ob := obs.New(obs.Options{})
	r := ob.Reg
	c := r.GetCounter("pkts_total", obs.L("node", "a", "role", "BE"))
	var wait slo.Hist
	wait.Observe(300)
	r.HistVar("wait_ns", obs.L("node", "a"), &wait)
	r.GaugeFunc("depth", obs.L("node", "b"), func() float64 { return float64(c.Load()) / 4 })
	r.Help("pkts_total", "Packets.")
	r.Collect(func(emit obs.Emit) {
		n := c.Load()
		for v := n % 3; v < 6; v += 2 {
			l := obs.L("vnic", strconv.FormatUint(v, 10))
			emit("dyn_total", l, obs.KindCounter, float64(n*v))
			emit("dyn_flip", l, obs.Kind(n&1), float64(n))
		}
	})
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 5})
	ch, cancel := h.Subscribe(64)
	defer cancel()

	var pubs []*obs.Snapshot
	publish := func(s *obs.Snapshot) {
		h.Publish(s)
		pubs = append(pubs, <-ch)
		if got, want := text(h.Latest()), text(pubs[len(pubs)-1]); got != want {
			t.Fatalf("Latest after publish %d:\n%s\nwant\n%s", len(pubs), got, want)
		}
	}
	for i := 1; i <= 9; i++ {
		c.Add(uint64(i))
		if i == 4 {
			r.GetCounter("late_total", nil).Add(9)
			r.Help("late_total", "Registered \"late\".")
		}
		publish(ob.Snap(sim.Time(i)*sim.Second, 0))
	}
	if h.Len() != 5 || h.Evicted() != 4 {
		t.Fatalf("Len %d, Evicted %d, want 5 and 4", h.Len(), h.Evicted())
	}
	check := func(what string, got, want []*obs.Snapshot) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d snapshots, want %d", what, len(got), len(want))
		}
		for i := range got {
			if g, w := text(got[i]), text(want[i]); g != w {
				t.Fatalf("%s[%d]:\n%s\nwant\n%s", what, i, g, w)
			}
		}
	}
	check("Tail(0)", h.Tail(0), pubs[4:])
	check("Tail(2)", h.Tail(2), pubs[7:])
	check("Query(all)", h.Query(0, 0, nil), pubs[4:])
	check("Query(6s,8s)", h.Query(6*sim.Second, 8*sim.Second, nil), pubs[5:8])
	var want []*obs.Snapshot
	for _, s := range pubs[4:] {
		want = append(want, filtered(s, "dyn_total", "wait_ns", "late_total"))
	}
	check("Query(series)", h.Query(0, 0, []string{"dyn_total", "wait_ns", "late_total"}), want)
	var scanned []*obs.Snapshot
	h.Scan(0, 0, nil, func(s *obs.Snapshot) error { scanned = append(scanned, s); return nil })
	check("Scan", scanned, pubs[4:])

	// Snapshots built by hand keep every field, the points' label maps
	// and kinds as given, and nil Points apart from empty ones.
	hand := &obs.Snapshot{T: 20 * sim.Second, Points: []obs.Point{
		{Name: "b_total", Labels: map[string]string{"node": "x"}, Kind: "counter", Value: 3, Rate: 1.5},
		{Name: "a_hist", Kind: "histogram", Value: 2, Count: 2, Sum: 9, P50: 4, P99: 5, P999: 5},
		{Name: "odd", Kind: "summary", Value: 1, Count: 7},
	}, Spans: []obs.Span{{Kind: "offload"}}}
	publish(hand)
	publish(&obs.Snapshot{T: 21 * sim.Second, Points: []obs.Point{}})
	publish(&obs.Snapshot{T: 22 * sim.Second})
	check("Tail(3)", h.Tail(3), pubs[9:])
	check("Query(series) of hand-built", h.Query(20*sim.Second, 20*sim.Second, []string{"odd"}), []*obs.Snapshot{filtered(hand, "odd")})
}

// TestHistoryReadSharesLabelMaps checks that one read builds one label
// map per label set: every point of the set, in every snapshot the read
// returns, shares it.
func TestHistoryReadSharesLabelMaps(t *testing.T) {
	ob := campaignObs()
	h := obs.NewHistory(obs.HistoryOptions{})
	for i := 1; i <= 3; i++ {
		h.Publish(ob.Snap(sim.Time(i)*sim.Second, 0))
	}
	maps := map[string]map[string]string{}
	for _, s := range h.Query(0, 0, nil) {
		for _, p := range s.Points {
			if p.Labels == nil {
				continue
			}
			k := fmt.Sprint(p.Labels) // fmt sorts map keys
			if m, ok := maps[k]; ok && reflect.ValueOf(m).UnsafePointer() != reflect.ValueOf(p.Labels).UnsafePointer() {
				t.Fatalf("t=%v %s%s has a label map of its own", s.T, p.Name, k)
			}
			maps[k] = p.Labels
		}
	}
	if len(maps) < 20 {
		t.Fatalf("read returned %d label sets, want the campaign's", len(maps))
	}
}

// TestHistoryRetention bounds what a ring of campaign-sized snapshots
// keeps alive per point once the registry that fed it is gone, as a
// benchmark's instrumented rep holds it: values, deltas, the newest
// schema, descriptors, keys, label sets and SLO views included.
// The stable case snapshots campaignObs' fixed series set, whose values
// never change. In the churning one a collector label set appears or
// vanishes on every snapshot, so every snapshot builds a schema, and
// the mix is a chaos campaign's (about 63 % counters, 36 % gauges, 2 %
// histograms). The campaign case is the history golden's seed-1
// campaign, whose values change as a real run's do.
func TestHistoryRetention(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill func(t *testing.T) (*obs.History, int)
		max  float64 // bytes a point
	}{
		{"stable", func(t *testing.T) (*obs.History, int) { return fillRing(t, false) }, 9.7},
		{"churning", func(t *testing.T) (*obs.History, int) { return fillRing(t, true) }, 10.5},
		{"campaign", fillCampaign, 40.7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.fill(t) // first-use state of the packages is not the ring's
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			h, points := tc.fill(t)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			perPoint := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(points)
			runtime.KeepAlive(h)
			t.Logf("%d points retained at %.1f B a point", points, perPoint)
			if perPoint > tc.max {
				t.Errorf("history retains %.1f B a point, want at most %.1f", perPoint, tc.max)
			}
		})
	}
}

// fillCampaign returns the ring goldenCampaign fills and the number of
// points it holds.
func fillCampaign(t *testing.T) (*obs.History, int) {
	h, points := goldenCampaign(t), 0
	h.Scan(0, 0, nil, func(s *obs.Snapshot) error {
		points += len(s.Points)
		return nil
	})
	return h, points
}

// fillRing publishes 64 snapshots of a campaign-sized bundle into a
// 64-slot ring and returns the ring alone, with the number of points it
// holds.
func fillRing(t *testing.T, churn bool) (*obs.History, int) {
	ob := campaignObs()
	if churn {
		// 76 or 80 gauges over 19 or 20 vNICs: vNIC 24 comes and goes.
		n := 0
		ob.Reg.Collect(func(emit obs.Emit) {
			n++
			for vnic := 5; vnic < 24+n%2; vnic++ {
				l := obs.L("vnic", strconv.Itoa(vnic))
				for _, name := range []string{"vnic_cpu_util", "vnic_mem_util", "vnic_fes", "vnic_sessions"} {
					emit(name, l, obs.KindGauge, float64(vnic*n))
				}
			}
		})
	}
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 64})
	points, kinds, prev := 0, map[string]int{}, 0
	for i := 1; i <= 64; i++ {
		s := ob.Snap(sim.Time(i)*sim.Second, 0)
		if churn && len(s.Points) == prev {
			t.Fatalf("snapshot %d has the series of the one before", i)
		}
		prev = len(s.Points)
		for j := range s.Points {
			kinds[s.Points[j].Kind]++
		}
		points += len(s.Points)
		h.Publish(s)
	}
	if h.Len() != 64 {
		t.Fatalf("ring holds %d snapshots, want 64", h.Len())
	}
	if churn {
		t.Logf("mix: %.1f %% counters, %.1f %% gauges, %.1f %% histograms",
			100*float64(kinds["counter"])/float64(points), 100*float64(kinds["gauge"])/float64(points), 100*float64(kinds["histogram"])/float64(points))
	}
	return h, points
}
