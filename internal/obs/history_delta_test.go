package obs_test

// The History keeps its newest snapshot whole and every older one as a
// delta against the next; these tests hold its reads to a ring that
// keeps every snapshot whole, under concurrent publishing, and within
// one snapshot's rows of memory.

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"nezha/internal/obs"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

// specials are the values the fuzzer draws: bit patterns a float
// compare would lose (NaN payloads, -0) beside ordinary ones.
var specials = []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Float64frombits(0x7ff8000000000001),
	math.Inf(1), math.Inf(-1), 2.5, 1e300}

// FuzzHistoryDeltas publishes a random sequence into a ring of 1 to 8
// snapshots: registry snapshots whose collector label sets appear,
// vanish and change kind, with special values, mixed with snapshots
// built by hand and registry snapshots with a point added by hand. After
// every publish Latest, Tail, Query (windows, series filters) and a Scan
// stopped early must return what a ring of whole snapshots holds.
func FuzzHistoryDeltas(f *testing.F) {
	f.Add([]byte{3, 2, 0xff, 0x00, 4, 0x12, 3, 0x0f, 0x55, 5, 0x2b, 0, 0xf0, 0xaa, 6, 0x31, 1, 0x3c, 0x1b, 7, 0x85})
	rng := sim.NewRand(1)
	for i := 0; i < 4; i++ {
		b := make([]byte, 400)
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%8)
		h := obs.NewHistory(obs.HistoryOptions{Snapshots: capacity})
		var step []byte // op, label-set mask, kinds, value, read parameter
		reg := obs.NewRegistry()
		pkts := reg.GetCounter("pkts_total", obs.L("node", "a"))
		var wait slo.Hist
		reg.HistVar("wait_ns", nil, &wait)
		reg.Collect(func(emit obs.Emit) {
			for i := 0; i < 8; i++ {
				if step[1]>>i&1 != 0 {
					kind := obs.Kind(step[2] >> (2 * (i % 4)) & 3 % 3)
					emit("dyn", obs.L("vnic", strconv.Itoa(i)), kind, specials[(int(step[3])+i)%len(specials)])
				}
			}
		})
		var ref []*obs.Snapshot
		for data = data[1:]; len(data) >= 5; data = data[5:] {
			step = data[:5]
			op, v := step[0], specials[int(step[3])%len(specials)]
			pkts.Add(uint64(op & 7))
			wait.Observe(uint64(step[3]) << (op & 31))
			at := sim.Time(step[4]%16) * sim.Second // repeated and out of order
			var s *obs.Snapshot
			switch op % 4 {
			case 0:
				s = &obs.Snapshot{T: at, Points: []obs.Point{
					{Name: "dyn", Labels: map[string]string{"vnic": "1"}, Kind: "counter", Value: v, Rate: -v},
					{Name: "hand", Kind: "histogram", Value: 2, Count: 2, Sum: uint64(op), P99: 7},
				}}
				if op&4 != 0 {
					s.Points = nil
				}
			case 1:
				s = reg.Snapshot(at)
				s.Points = append(s.Points, obs.Point{Name: "hand", Kind: "gauge", Value: v})
			default:
				s = reg.Snapshot(at)
			}
			h.Publish(s)
			if ref = append(ref, s); len(ref) > capacity {
				ref = ref[1:]
			}
			checkReads(t, h, ref, step[4])
		}
	})
}

// checkReads holds h's reads to ref, the snapshots it should retain,
// oldest first; p picks Tail's k, the query window, the series filter
// and where Scan stops.
func checkReads(t *testing.T, h *obs.History, ref []*obs.Snapshot, p byte) {
	t.Helper()
	sameSnaps(t, "Latest", []*obs.Snapshot{h.Latest()}, ref[len(ref)-1:])
	exp := ref
	if k := int(p % 9); k > 0 && k < len(ref) {
		exp = ref[len(ref)-k:]
	}
	sameSnaps(t, "Tail", h.Tail(int(p%9)), exp)

	from, to := sim.Time(p&7)*sim.Second, sim.Time(p>>3&15)*sim.Second
	var names []string
	if p&0x80 != 0 {
		names = []string{"dyn", "wait_ns", "hand"}[p>>5&1:]
	}
	exp = nil
	for _, s := range ref {
		if s.T >= from && (to <= 0 || s.T <= to) {
			if names != nil {
				s = filtered(s, names...)
			}
			exp = append(exp, s)
		}
	}
	sameSnaps(t, "Query", h.Query(from, to, names), exp)

	stop, m := errors.New("stop"), 1+int(p%3)
	var got []*obs.Snapshot
	err := h.Scan(from, to, names, func(s *obs.Snapshot) error {
		if got = append(got, s); len(got) == m {
			return stop
		}
		return nil
	})
	if len(exp) >= m {
		exp = exp[:m]
		if err != stop {
			t.Fatalf("Scan stopped by its callback returned %v", err)
		}
	}
	sameSnaps(t, "Scan", got, exp)
}

// sameSnaps requires got and want to match snapshot for snapshot,
// values bit for bit.
func sameSnaps(t *testing.T, what string, got, want []*obs.Snapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d snapshots, want %d", what, len(got), len(want))
	}
	for i := range got {
		if d := snapDiff(got[i], want[i]); d != "" {
			t.Fatalf("%s[%d] (t=%v): %s", what, i, want[i].T, d)
		}
	}
}

func snapDiff(a, b *obs.Snapshot) string {
	switch {
	case a.T != b.T:
		return "T " + a.T.String()
	case (a.Points == nil) != (b.Points == nil) || len(a.Points) != len(b.Points):
		return "points " + strconv.Itoa(len(a.Points))
	}
	for i := range a.Points {
		p, q := &a.Points[i], &b.Points[i]
		if p.Name != q.Name || p.Kind != q.Kind || !maps.Equal(p.Labels, q.Labels) ||
			math.Float64bits(p.Value) != math.Float64bits(q.Value) || math.Float64bits(p.Rate) != math.Float64bits(q.Rate) ||
			p.Count != q.Count || p.Sum != q.Sum || p.P50 != q.P50 || p.P99 != q.P99 || p.P999 != q.P999 {
			return "point " + strconv.Itoa(i) + " " + p.Name
		}
	}
	var pa, pb bytes.Buffer
	a.WritePrometheus(&pa)
	b.WritePrometheus(&pb)
	if pa.String() != pb.String() {
		return "Prometheus text:\n" + pa.String() + "want\n" + pb.String()
	}
	if len(a.Spans) != len(b.Spans) || a.SLO != b.SLO {
		return "spans or SLO view"
	}
	return ""
}

// text is a snapshot's JSON line and Prometheus text.
func text(s *obs.Snapshot) string {
	var b bytes.Buffer
	if err := s.WriteJSONLine(&b); err != nil {
		return err.Error()
	}
	if err := s.WritePrometheus(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// TestHistoryReadsDuringPublish reads while Publish turns the newest
// record into a delta: a reader walks the records it copied under the
// lock, so every read must return consecutive published snapshots
// exactly. CI runs it under -race.
func TestHistoryReadsDuringPublish(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.GetCounter("pkts_total", obs.L("node", "a"))
	n := 0
	reg.Collect(func(emit obs.Emit) {
		for v := n % 3; v < 8; v += 2 { // label sets come and go
			emit("dyn_total", obs.L("vnic", strconv.Itoa(v)), obs.KindCounter, float64(n*v))
		}
	})
	var pubs []*obs.Snapshot
	want := map[sim.Time]string{}
	for n = 1; n <= 200; n++ {
		c.Add(uint64(n))
		s := reg.Snapshot(sim.Time(n) * sim.Second)
		pubs, want[s.T] = append(pubs, s), text(s)
	}

	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 8})
	check := func(what string, got []*obs.Snapshot) {
		for i, s := range got {
			if i > 0 && s.T != got[i-1].T+sim.Second {
				t.Errorf("%s: t=%v follows t=%v", what, s.T, got[i-1].T)
				return
			}
			if text(s) != want[s.T] {
				t.Errorf("%s: t=%v is not the snapshot published", what, s.T)
				return
			}
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if s := h.Latest(); s != nil {
					check("Latest", []*obs.Snapshot{s})
				}
				check("Tail", h.Tail(4))
				check("Query", h.Query(0, 0, nil))
				var scanned []*obs.Snapshot
				h.Scan(0, 0, nil, func(s *obs.Snapshot) error {
					scanned = append(scanned, s)
					return nil
				})
				check("Scan", scanned)
			}
		}()
	}
	for _, s := range pubs {
		h.Publish(s)
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
}

// TestHistoryScanHoldsOneSnapshot scans a full 512-snapshot ring of
// campaign-sized snapshots and requires what the scan keeps alive, at
// any snapshot it hands out, to stay within two snapshots' rows (what
// holding the snapshot Latest returns costs: its points and their label
// maps): it walks the deltas with one working frame, never rebuilding
// the ring.
func TestHistoryScanHoldsOneSnapshot(t *testing.T) {
	ob := campaignObs()
	n := 0
	ob.Reg.Collect(func(emit obs.Emit) {
		n++
		for vnic := 5; vnic < 24+n%2; vnic++ {
			emit("vnic_cpu_util", obs.L("vnic", strconv.Itoa(vnic)), obs.KindGauge, float64(vnic*n))
		}
	})
	h := obs.NewHistory(obs.HistoryOptions{})
	for i := 1; i <= 512; i++ {
		h.Publish(ob.Snap(sim.Time(i)*sim.Second, 0))
	}
	var ms runtime.MemStats
	live := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := live()
	latest := h.Latest()
	rows := live() - base
	runtime.KeepAlive(latest)
	base = live()
	var seen int
	var worst int64
	h.Scan(0, 0, nil, func(s *obs.Snapshot) error {
		if seen++; seen%64 == 1 || seen == 512 {
			worst = max(worst, live()-base)
		}
		return nil
	})
	if seen != 512 {
		t.Fatalf("Scan handed out %d snapshots, want 512", seen)
	}
	t.Logf("a scan keeps at most %d B alive; a snapshot's rows are %d B", worst, rows)
	if worst > 2*rows {
		t.Errorf("a scan keeps %d B alive, more than two snapshots' rows (%d B)", worst, 2*rows)
	}
}

// TestHistoryLatestWalksNoDeltas drops every record but the newest:
// Latest and Tail(1) read that one alone.
func TestHistoryLatestWalksNoDeltas(t *testing.T) {
	ob := campaignObs()
	h := obs.NewHistory(obs.HistoryOptions{Snapshots: 8})
	for i := 1; i <= 12; i++ {
		h.Publish(ob.Snap(sim.Time(i)*sim.Second, 0))
	}
	want := text(h.Latest())
	h.DropDeltas()
	if got := text(h.Latest()); got != want {
		t.Fatalf("Latest without deltas:\n%.400s\nwant\n%.400s", got, want)
	}
	if got := h.Tail(1); len(got) != 1 || text(got[0]) != want {
		t.Fatal("Tail(1) without deltas is not the latest snapshot")
	}
}
