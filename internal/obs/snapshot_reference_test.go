package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"nezha/internal/sim"
)

// referenceRates is the rate window of referenceSnapshot: the previous
// snapshot's counter values by series key.
type referenceRates struct {
	prevT   sim.Time
	prevVal map[string]float64
	hasPrev bool
}

// referenceSnapshot is Registry.Snapshot written without descriptors:
// it copies the help map, builds a fresh label map for every point,
// sorts on label keys rebuilt per comparison, and takes rates against a
// map of the previous snapshot's counter values that it replaces
// wholesale. It is the oracle Snapshot is checked against; it reads the
// registry's series but none of its snapshot state.
func (st *referenceRates) snapshot(r *Registry, now sim.Time) *Snapshot {
	r.mu.Lock()
	sers := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		sers = append(sers, s)
	}
	regs := append([]registration(nil), r.regs...)
	helps := make(map[string]string, len(r.helps))
	for k, v := range r.helps {
		helps[k] = v
	}
	r.mu.Unlock()

	snap := &Snapshot{T: now, help: helps}
	add := func(name string, labels Labels, kind Kind, value float64) {
		snap.Points = append(snap.Points, Point{
			Name: name, Labels: labels.Map(), Kind: kind.String(),
			Value: value, d: &desc{name: name, labels: labels},
		})
	}
	for _, s := range sers {
		switch s.kind {
		case KindCounter:
			add(s.name, s.labels, KindCounter, float64(s.c.Load()))
		case KindGauge:
			add(s.name, s.labels, KindGauge, s.g.Load())
		case KindHistogram:
			p := Point{
				Name: s.name, Labels: s.labels.Map(), Kind: KindHistogram.String(),
				Count: s.h.Count(), Sum: s.h.Sum(),
				P50: s.h.Quantile(0.50), P99: s.h.Quantile(0.99), P999: s.h.Quantile(0.999),
				d: &desc{name: s.name, labels: s.labels},
			}
			p.Value = float64(p.Count)
			snap.Points = append(snap.Points, p)
		}
	}
	for _, reg := range regs {
		admitted := 0
		for i := 0; i < reg.g.rows() && admitted < reg.admit; i++ {
			if row := reg.g.row(i); row.valued {
				admitted++
				ls := append(append(Labels(nil), reg.labels...), row.labels...)
				sort.Slice(ls, func(a, b int) bool { return ls[a].K < ls[b].K })
				p := reg.g.point(i, &desc{name: row.name, labels: ls, kind: row.kind})
				p.Labels = ls.Map()
				snap.Points = append(snap.Points, p)
			}
		}
	}
	for _, reg := range regs {
		reg.g.collect(add)
	}
	if dropped := r.dropped.Load(); dropped > 0 {
		add("obs_series_dropped_total", nil, KindCounter, float64(dropped))
	}
	sort.Slice(snap.Points, func(i, j int) bool {
		if snap.Points[i].Name != snap.Points[j].Name {
			return snap.Points[i].Name < snap.Points[j].Name
		}
		return snap.Points[i].d.labels.key() < snap.Points[j].d.labels.key()
	})

	dt := float64(now-st.prevT) / float64(sim.Second)
	newVal := make(map[string]float64, len(snap.Points))
	for i := range snap.Points {
		p := &snap.Points[i]
		if p.Kind != KindCounter.String() {
			continue
		}
		key := seriesKey(p.Name, p.d.labels)
		newVal[key] = p.Value
		if st.hasPrev && dt > 0 {
			if prev, ok := st.prevVal[key]; ok {
				p.Rate = (p.Value - prev) / dt
			}
		}
	}
	st.prevT = now
	st.prevVal = newVal
	st.hasPrev = true
	return snap
}

// The registry program's vocabulary. Names are disjoint per kind and
// per source (atomic, func, each collector), so no snapshot holds one
// series key twice. Names and label sets include pairs whose order by
// (name, labels) differs from their order as whole series keys: "a" vs
// "a_b", "vnic=1" vs "vnic=10".
var (
	progCounters = []string{"a", "a_b", "sent_total", "z_total"}
	progGauges   = []string{"depth", "depth_x", "util"}
	progHists    = []string{"wait_ns", "wait_ns_b"}
	progCFuncs   = []string{"fc", "fc_total", "a_c"}
	progGFuncs   = []string{"fg", "fg_util", "fc"} // "fc" is a counter func's name too
	progLabels   = []Labels{
		nil,
		L("node", "a"),
		L("node", "b"),
		L("role", "BE", "node", "a"),
		L("vnic", "1"),
		L("vnic", "10"),
		L("vnic", "2"),
		L("node", `a"b\c`),
		L("node", "a", "vnic", "1"),
		L("core", "0", "node", "a"),
		L("vnic", "1", "zone", ""),
		L("k", "v,w=x"),
		L("node", "c"),
		L("vnic", "100"),
		L("a", "1", "b", "2", "c", "3"),
		L("node", "10.0.0.1"),
	}
	progHelpNames = []string{"a", "sent_total", "depth", "wait_ns", "fc", "k0_total", "k1_gauge", "obs_series_dropped_total"}
	progHelpTexts = []string{"", "Plain help.", "Two\nlines and a back\\slash."}
)

// snapProgram decodes a byte string into registry operations and
// snapshots; exhausted input reads as zeros.
type snapProgram struct {
	b          []byte
	r          *Registry
	vals       [8]uint64
	present    [4]uint16 // label sets collector k emits, as a progLabels bitmask
	collectors int
	now        sim.Time
	// funcs holds the keys of the func series registered so far: a
	// series is registered once.
	funcs map[string]bool
}

func (p *snapProgram) u8() byte {
	if len(p.b) == 0 {
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

func (p *snapProgram) labels() Labels { return progLabels[int(p.u8())%len(progLabels)] }

// once reports whether name+labels is a new func series, and marks it
// registered.
func (p *snapProgram) once(name string, ls Labels) bool {
	k := seriesKey(name, ls)
	if p.funcs[k] {
		return false
	}
	p.funcs[k] = true
	return true
}

func pick(names []string, c byte) string { return names[int(c)%len(names)] }

// collector returns collector k: for every label set in its present
// mask it emits a counter, a gauge, a series whose kind follows the
// parity of a value, and (every third set) a histogram-kind point, so
// sets appear, vanish and come back, and change kind, between
// snapshots.
func (p *snapProgram) collector(k int) func(Emit) {
	cn, gn, fn, hn := fmt.Sprintf("k%d_total", k), fmt.Sprintf("k%d_gauge", k), fmt.Sprintf("k%d_flip", k), fmt.Sprintf("k%d_hist", k)
	return func(emit Emit) {
		for i, ls := range progLabels {
			if p.present[k]&(1<<i) == 0 {
				continue
			}
			v := p.vals[i%len(p.vals)]
			emit(cn, ls, KindCounter, float64(v*uint64(k+1)))
			emit(gn, ls, KindGauge, float64(v)/3)
			emit(fn, ls, Kind(v&1), float64(v))
			if i%3 == 0 {
				emit(hn, ls, KindHistogram, float64(v))
			}
		}
	}
}

// step runs one operation; it reports true when the operation is a
// snapshot, which the caller takes from both implementations.
func (p *snapProgram) step() bool {
	switch op := p.u8() % 12; op {
	case 0:
		p.r.GetCounter(pick(progCounters, p.u8()), p.labels()).Add(uint64(p.u8()))
	case 1:
		p.r.GetGauge(pick(progGauges, p.u8()), p.labels()).Set(float64(int8(p.u8())) / 4)
	case 2:
		p.r.GetHistogram(pick(progHists, p.u8()), p.labels()).Observe(uint64(p.u8()) << (p.u8() % 40))
	case 3:
		i, off := int(p.u8())%len(p.vals), uint64(p.u8())
		if name, ls := pick(progCFuncs, p.u8()), p.labels(); p.once(name, ls) {
			p.r.CounterFunc(name, ls, func() uint64 { return p.vals[i] + off })
		}
	case 4:
		i, off := int(p.u8())%len(p.vals), float64(p.u8())
		if name, ls := pick(progGFuncs, p.u8()), p.labels(); p.once(name, ls) {
			p.r.GaugeFunc(name, ls, func() float64 { return float64(p.vals[i])/2 - off })
		}
	case 5:
		if p.collectors < len(p.present) {
			p.r.Collect(p.collector(p.collectors))
			p.collectors++
		}
	case 6:
		p.present[int(p.u8())%len(p.present)] = uint16(p.u8()) | uint16(p.u8())<<8
	case 7:
		p.vals[int(p.u8())%len(p.vals)] += uint64(p.u8())
	case 8:
		p.r.Help(pick(progHelpNames, p.u8()), pick(progHelpTexts, p.u8()))
	case 9:
		// Small caps drop later registrations; 0 disables the cap.
		p.r.SetMaxSeries(int(p.u8() % 48))
	default:
		// Two of twelve ops are snapshots, some at an unchanged time.
		p.now += sim.Time(p.u8()%4) * 250 * sim.Millisecond
		return true
	}
	return false
}

func renderSnapshot(t *testing.T, s *Snapshot) (string, string) {
	t.Helper()
	var js, prom bytes.Buffer
	if err := s.WriteJSONLine(&js); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return js.String(), prom.String()
}

// comparePoints requires deep-equal exported fields point by point.
func comparePoints(t *testing.T, n int, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("snapshot %d: %d points, reference %d", n, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || !reflect.DeepEqual(g.Labels, w.Labels) || g.Kind != w.Kind ||
			g.Value != w.Value || g.Rate != w.Rate || g.Count != w.Count || g.Sum != w.Sum ||
			g.P50 != w.P50 || g.P99 != w.P99 || g.P999 != w.P999 {
			t.Fatalf("snapshot %d point %d:\n got %+v\nwant %+v", n, i, g, w)
		}
	}
}

// checkSnapshotProgram runs prog against a registry and takes every
// snapshot from Snapshot and from the reference, requiring deep-equal
// points, an exactly sized Points slice and byte-equal JSON and
// Prometheus renderings. At the end every retained snapshot is rendered
// again: later Help calls and snapshots must not have changed them.
func checkSnapshotProgram(t *testing.T, prog []byte) {
	t.Helper()
	p := &snapProgram{b: prog, r: NewRegistry(), funcs: map[string]bool{}}
	p.r.SetWarnFn(nil)
	var ref referenceRates
	type taken struct {
		got        *Snapshot
		json, prom string
	}
	var all []taken
	snap := func() {
		got := p.r.Snapshot(p.now)
		want := ref.snapshot(p.r, p.now)
		comparePoints(t, len(all), got.Points, want.Points)
		if cap(got.Points) != len(got.Points) {
			t.Fatalf("snapshot %d: cap(Points) = %d, len %d", len(all), cap(got.Points), len(got.Points))
		}
		gj, gp := renderSnapshot(t, got)
		wj, wp := renderSnapshot(t, want)
		if gj != wj {
			t.Fatalf("snapshot %d: JSON differs:\n got %s\nwant %s", len(all), gj, wj)
		}
		if gp != wp {
			t.Fatalf("snapshot %d: Prometheus text differs:\n got %s\nwant %s", len(all), gp, wp)
		}
		all = append(all, taken{got, gj, gp})
	}
	for len(p.b) > 0 {
		if p.step() {
			snap()
		}
	}
	p.now += sim.Second
	snap()
	p.vals[0]++
	p.now += sim.Second
	snap()
	for i, s := range all {
		if j, pr := renderSnapshot(t, s.got); j != s.json || pr != s.prom {
			t.Fatalf("snapshot %d changed after it was taken:\nJSON %s\nwas  %s\nprom %s\nwas  %s", i, j, s.json, pr, s.prom)
		}
	}
	for _, d := range p.r.dyn {
		if d.seen != p.r.gen {
			t.Fatalf("intern table keeps %q, which the latest snapshot did not emit", d.key)
		}
	}
}

// TestSnapshotMatchesReference drives random registry programs through
// Snapshot and the reference.
func TestSnapshotMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 256+rng.Intn(2048))
		rng.Read(prog)
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { checkSnapshotProgram(t, prog) })
	}
}

// FuzzSnapshotMatchesReference fuzzes registry programs against the
// reference.
func FuzzSnapshotMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 7, 5, 6, 0, 255, 255, 10, 1, 7, 0, 9, 11, 2})
	f.Add([]byte{9, 3, 0, 0, 0, 1, 0, 1, 1, 2, 3, 0, 0, 7, 4, 1, 1, 2, 10, 0, 10, 1, 10, 2})
	rng := rand.New(rand.NewSource(42))
	seedProg := make([]byte, 512)
	rng.Read(seedProg)
	f.Add(seedProg)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip()
		}
		checkSnapshotProgram(t, prog)
	})
}
