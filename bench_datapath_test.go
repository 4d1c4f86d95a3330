package nezha

// Burst datapath benchmarks: the same A→B traffic pushed through the
// scalar per-packet entry points (one CPU event and one fabric event
// per packet, heap scheduler — the pre-burst datapath) and through the
// burst pipeline (FromVMBurst → SubmitBurst completion waves →
// SendBurst coalesced hops, calendar scheduler). Both rigs move the
// identical packet stream — the differential tests prove the outputs
// match bit for bit — so the pair measures pure pipeline overhead.
// TestDatapathBurstGuard turns it into a CI gate: with
// DATAPATH_BENCH_GUARD=1 it fails unless the burst pipeline clears its
// absolute floors (A→B ≥ 2M pkts/s at ≤ 1 alloc/pkt, single-switch
// forwarding ≥ 4M pkts/s at ≤ 1 alloc/pkt), and writes the measurement — scalar
// numbers included, for information — to BENCH_datapath.json. The gate
// used to be relative to scalar (≥ 2x pkts/s, ≤ 50% of its allocs);
// with the scalar path on the same pooled tasks that ratio measures
// nothing.

import (
	"encoding/json"
	"os"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

const (
	dpBenchFlows  = 32  // distinct established flows
	dpBenchBatch  = 128 // packets injected per tick
	dpBenchRounds = 64  // injection ticks per op
	dpBenchCores  = 32  // wide NIC so equal-cost packets complete in waves
	dpBenchHz     = 2_000_000_000
	dpClientVNIC  = 1
	dpServerVNIC  = 2
	dpVPC         = 7
)

type dpRig struct {
	loop      *sim.Loop
	fab       *fabric.Fabric
	a, b      *vswitch.VSwitch
	delivered uint64
	id        uint64
}

var (
	dpAddrA = packet.MakeIP(192, 168, 0, 1)
	dpAddrB = packet.MakeIP(192, 168, 0, 2)
	dpVMIPA = packet.MakeIP(10, 0, 1, 1)
	dpVMIPB = packet.MakeIP(10, 0, 2, 1)
)

func newDatapathRig(kind sim.SchedulerKind) *dpRig {
	r := &dpRig{loop: sim.NewLoopSched(1, kind)}
	r.fab = fabric.New(r.loop)
	gw := fabric.NewGateway(r.loop)
	mk := func(addr packet.IPv4) *vswitch.VSwitch {
		return vswitch.New(r.loop, r.fab, gw, vswitch.Config{
			Addr: addr, Cores: dpBenchCores, CoreHz: dpBenchHz,
		})
	}
	r.a, r.b = mk(dpAddrA), mk(dpAddrB)
	r.b.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		r.delivered++
		p.Release()
	})
	crs := tables.NewRuleSet(dpClientVNIC, dpVPC)
	crs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 2, 0), 24), packet.IPv4(dpServerVNIC))
	srs := tables.NewRuleSet(dpServerVNIC, dpVPC)
	srs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 1, 0), 24), packet.IPv4(dpClientVNIC))
	if err := r.a.AddVNIC(crs, false); err != nil {
		panic(err)
	}
	if err := r.b.AddVNIC(srs, false); err != nil {
		panic(err)
	}
	gw.Set(dpClientVNIC, dpAddrA)
	gw.Set(dpServerVNIC, dpAddrB)
	return r
}

func (r *dpRig) pkt(sport uint16, flags packet.TCPFlags, payload int) *packet.Packet {
	r.id++
	ft := packet.FiveTuple{
		SrcIP: dpVMIPA, DstIP: dpVMIPB,
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP,
	}
	p := packet.Get(r.id, dpVPC, dpClientVNIC, ft, packet.DirTX, flags, payload)
	p.SentAt = int64(r.loop.Now())
	return p
}

// establish opens every bench flow (SYN through the slow path) so the
// measured packets all ride the established fast path.
func (r *dpRig) establish() {
	for i := 0; i < dpBenchFlows; i++ {
		r.a.FromVM(r.pkt(uint16(2000+i), packet.FlagSYN, 0))
	}
	r.loop.Run(10 * sim.Millisecond)
	r.delivered = 0
}

// runDatapathRig injects rounds×batch equal-size packets over the
// established flows and drains the loop, returning packets delivered.
func runDatapathRig(kind sim.SchedulerKind, burst bool) uint64 {
	r := newDatapathRig(kind)
	r.establish()
	base := r.loop.Now()
	for round := 0; round < dpBenchRounds; round++ {
		round := round
		r.loop.At(base+sim.Time(round+1)*100*sim.Microsecond, func() {
			ps := make([]*packet.Packet, 0, dpBenchBatch)
			for i := 0; i < dpBenchBatch; i++ {
				ps = append(ps, r.pkt(uint16(2000+i%dpBenchFlows), packet.FlagACK, 64))
			}
			if burst {
				r.a.FromVMBurst(ps)
			} else {
				for _, p := range ps {
					r.a.FromVM(p)
				}
			}
		})
	}
	r.loop.Run(base + sim.Second)
	return r.delivered
}

func benchDatapathPipeline(b *testing.B, kind sim.SchedulerKind, burst bool) {
	var pkts uint64
	for i := 0; i < b.N; i++ {
		pkts += runDatapathRig(kind, burst)
	}
	if want := uint64(b.N) * dpBenchRounds * dpBenchBatch; pkts != want {
		b.Fatalf("delivered %d packets, want %d — rig is dropping, measurement invalid", pkts, want)
	}
	b.ReportAllocs()
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkDatapathScalar is the pre-burst datapath: per-packet entry
// points on the heap scheduler.
func BenchmarkDatapathScalar(b *testing.B) {
	benchDatapathPipeline(b, sim.SchedHeap, false)
}

// BenchmarkDatapathBurst is the burst pipeline on the calendar
// scheduler — the shipped default.
func BenchmarkDatapathBurst(b *testing.B) {
	benchDatapathPipeline(b, sim.SchedCalendar, true)
}

// --- Single-switch forwarding rate ------------------------------------
//
// The A→B rig above charges both the TX and the RX datapath to every
// packet, so its pkts/s is the round-trip rate of a switch PAIR. The
// forwarding rig isolates ONE vSwitch: A runs the full burst TX
// datapath (plan, CPU completion waves, encap, coalesced SendBurst),
// and the destination underlay address is a raw fabric node that
// counts and releases — no second datapath in the measurement. pkts/s
// is therefore the forwarding rate of a single switch.

type dpFwdRig struct {
	loop      *sim.Loop
	a         *vswitch.VSwitch
	delivered uint64
	id        uint64
}

func newForwardRig() *dpFwdRig {
	r := &dpFwdRig{loop: sim.NewLoopSched(1, sim.SchedCalendar)}
	fab := fabric.New(r.loop)
	gw := fabric.NewGateway(r.loop)
	r.a = vswitch.New(r.loop, fab, gw, vswitch.Config{
		Addr: dpAddrA, Cores: dpBenchCores, CoreHz: dpBenchHz,
	})
	// The ledger is always-on in production, so the forwarding gate
	// measures the datapath with it attached.
	r.a.EnableSLO(slo.NewTracker(slo.Config{}))
	// Raw sink node: every delivered underlay packet is counted and
	// returned to the pool, per-packet and coalesced alike.
	fab.Register(dpAddrB, 0, func(p *packet.Packet) {
		r.delivered++
		p.Release()
	})
	if err := fab.SetBurstHandler(dpAddrB, func(ps []*packet.Packet) {
		r.delivered += uint64(len(ps))
		for _, p := range ps {
			p.Release()
		}
	}); err != nil {
		panic(err)
	}
	crs := tables.NewRuleSet(dpClientVNIC, dpVPC)
	crs.Route.Add(tables.MakePrefix(packet.MakeIP(10, 0, 2, 0), 24), packet.IPv4(dpServerVNIC))
	if err := r.a.AddVNIC(crs, false); err != nil {
		panic(err)
	}
	gw.Set(dpClientVNIC, dpAddrA)
	gw.Set(dpServerVNIC, dpAddrB)
	return r
}

func (r *dpFwdRig) pkt(sport uint16, flags packet.TCPFlags, payload int) *packet.Packet {
	r.id++
	ft := packet.FiveTuple{
		SrcIP: dpVMIPA, DstIP: dpVMIPB,
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP,
	}
	p := packet.Get(r.id, dpVPC, dpClientVNIC, ft, packet.DirTX, flags, payload)
	p.SentAt = int64(r.loop.Now())
	return p
}

// runForwardOp injects one op's rounds×batch stream over the rig's
// established flows and drains the loop. The rig persists across ops —
// steady state, so ns/op is pure forwarding work with no rig
// construction or slow-path establishment in the measurement.
func (r *dpFwdRig) runForwardOp() {
	base := r.loop.Now()
	for round := 0; round < dpBenchRounds; round++ {
		round := round
		r.loop.At(base+sim.Time(round+1)*100*sim.Microsecond, func() {
			ps := make([]*packet.Packet, 0, dpBenchBatch)
			for i := 0; i < dpBenchBatch; i++ {
				ps = append(ps, r.pkt(uint16(2000+i%dpBenchFlows), packet.FlagACK, 64))
			}
			r.a.FromVMBurst(ps)
		})
	}
	r.loop.Run(base + sim.Time(dpBenchRounds+2)*100*sim.Microsecond)
}

// BenchmarkDatapathForward is the single-switch forwarding rig.
func BenchmarkDatapathForward(b *testing.B) {
	r := newForwardRig()
	for i := 0; i < dpBenchFlows; i++ {
		r.a.FromVM(r.pkt(uint16(2000+i), packet.FlagSYN, 0))
	}
	r.loop.Run(10 * sim.Millisecond)
	r.delivered = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.runForwardOp()
	}
	b.StopTimer()
	r.loop.RunAll()
	if want := uint64(b.N) * dpBenchRounds * dpBenchBatch; r.delivered != want {
		b.Fatalf("delivered %d packets, want %d — rig is dropping, measurement invalid", r.delivered, want)
	}
	b.ReportAllocs()
	b.ReportMetric(float64(r.delivered)/b.Elapsed().Seconds(), "pkts/s")
}

// datapathBenchResult is the BENCH_datapath.json schema.
type datapathBenchResult struct {
	ScalarNsPerOp      int64   `json:"scalar_ns_per_op"`
	BurstNsPerOp       int64   `json:"burst_ns_per_op"`
	ScalarPktsPerSec   float64 `json:"scalar_pkts_per_sec"`
	BurstPktsPerSec    float64 `json:"burst_pkts_per_sec"`
	SpeedupRatio       float64 `json:"speedup_ratio"`
	ScalarAllocsPerOp  int64   `json:"scalar_allocs_per_op"`
	BurstAllocsPerOp   int64   `json:"burst_allocs_per_op"`
	ScalarAllocsPerPkt float64 `json:"scalar_allocs_per_pkt"`
	BurstAllocsPerPkt  float64 `json:"burst_allocs_per_pkt"`
	PktsPerOp          int     `json:"pkts_per_op"`
	BurstMinPktsPerSec float64 `json:"burst_min_pkts_per_sec"`
	BurstMaxAllocsPkt  float64 `json:"burst_max_allocs_per_pkt"`
	Reps               int     `json:"reps"`

	// Single-switch forwarding rate (the BenchmarkDatapathForward rig)
	// and its gate floors.
	ForwardNsPerOp      int64   `json:"forward_ns_per_op"`
	ForwardPktsPerSec   float64 `json:"forward_pkts_per_sec"`
	ForwardAllocsPerOp  int64   `json:"forward_allocs_per_op"`
	ForwardAllocsPerPkt float64 `json:"forward_allocs_per_pkt"`
	ForwardMinPktsPerS  float64 `json:"forward_min_pkts_per_sec"`
	ForwardMaxAllocsPkt float64 `json:"forward_max_allocs_per_pkt"`
}

// TestDatapathBurstGuard is the CI benchmark gate (set
// DATAPATH_BENCH_GUARD=1 to run): best of three reps each way, written
// to BENCH_datapath.json; fails unless the burst pipeline clears its
// absolute pkts/s and allocs/pkt floors. The scalar rig is measured and
// recorded but gates nothing.
func TestDatapathBurstGuard(t *testing.T) {
	if os.Getenv("DATAPATH_BENCH_GUARD") == "" {
		t.Skip("set DATAPATH_BENCH_GUARD=1 to run the burst datapath gate")
	}
	const reps = 3
	best := func(fn func(*testing.B)) (ns, allocs int64) {
		for i := 0; i < reps; i++ {
			r := testing.Benchmark(fn)
			if ns == 0 || r.NsPerOp() < ns {
				ns, allocs = r.NsPerOp(), r.AllocsPerOp()
			}
		}
		return ns, allocs
	}
	scalarNs, scalarAllocs := best(BenchmarkDatapathScalar)
	burstNs, burstAllocs := best(BenchmarkDatapathBurst)
	fwdNs, fwdAllocs := best(BenchmarkDatapathForward)
	const pktsPerOp = dpBenchRounds * dpBenchBatch
	res := datapathBenchResult{
		ScalarNsPerOp:       scalarNs,
		BurstNsPerOp:        burstNs,
		ScalarPktsPerSec:    float64(pktsPerOp) / (float64(scalarNs) / 1e9),
		BurstPktsPerSec:     float64(pktsPerOp) / (float64(burstNs) / 1e9),
		SpeedupRatio:        float64(scalarNs) / float64(burstNs),
		ScalarAllocsPerOp:   scalarAllocs,
		BurstAllocsPerOp:    burstAllocs,
		ScalarAllocsPerPkt:  float64(scalarAllocs) / pktsPerOp,
		BurstAllocsPerPkt:   float64(burstAllocs) / pktsPerOp,
		PktsPerOp:           pktsPerOp,
		BurstMinPktsPerSec:  2.0e6,
		BurstMaxAllocsPkt:   1.0,
		Reps:                reps,
		ForwardNsPerOp:      fwdNs,
		ForwardPktsPerSec:   float64(pktsPerOp) / (float64(fwdNs) / 1e9),
		ForwardAllocsPerOp:  fwdAllocs,
		ForwardAllocsPerPkt: float64(fwdAllocs) / pktsPerOp,
		ForwardMinPktsPerS:  4.0e6, // 2x the 2M pkts/s burst-pipeline floor
		ForwardMaxAllocsPkt: 1.0,
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile("BENCH_datapath.json", out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("scalar %.0f pkts/s (%.2f allocs/pkt, informational), burst %.0f pkts/s (%.2f allocs/pkt): %.2fx",
		res.ScalarPktsPerSec, res.ScalarAllocsPerPkt, res.BurstPktsPerSec, res.BurstAllocsPerPkt, res.SpeedupRatio)
	t.Logf("forwarding %.0f pkts/s (%.2f allocs/pkt)", res.ForwardPktsPerSec, res.ForwardAllocsPerPkt)
	if res.BurstPktsPerSec < res.BurstMinPktsPerSec {
		t.Errorf("A→B burst rate %.0f pkts/s below the %.0f floor; see BENCH_datapath.json", res.BurstPktsPerSec, res.BurstMinPktsPerSec)
	}
	if res.BurstAllocsPerPkt > res.BurstMaxAllocsPkt {
		t.Errorf("A→B burst allocates %.2f/pkt (ceiling %.1f); see BENCH_datapath.json", res.BurstAllocsPerPkt, res.BurstMaxAllocsPkt)
	}
	if res.ForwardPktsPerSec < res.ForwardMinPktsPerS {
		t.Errorf("forwarding rate %.0f pkts/s below the %.0f floor; see BENCH_datapath.json",
			res.ForwardPktsPerSec, res.ForwardMinPktsPerS)
	}
	if res.ForwardAllocsPerPkt > res.ForwardMaxAllocsPkt {
		t.Errorf("forwarding allocates %.2f/pkt (ceiling %.1f); see BENCH_datapath.json",
			res.ForwardAllocsPerPkt, res.ForwardMaxAllocsPkt)
	}
}
