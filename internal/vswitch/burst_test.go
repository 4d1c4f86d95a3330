package vswitch

import (
	"fmt"
	"reflect"
	"testing"

	"nezha/internal/packet"
	"nezha/internal/policy"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/tables"
)

// These tests pin that run length never changes an outcome. The same
// traffic enters once as batches through FromVMBurst, whose runs then
// cross the fabric as bursts and split into runs again at every
// HandleUnderlayBurst, and once packet by packet through FromVM, where
// every run at every hop is one packet long. Deliveries (order and
// latency), counters, drops, fabric totals, attribution and the
// policy decisions must be identical. Only the loop's event count may
// differ — that is what runs longer than one amortize.

// burstOp is one generated packet: direction, flow, flags, size, and
// the two deliberate misbehaviors (denied port, unrouted destination).
type burstOp struct {
	fromServer bool
	sport      uint16
	flags      packet.TCPFlags
	payload    int
	denyPort   bool // DstPort hits the ACL deny rule
	noRoute    bool // DstIP outside every route prefix
}

const burstDenyPort = 6666

func genBurstBatches(rng *sim.Rand, nBatches int) [][]burstOp {
	batches := make([][]burstOp, 0, nBatches)
	for b := 0; b < nBatches; b++ {
		fromServer := rng.Intn(3) == 0
		n := 1 + rng.Intn(8)
		// One batch in three is a bulk burst of one packet size. Equal
		// sizes cost equal cycles and equal wire time, so such a batch
		// leaves in shared completion waves and fabric bursts, and the
		// hops past the first receive runs longer than one.
		bulk := -1
		if rng.Intn(3) == 0 {
			bulk = rng.Intn(1200)
		}
		batch := make([]burstOp, 0, n)
		for i := 0; i < n; i++ {
			op := burstOp{
				fromServer: fromServer,
				sport:      uint16(2000 + rng.Intn(6)*10),
				payload:    bulk,
			}
			if bulk < 0 {
				op.payload = rng.Intn(1200)
			}
			switch rng.Intn(5) {
			case 0:
				op.flags = packet.FlagSYN
			case 1:
				op.flags = packet.FlagSYN | packet.FlagACK
			case 2:
				op.flags = packet.FlagFIN | packet.FlagACK
			default:
				op.flags = packet.FlagACK
			}
			switch rng.Intn(12) {
			case 0:
				op.denyPort = true
			case 1:
				op.noRoute = true
			}
			batch = append(batch, op)
		}
		batches = append(batches, batch)
	}
	return batches
}

func (op burstOp) build(w *world, id uint64, now sim.Time) *packet.Packet {
	ft := packet.FiveTuple{
		SrcIP: vmIP1, DstIP: vmIP2,
		SrcPort: op.sport, DstPort: 80, Proto: packet.ProtoTCP,
	}
	vnic := uint32(clientVNIC)
	if op.fromServer {
		ft = ft.Reverse()
		ft.SrcPort, ft.DstPort = 80, op.sport
		vnic = serverVNIC
	}
	if op.denyPort {
		ft.DstPort = burstDenyPort
	}
	if op.noRoute {
		ft.DstIP = packet.MakeIP(10, 0, 77, 1)
	}
	p := packet.New(id, vpcID, vnic, ft, packet.DirTX, op.flags, op.payload)
	p.SentAt = int64(now)
	return p
}

// burstOutcome is everything the scalar/burst runs must agree on.
type burstOutcome struct {
	log      []string // "<side>:<id>@<lat>" in delivery order
	statsA   Counters
	statsB   Counters
	statsFEs []Counters
	sends    uint64
	deliv    uint64
	lost     uint64
	bytes    uint64
	samples  []prof.Sample // full attribution drain, per-key totals
	// policyLog is a dry-run policy engine's decision log, driven from
	// the same profiler: the decision stream derives purely from drained
	// attribution windows, so scalar and burst runs must produce it
	// byte for byte.
	policyLog []string
	// fired counts loop events, the one thing run length may change;
	// diffOutcomes never compares it.
	fired uint64
}

// runBurstScenario drives the generated batches through a fresh world
// in either scalar or burst mode and snapshots the outcome.
func runBurstScenario(t *testing.T, batches [][]burstOp, burst, offload bool) burstOutcome {
	t.Helper()
	nFEs := 0
	if offload {
		nFEs = 2
	}
	w := newWorld(t, nFEs, nil)
	// Profile both runs: the drained attribution totals are part of the
	// scalar/burst contract — every charge site must fire identically.
	pr := prof.New()
	pr.SetClock(w.loop.Now)
	w.A.EnableProf(pr)
	w.B.EnableProf(pr)
	for _, f := range w.fes {
		f.EnableProf(pr)
	}
	var out burstOutcome
	w.A.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		out.log = append(out.log, fmt.Sprintf("A:%d@%d", p.ID, lat))
		p.Release()
	})
	w.B.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		out.log = append(out.log, fmt.Sprintf("B:%d@%d", p.ID, lat))
		p.Release()
	})

	withDeny := func(rs *tables.RuleSet) *tables.RuleSet {
		rs.ACL.Add(tables.ACLRule{
			Priority: 1,
			DstPorts: tables.PortRange{Lo: burstDenyPort, Hi: burstDenyPort},
			Verdict:  tables.VerdictDeny,
		})
		return rs
	}
	if err := w.A.AddVNIC(withDeny(clientRules()), false); err != nil {
		t.Fatal(err)
	}
	if err := w.B.AddVNIC(withDeny(serverRules()), false); err != nil {
		t.Fatal(err)
	}
	if offload {
		var feAddrs []packet.IPv4
		for _, f := range w.fes {
			if err := f.InstallFE(withDeny(serverRules()), addrB, false); err != nil {
				t.Fatal(err)
			}
			feAddrs = append(feAddrs, f.Addr())
		}
		if err := w.B.OffloadStart(serverVNIC, feAddrs); err != nil {
			t.Fatal(err)
		}
		w.gw.Set(serverVNIC, feAddrs...)
		if err := w.B.OffloadFinalize(serverVNIC); err != nil {
			t.Fatal(err)
		}
	}

	// A dry-run policy engine observes the run through windowed series
	// reads. Tiny capacities so the generated traffic crosses the
	// hysteresis bands, and SustainWindows 1 because the traffic is
	// front-loaded: the session caches warm inside the first window, so
	// the trend fit falls off a cliff right after it and a two-window
	// sustain would never arm. One hot window triggers the offload, the
	// silence after the batches drain triggers the fallback.
	eng := policy.New(policy.Config{
		Interval:       500 * sim.Microsecond,
		Windows:        4,
		Horizon:        sim.Millisecond,
		BECapacityHz:   2e6,
		FECapacityHz:   1e6,
		TargetUtil:     0.5,
		OffloadHigh:    0.5,
		FallbackLow:    0.1,
		MinFEs:         1,
		MaxFEs:         4,
		SustainWindows: 1,
		FlipCooldown:   5 * sim.Millisecond,
		ScaleCooldown:  2 * sim.Millisecond,
	})
	reader := prof.NewSeriesReader(pr)
	w.loop.Every(500*sim.Microsecond, func() {
		now := w.loop.Now()
		eng.Step(now, reader.Read(now), nil)
	})

	var id uint64 = 1 << 20 // private ID space, identical across runs
	for bi, batch := range batches {
		batch := batch
		at := sim.Time(bi+1) * 50 * sim.Microsecond
		w.loop.At(at, func() {
			ps := make([]*packet.Packet, 0, len(batch))
			for _, op := range batch {
				id++
				ps = append(ps, op.build(w, id, w.loop.Now()))
			}
			vs := w.A
			if batch[0].fromServer {
				vs = w.B
			}
			if burst {
				vs.FromVMBurst(ps)
			} else {
				for _, p := range ps {
					vs.FromVM(p)
				}
			}
		})
	}
	w.loop.Run(sim.Second)

	out.statsA, out.statsB = w.A.Stats, w.B.Stats
	for _, f := range w.fes {
		out.statsFEs = append(out.statsFEs, f.Stats)
	}
	out.sends, out.deliv, out.lost = w.fab.Sends, w.fab.Delivered, w.fab.Lost
	out.bytes = w.fab.BytesSent
	out.samples = pr.Samples()
	out.policyLog = append([]string(nil), eng.Log()...)
	out.fired = w.loop.Fired()
	return out
}

func diffOutcomes(t *testing.T, name string, scalar, burst burstOutcome) {
	t.Helper()
	if !reflect.DeepEqual(scalar.log, burst.log) {
		n := len(scalar.log)
		if len(burst.log) < n {
			n = len(burst.log)
		}
		for i := 0; i < n; i++ {
			if scalar.log[i] != burst.log[i] {
				t.Errorf("%s: delivery %d diverges: scalar %s, burst %s", name, i, scalar.log[i], burst.log[i])
				break
			}
		}
		t.Fatalf("%s: delivery logs diverge: scalar %d entries, burst %d", name, len(scalar.log), len(burst.log))
	}
	if scalar.statsA != burst.statsA {
		t.Errorf("%s: switch A counters diverge:\nscalar %+v\nburst  %+v", name, scalar.statsA, burst.statsA)
	}
	if scalar.statsB != burst.statsB {
		t.Errorf("%s: switch B counters diverge:\nscalar %+v\nburst  %+v", name, scalar.statsB, burst.statsB)
	}
	if !reflect.DeepEqual(scalar.statsFEs, burst.statsFEs) {
		t.Errorf("%s: FE counters diverge:\nscalar %+v\nburst  %+v", name, scalar.statsFEs, burst.statsFEs)
	}
	if scalar.sends != burst.sends || scalar.deliv != burst.deliv || scalar.lost != burst.lost || scalar.bytes != burst.bytes {
		t.Errorf("%s: fabric counters diverge: scalar sends=%d deliv=%d lost=%d bytes=%d, burst sends=%d deliv=%d lost=%d bytes=%d",
			name, scalar.sends, scalar.deliv, scalar.lost, scalar.bytes,
			burst.sends, burst.deliv, burst.lost, burst.bytes)
	}
	if !reflect.DeepEqual(scalar.samples, burst.samples) {
		n := len(scalar.samples)
		if len(burst.samples) < n {
			n = len(burst.samples)
		}
		for i := 0; i < n; i++ {
			if scalar.samples[i] != burst.samples[i] {
				t.Errorf("%s: attribution sample %d diverges:\nscalar %+v\nburst  %+v",
					name, i, scalar.samples[i], burst.samples[i])
			}
		}
		t.Fatalf("%s: attribution totals diverge: scalar %d samples, burst %d",
			name, len(scalar.samples), len(burst.samples))
	}
	if len(scalar.samples) == 0 {
		t.Fatalf("%s: profiler drained no samples — the differential proves nothing", name)
	}
	if !reflect.DeepEqual(scalar.policyLog, burst.policyLog) {
		t.Errorf("%s: policy decision logs diverge:\nscalar:\n%v\nburst:\n%v",
			name, scalar.policyLog, burst.policyLog)
	}
	if len(scalar.policyLog) == 0 {
		t.Fatalf("%s: the observing policy engine never decided — the decision-log differential proves nothing", name)
	}
}

// TestBurstMatchesScalarMonolithic drives random batches through two
// monolithic vNICs: local-TX runs at the sender, local-RX runs at the
// receiver.
func TestBurstMatchesScalarMonolithic(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := sim.NewRand(seed)
		batches := genBurstBatches(rng, 40)
		scalar := runBurstScenario(t, batches, false, false)
		burst := runBurstScenario(t, batches, true, false)
		diffOutcomes(t, fmt.Sprintf("mono/seed%d", seed), scalar, burst)
		if scalar.deliv == 0 {
			t.Fatalf("mono/seed%d: no traffic delivered — scenario proves nothing", seed)
		}
	}
}

// TestBurstMatchesScalarOffloaded repeats the differential run with
// the server vNIC offloaded to two FEs, adding the BE-TX, FE-TX, FE-RX
// and BE-RX roles. The batched world must fire fewer loop events than
// the per-packet one, or no run longer than one formed and the
// comparison proved nothing. (TestNezhaRunsBatch pins that the
// Nezha-typed roles batch.)
func TestBurstMatchesScalarOffloaded(t *testing.T) {
	for seed := int64(10); seed <= 15; seed++ {
		rng := sim.NewRand(seed)
		batches := genBurstBatches(rng, 40)
		scalar := runBurstScenario(t, batches, false, true)
		burst := runBurstScenario(t, batches, true, true)
		diffOutcomes(t, fmt.Sprintf("offload/seed%d", seed), scalar, burst)
		if scalar.deliv == 0 {
			t.Fatalf("offload/seed%d: no traffic delivered — scenario proves nothing", seed)
		}
		if burst.fired >= scalar.fired {
			t.Fatalf("offload/seed%d: batched world fired %d loop events, per-packet %d — no run grew past one", seed, burst.fired, scalar.fired)
		}
	}
}

// TestBurstSingletonFallsBackToScalar pins the degenerate cases: a
// one-packet burst is a run of one, and every packet of a burst into a
// crashed switch is dropped as crashed.
func TestBurstSingletonFallsBackToScalar(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	p := packet.New(1, vpcID, clientVNIC, tuple(3000), packet.DirTX, packet.FlagSYN, 0)
	p.SentAt = int64(w.loop.Now())
	w.A.FromVMBurst([]*packet.Packet{p})
	w.loop.Run(10 * sim.Millisecond)
	if len(w.deliveredB) != 1 {
		t.Fatalf("singleton burst: want 1 delivery at B, got %d", len(w.deliveredB))
	}
	if got := w.A.Stats.FromVM; got != 1 {
		t.Fatalf("singleton burst: FromVM = %d, want 1", got)
	}

	w.A.Crash()
	var ps []*packet.Packet
	for i := 0; i < 4; i++ {
		q := packet.New(uint64(10+i), vpcID, clientVNIC, tuple(3001), packet.DirTX, packet.FlagACK, 0)
		ps = append(ps, q)
	}
	w.A.FromVMBurst(ps)
	if got := w.A.Stats.Drops[DropCrashed]; got != 4 {
		t.Fatalf("crashed burst: DropCrashed = %d, want 4", got)
	}
}
