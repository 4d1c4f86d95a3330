package fabric

import (
	"slices"
	"testing"
	"testing/quick"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

func ip(a, b, c, d byte) packet.IPv4 { return packet.MakeIP(a, b, c, d) }

func mkPkt(id uint64) *packet.Packet {
	return packet.New(id, 1, 1, packet.FiveTuple{
		SrcIP: ip(10, 0, 0, 1), DstIP: ip(10, 0, 0, 2),
		SrcPort: 1, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.DirTX, 0, 100)
}

// SameToR reports whether two servers are registered under one ToR.
func (f *Fabric) SameToR(a, b packet.IPv4) bool {
	na, nb := f.node(a), f.node(b)
	return na != nil && nb != nil && na.tor == nb.tor
}

// Latency is the one-way delay between two servers for a packet of
// size bytes, with both ends resolved by address: the reference the
// tests hold Send's delivery times to.
func (f *Fabric) Latency(from, to packet.IPv4, size int) sim.Time {
	prop := LatencyInterToR
	if f.SameToR(from, to) {
		prop = LatencySameToR
	}
	return prop + f.serTime(size)
}

func TestDelivery(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	var got *packet.Packet
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { got = p })
	p := mkPkt(7)
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), p)
	loop.RunAll()
	if got == nil || got.ID != 7 {
		t.Fatal("packet not delivered")
	}
	if got.Hops != 1 {
		t.Fatalf("hops = %d", got.Hops)
	}
	if f.Delivered != 1 || f.Lost != 0 {
		t.Fatalf("counters: %d/%d", f.Delivered, f.Lost)
	}
}

func TestLatencySameVsInterToR(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Register(ip(1, 0, 0, 2), 0, nil)
	f.Register(ip(1, 0, 0, 3), 1, nil)
	same := f.Latency(ip(1, 0, 0, 1), ip(1, 0, 0, 2), 0)
	inter := f.Latency(ip(1, 0, 0, 1), ip(1, 0, 0, 3), 0)
	if same != LatencySameToR {
		t.Fatalf("same-ToR latency = %v", same)
	}
	if inter != LatencyInterToR {
		t.Fatalf("inter-ToR latency = %v", inter)
	}
	if inter <= same {
		t.Fatal("inter-ToR should cost more")
	}
}

func TestLatencyIncludesSerialization(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Register(ip(1, 0, 0, 2), 0, nil)
	small := f.Latency(ip(1, 0, 0, 1), ip(1, 0, 0, 2), 64)
	big := f.Latency(ip(1, 0, 0, 1), ip(1, 0, 0, 2), 9000)
	if big <= small {
		t.Fatal("larger packets should take longer on the wire")
	}
}

// TestDeliveryTiming holds Send's delivery time to Latency from a
// same-ToR, an inter-ToR and an unregistered source; the last counts
// as inter-ToR.
func TestDeliveryTiming(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Register(ip(1, 0, 0, 3), 1, nil)
	var at sim.Time
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { at = loop.Now() })
	for _, from := range []packet.IPv4{ip(1, 0, 0, 1), ip(1, 0, 0, 3), ip(9, 9, 9, 9)} {
		p := mkPkt(1)
		sent := loop.Now()
		want := f.Latency(from, ip(1, 0, 0, 2), p.SizeBytes)
		f.Send(from, ip(1, 0, 0, 2), p)
		loop.RunAll()
		if at-sent != want {
			t.Fatalf("from %v: delivered after %v, want %v", from, at-sent, want)
		}
	}
	if want := f.Latency(ip(9, 9, 9, 9), ip(1, 0, 0, 2), 0); want != LatencyInterToR {
		t.Fatalf("unregistered source: latency %v, want inter-ToR %v", want, LatencyInterToR)
	}
}

func TestSendToUnknownLost(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Send(ip(1, 0, 0, 1), ip(9, 9, 9, 9), mkPkt(1))
	loop.RunAll()
	if f.Lost != 1 {
		t.Fatalf("lost = %d", f.Lost)
	}
}

func TestCrashInFlight(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	delivered := false
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { delivered = true })
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), mkPkt(1))
	f.Unregister(ip(1, 0, 0, 2)) // crash while packet in flight
	loop.RunAll()
	if delivered {
		t.Fatal("packet delivered to crashed node")
	}
	if f.Lost != 1 {
		t.Fatalf("lost = %d", f.Lost)
	}
}

// A frame in flight toward a node that is replaced — re-registered in
// place, or crashed and brought back — before it lands is lost: neither
// the old handler nor the new one sees it. Holds for the per-packet
// task, the burst task and the wire-mode closure alike.
func TestReRegisterInFlight(t *testing.T) {
	src, dst := ip(1, 0, 0, 1), ip(1, 0, 0, 2)
	for _, tc := range []struct {
		name  string
		wire  bool
		burst bool
		crash bool
	}{
		{name: "send"},
		{name: "send-crash-first", crash: true},
		{name: "burst", burst: true},
		{name: "wire", wire: true},
	} {
		loop := sim.NewLoop(1)
		f := New(loop)
		f.SetWireMode(tc.wire)
		f.Register(src, 0, nil)
		oldGot, newGot := 0, 0
		f.Register(dst, 0, func(*packet.Packet) { oldGot++ })
		if tc.burst {
			f.SendBurst(src, dst, []*packet.Packet{mkPkt(1), mkPkt(2)})
		} else {
			f.Send(src, dst, mkPkt(1))
		}
		sent := f.Sends
		if tc.crash {
			f.Unregister(dst)
		}
		f.Register(dst, 0, func(*packet.Packet) { newGot++ })
		loop.RunAll()
		if oldGot != 0 || newGot != 0 {
			t.Fatalf("%s: in-flight frame delivered across a re-register: old=%d new=%d", tc.name, oldGot, newGot)
		}
		if f.Lost != sent || f.InFlight() != 0 {
			t.Fatalf("%s: lost=%d in-flight=%d, want %d and 0", tc.name, f.Lost, f.InFlight(), sent)
		}
		// The replacement receives what is sent after it registered.
		f.Send(src, dst, mkPkt(3))
		loop.RunAll()
		if newGot != 1 {
			t.Fatalf("%s: replacement node got %d packets, want 1", tc.name, newGot)
		}
	}
}

func TestReRegisterReplacesHandler(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	a, b := 0, 0
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { a++ })
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { b++ })
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), mkPkt(1))
	loop.RunAll()
	if a != 0 || b != 1 {
		t.Fatalf("handler not replaced: a=%d b=%d", a, b)
	}
}

func TestSetHandler(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	if err := f.SetHandler(ip(1, 1, 1, 1), nil); err == nil {
		t.Fatal("SetHandler on unknown node should fail")
	}
	f.Register(ip(1, 0, 0, 2), 0, nil)
	hit := false
	if err := f.SetHandler(ip(1, 0, 0, 2), func(p *packet.Packet) { hit = true }); err != nil {
		t.Fatal(err)
	}
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), mkPkt(1))
	loop.RunAll()
	if !hit {
		t.Fatal("swapped handler not invoked")
	}
}

// TestToROf: servers share a ToR exactly when they registered under
// the same one; an unknown server shares none.
func TestToROf(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 42, nil)
	f.Register(ip(1, 0, 0, 2), 42, nil)
	f.Register(ip(1, 0, 1, 1), 7, nil)
	if !f.SameToR(ip(1, 0, 0, 1), ip(1, 0, 0, 2)) {
		t.Fatal("servers under ToR 42 should share it")
	}
	if f.SameToR(ip(1, 0, 0, 1), ip(1, 0, 1, 1)) {
		t.Fatal("servers under different ToRs should not")
	}
	if f.SameToR(ip(1, 0, 0, 1), ip(9, 9, 9, 9)) {
		t.Fatal("unknown node should share no ToR")
	}
}

func TestGatewayLearner(t *testing.T) {
	loop := sim.NewLoop(1)
	gw := NewGateway(loop)
	gw.Set(100, ip(1, 0, 0, 1))
	l := NewLearner(loop, gw)

	addrs, ok := l.Lookup(100)
	if !ok || len(addrs) != 1 || addrs[0] != ip(1, 0, 0, 1) {
		t.Fatal("initial learn failed")
	}

	// Move the vNIC; the learner must serve the stale entry until the
	// learning interval elapses.
	gw.Set(100, ip(2, 0, 0, 2))
	addrs, _ = l.Lookup(100)
	if addrs[0] != ip(1, 0, 0, 1) {
		t.Fatal("learner refreshed too early")
	}

	loop.Schedule(LearnInterval+1, func() {
		addrs, _ := l.Lookup(100)
		if addrs[0] != ip(2, 0, 0, 2) {
			t.Error("learner did not refresh after interval")
		}
	})
	loop.RunAll()
}

func TestLearnerNegativeCaching(t *testing.T) {
	loop := sim.NewLoop(1)
	gw := NewGateway(loop)
	l := NewLearner(loop, gw)
	if _, ok := l.Lookup(5); ok {
		t.Fatal("unknown vnic resolved")
	}
	// Install after the negative lookup: still cached negative.
	gw.Set(5, ip(1, 1, 1, 1))
	if _, ok := l.Lookup(5); ok {
		t.Fatal("negative cache not honored")
	}
	// The negative entry expires like any other after LearnInterval.
	loop.Schedule(LearnInterval, func() {
		if _, ok := l.Lookup(5); !ok {
			t.Error("negative entry outlived the learning interval")
		}
	})
	loop.RunAll()
}

func TestLearnerPickByHash(t *testing.T) {
	loop := sim.NewLoop(1)
	gw := NewGateway(loop)
	gw.Set(100, ip(1, 0, 0, 1), ip(1, 0, 0, 2), ip(1, 0, 0, 3), ip(1, 0, 0, 4))
	l := NewLearner(loop, gw)
	seen := make(map[packet.IPv4]bool)
	for h := uint64(0); h < 100; h++ {
		a, ok := l.Pick(100, h)
		if !ok {
			t.Fatal("pick failed")
		}
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Fatalf("pick used %d of 4 addresses", len(seen))
	}
	a1, _ := l.Pick(100, 42)
	a2, _ := l.Pick(100, 42)
	if a1 != a2 {
		t.Fatal("pick not deterministic for same hash")
	}
	if _, ok := l.Pick(999, 1); ok {
		t.Fatal("pick on unknown vnic should fail")
	}
}

// TestGatewayAddRemove: scale-out and scale-in reach the gateway as
// whole-list pushes at rising epochs; a push older than the installed
// list is refused and changes nothing.
func TestGatewayAddRemove(t *testing.T) {
	loop := sim.NewLoop(1)
	gw := NewGateway(loop)
	gw.Set(1, ip(1, 1, 1, 1), ip(2, 2, 2, 2))
	e := gw.Epoch(1)
	if err := gw.SetEpoch(1, e+1, ip(1, 1, 1, 1), ip(2, 2, 2, 2), ip(3, 3, 3, 3)); err != nil {
		t.Fatal(err)
	}
	addrs, _ := gw.Lookup(1)
	if len(addrs) != 3 {
		t.Fatalf("after scale-out: %v", addrs)
	}
	if err := gw.SetEpoch(1, e+2, ip(1, 1, 1, 1), ip(3, 3, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetEpoch(1, e+1, ip(2, 2, 2, 2)); err != ErrStaleEpoch {
		t.Fatalf("stale push: %v, want ErrStaleEpoch", err)
	}
	addrs, _ = gw.Lookup(1)
	if len(addrs) != 2 || addrs[0] != ip(1, 1, 1, 1) || addrs[1] != ip(3, 3, 3, 3) {
		t.Fatalf("after scale-in: %v", addrs)
	}
}

// TestGatewayDelete: an empty push withdraws every location but keeps
// the entry's epoch, so a delayed older push cannot bring them back.
func TestGatewayDelete(t *testing.T) {
	loop := sim.NewLoop(1)
	gw := NewGateway(loop)
	gw.Set(1, ip(1, 1, 1, 1))
	if err := gw.SetEpoch(1, 5); err != nil {
		t.Fatal(err)
	}
	l := NewLearner(loop, gw)
	if _, ok := l.Pick(1, 42); ok {
		t.Fatal("withdrawn vNIC still resolves")
	}
	if err := gw.SetEpoch(1, 4, ip(1, 1, 1, 1)); err != ErrStaleEpoch {
		t.Fatalf("stale push: %v, want ErrStaleEpoch", err)
	}
	if addrs, _ := gw.Lookup(1); len(addrs) != 0 || gw.Epoch(1) != 5 {
		t.Fatalf("stale push resurrected %v at epoch %d", addrs, gw.Epoch(1))
	}
}

func TestGatewaySetCopiesSlice(t *testing.T) {
	loop := sim.NewLoop(1)
	gw := NewGateway(loop)
	addrs := []packet.IPv4{ip(1, 1, 1, 1)}
	gw.Set(1, addrs...)
	addrs[0] = ip(9, 9, 9, 9)
	got, _ := gw.Lookup(1)
	if got[0] != ip(1, 1, 1, 1) {
		t.Fatal("gateway aliased caller slice")
	}
}

func TestNodesList(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Register(ip(1, 0, 0, 2), 1, nil)
	if len(f.Nodes()) != 2 {
		t.Fatal("nodes list wrong")
	}
}

func TestPartitionBlocksBothWays(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	got := 0
	f.Register(ip(1, 0, 0, 1), 0, func(p *packet.Packet) { got++ })
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { got++ })
	f.Partition(ip(1, 0, 0, 1), ip(1, 0, 0, 2))
	if !f.Partitioned(ip(1, 0, 0, 2), ip(1, 0, 0, 1)) {
		t.Fatal("partition not symmetric")
	}
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), mkPkt(1))
	f.Send(ip(1, 0, 0, 2), ip(1, 0, 0, 1), mkPkt(2))
	loop.RunAll()
	if got != 0 || f.Lost != 2 {
		t.Fatalf("partition leaked: got=%d lost=%d", got, f.Lost)
	}
	f.Heal(ip(1, 0, 0, 2), ip(1, 0, 0, 1))
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), mkPkt(3))
	loop.RunAll()
	if got != 1 {
		t.Fatal("heal did not restore connectivity")
	}
}

func TestPartitionLeavesOtherPathsAlone(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	got := 0
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Register(ip(1, 0, 0, 2), 0, nil)
	f.Register(ip(1, 0, 0, 3), 0, func(p *packet.Packet) { got++ })
	f.Partition(ip(1, 0, 0, 1), ip(1, 0, 0, 2))
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 3), mkPkt(1))
	loop.RunAll()
	if got != 1 {
		t.Fatal("unrelated path affected")
	}
}

func TestWireModeRoundtrips(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.SetWireMode(true)
	var got *packet.Packet
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { got = p })
	p := mkPkt(9)
	p.AttachNezha(&packet.NezhaHeader{
		Type: packet.NezhaCarryState, VNIC: 5, StateBlob: []byte{1, 2, 3},
	})
	p.Encap(ip(1, 0, 0, 1), ip(1, 0, 0, 2))
	orig := p.Clone()
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), p)
	loop.RunAll()
	if got == nil {
		t.Fatal("not delivered")
	}
	if got == p {
		t.Fatal("wire mode must deliver a decoded copy, not the pointer")
	}
	if got.ID != orig.ID || got.Nezha == nil || got.Nezha.VNIC != 5 || got.Nezha.StateBlob[1] != 2 {
		t.Fatalf("wire roundtrip lost data: %+v", got)
	}
	if got.Hops != orig.Hops+1 {
		t.Fatalf("hops = %d", got.Hops)
	}
}

// Property: any sequence of whole-list pushes, some at stale epochs,
// leaves each vNIC's list equal to the newest accepted push, and its
// epoch never moves backwards.
func TestQuickGatewayConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		loop := sim.NewLoop(3)
		gw := NewGateway(loop)
		model := make(map[uint32][]packet.IPv4)
		for _, op := range ops {
			vnic := uint32(op % 3)
			var list []packet.IPv4
			for b := 0; b < 7; b++ {
				if op>>(3+b)&1 != 0 {
					list = append(list, ip(1, 0, 0, byte(b)+1))
				}
			}
			before := gw.Epoch(vnic)
			epoch := before + 1
			if op&4 != 0 && before > 1 {
				epoch = before - 1 // a delayed push
			}
			err := gw.SetEpoch(vnic, epoch, list...)
			switch {
			case epoch < before:
				if err != ErrStaleEpoch {
					return false
				}
			case err != nil:
				return false
			default:
				model[vnic] = list
			}
			if gw.Epoch(vnic) < before {
				return false
			}
			got, _ := gw.Lookup(vnic)
			if !slices.Equal(got, model[vnic]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRaisedMidFlightKillsPacket(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	delivered := false
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { delivered = true })

	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), mkPkt(1))
	if f.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", f.InFlight())
	}
	// Partition lands while the frame is on the wire, before the
	// delivery event fires.
	loop.Schedule(1, func() { f.Partition(ip(1, 0, 0, 1), ip(1, 0, 0, 2)) })
	loop.RunAll()

	if delivered {
		t.Fatal("packet crossed a partition raised mid-flight")
	}
	if f.Lost != 1 || f.Delivered != 0 {
		t.Fatalf("counters: delivered=%d lost=%d", f.Delivered, f.Lost)
	}
	if f.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain", f.InFlight())
	}
}

func TestHealMidFlightLetsPacketThrough(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	delivered := false
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { delivered = true })

	p := mkPkt(1)
	lat := f.Latency(ip(1, 0, 0, 1), ip(1, 0, 0, 2), p.SizeBytes)
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), p)
	// A partition blips on and off entirely within the flight time:
	// only the state at delivery decides the packet's fate.
	loop.Schedule(1, func() { f.Partition(ip(1, 0, 0, 1), ip(1, 0, 0, 2)) })
	loop.Schedule(lat-1, func() { f.Heal(ip(1, 0, 0, 1), ip(1, 0, 0, 2)) })
	loop.RunAll()

	if !delivered {
		t.Fatal("packet dropped although the partition healed before delivery")
	}
	if f.Delivered != 1 || f.Lost != 0 {
		t.Fatalf("counters: delivered=%d lost=%d", f.Delivered, f.Lost)
	}
}

func TestFaultInjectorDropAndJitter(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	var deliveredAt []sim.Time
	f.Register(ip(1, 0, 0, 2), 0, func(p *packet.Packet) { deliveredAt = append(deliveredAt, loop.Now()) })

	const extra = 777 * sim.Microsecond
	n := 0
	f.SetFaultInjector(func(from, to packet.IPv4, p *packet.Packet) FaultVerdict {
		n++
		if n == 1 {
			return FaultVerdict{Drop: true}
		}
		return FaultVerdict{Jitter: extra}
	})

	p := mkPkt(1)
	base := f.Latency(ip(1, 0, 0, 1), ip(1, 0, 0, 2), p.SizeBytes)
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), p)
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), mkPkt(2))
	loop.RunAll()

	if f.ChaosLost != 1 || f.Delivered != 1 {
		t.Fatalf("counters: chaos-lost=%d delivered=%d", f.ChaosLost, f.Delivered)
	}
	if len(deliveredAt) != 1 || deliveredAt[0] != base+extra {
		t.Fatalf("jittered delivery at %v, want %v", deliveredAt, base+extra)
	}
	// The ledger balances with the chaos drop accounted.
	if f.Sends != f.Delivered+f.Lost+f.ChaosLost+f.InFlight() {
		t.Fatal("fabric ledger does not balance")
	}
}

func TestSkipAccountingBreaksLedger(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	f.Register(ip(1, 0, 0, 1), 0, nil)
	f.Register(ip(1, 0, 0, 2), 0, nil)
	f.SetFaultInjector(func(from, to packet.IPv4, p *packet.Packet) FaultVerdict {
		return FaultVerdict{Drop: true, SkipAccounting: true}
	})
	f.Send(ip(1, 0, 0, 1), ip(1, 0, 0, 2), mkPkt(1))
	loop.RunAll()
	// SkipAccounting exists to deliberately break conservation so the
	// chaos checker's negative tests have a controlled bug to catch.
	if got := f.Delivered + f.Lost + f.ChaosLost + f.InFlight(); got == f.Sends {
		t.Fatal("SkipAccounting drop should leave the ledger unbalanced")
	}
}

// Nodes returns the registered addresses in index order.
func (f *Fabric) Nodes() []packet.IPv4 {
	out := make([]packet.IPv4, 0, f.nodes.Len())
	f.nodes.Each(func(n *node) { out = append(out, n.addr) })
	return out
}
