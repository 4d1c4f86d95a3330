package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

// referenceDup is the no-duplicate-delivery set as first written: a map
// holding every delivered packet ID. It is the oracle the paged bitset
// in invariants.go is compared against.
type referenceDup struct {
	seen map[uint64]struct{}
	err  error
}

func (r *referenceDup) deliver(id uint64, vnic uint32, at packet.IPv4) {
	if _, dup := r.seen[id]; dup {
		if r.err == nil {
			r.err = fmt.Errorf("packet id=%d (vNIC %d) delivered twice, second copy at %v", id, vnic, at)
		}
		return
	}
	r.seen[id] = struct{}{}
}

// dupDifferential feeds every VM delivery to the registered
// no-duplicate-delivery invariant and to the reference, and breaks when
// their verdicts differ.
type dupDifferential struct {
	impl       *dupDelivery
	ref        *referenceDup
	deliveries uint64
}

// registerDupDifferential is a runCampaign hook. A switch has one
// delivery-observer slot, so it takes the slot over and hands each
// delivery to the registered invariant (which therefore keeps judging
// the campaign) as well as to the reference.
func registerDupDifferential(diff *dupDifferential) func(*Engine) {
	return func(e *Engine) {
		for _, inv := range e.invariants {
			if d, ok := inv.(*dupDelivery); ok {
				diff.impl = d
			}
		}
		diff.ref = &referenceDup{seen: make(map[uint64]struct{})}
		for _, vs := range e.sys.Switches {
			vs.SetDeliveryObserver(func(vnic uint32, p *packet.Packet, _ sim.Time) {
				diff.deliveries++
				diff.impl.deliver(p.ID, vnic, vs.Addr())
				diff.ref.deliver(p.ID, vnic, vs.Addr())
			})
		}
		e.Register(diff)
	}
}

func (d *dupDifferential) Name() string { return "dup-delivery-differential" }

func (d *dupDifferential) Check(now sim.Time) error {
	if want, got := d.ref.err, d.impl.Check(now); fmt.Sprint(want) != fmt.Sprint(got) {
		return fmt.Errorf("reference says %v, paged set says %v", want, got)
	}
	return nil
}

// TestDupDeliveryMatchesReferenceOnSoakSeeds runs a few soak campaigns
// with the reference set watching every delivery; the paged set must
// reach the same verdict at every sweep.
func TestDupDeliveryMatchesReferenceOnSoakSeeds(t *testing.T) {
	for _, cfg := range []CampaignConfig{{Seed: 1}, {Seed: 2}, {Seed: 3, MidPushKill: true}} {
		diff := &dupDifferential{}
		rep, err := runCampaign(cfg, registerDupDifferential(diff))
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		if diff.impl == nil {
			t.Fatal("no no-duplicate-delivery invariant registered")
		}
		if diff.deliveries == 0 {
			t.Fatalf("seed %d: no delivery observed; the differential compared nothing", cfg.Seed)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %v", cfg.Seed, v)
		}
	}
}

// TestDupDeliveryMatchesReferenceRandom drives both sets with random
// IDs clustered on page edges, repeats included, comparing verdicts
// after every delivery.
func TestDupDeliveryMatchesReferenceRandom(t *testing.T) {
	edges := []uint64{0, 63, 64, 4095, 4096, 8191, 1 << 63, 1<<63 - 1, math.MaxUint64}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		impl := NoDuplicateDelivery(System{}).(*dupDelivery)
		ref := &referenceDup{seen: make(map[uint64]struct{})}
		for i := 0; i < 2000; i++ {
			id := edges[rng.Intn(len(edges))] + uint64(rng.Intn(3)) - 1
			if rng.Intn(2) == 0 {
				id = rng.Uint64() >> uint(rng.Intn(64))
			}
			at := packet.IPv4(rng.Intn(4))
			impl.deliver(id, 7, at)
			ref.deliver(id, 7, at)
			if got, want := impl.Check(0), ref.err; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d delivery %d (id %d): paged set says %v, reference %v", seed, i, id, got, want)
			}
		}
		if ref.err == nil {
			t.Fatalf("seed %d: no duplicate drawn; the comparison never saw an error", seed)
		}
	}
}

// TestNoDuplicateDeliveryPositiveControl delivers real packets through
// two switches' delivery paths: IDs on page and word edges each once
// (no aliasing between them), then one of them a second time at the
// other switch, which is the error; a later duplicate does not replace
// it.
func TestNoDuplicateDeliveryPositiveControl(t *testing.T) {
	const vpc, clientVNIC, serverVNIC = 7, 1, 2
	loop := sim.NewLoop(1)
	fab := fabric.New(loop)
	gw := fabric.NewGateway(loop)
	a := vswitch.New(loop, fab, gw, vswitch.Config{Addr: packet.MakeIP(192, 168, 0, 1)})
	b := vswitch.New(loop, fab, gw, vswitch.Config{Addr: packet.MakeIP(192, 168, 0, 2)})
	clientIP, serverIP := packet.MakeIP(10, 0, 1, 1), packet.MakeIP(10, 0, 2, 1)
	crs := tables.NewRuleSet(clientVNIC, vpc)
	crs.Route.Add(tables.MakePrefix(serverIP, 24), packet.IPv4(serverVNIC))
	srs := tables.NewRuleSet(serverVNIC, vpc)
	srs.Route.Add(tables.MakePrefix(clientIP, 24), packet.IPv4(clientVNIC))
	if err := a.AddVNIC(crs, false); err != nil {
		t.Fatal(err)
	}
	if err := b.AddVNIC(srs, false); err != nil {
		t.Fatal(err)
	}
	gw.Set(clientVNIC, a.Addr())
	gw.Set(serverVNIC, b.Addr())
	inv := NoDuplicateDelivery(System{Switches: []*vswitch.VSwitch{a, b}})

	flow := func(sport uint16) packet.FiveTuple {
		return packet.FiveTuple{SrcIP: clientIP, DstIP: serverIP, SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP}
	}
	toServer := func(id uint64, sport uint16) { // delivered at b
		a.FromVM(packet.New(id, vpc, clientVNIC, flow(sport), packet.DirTX, packet.FlagSYN, 100))
		loop.RunAll()
	}
	toClient := func(id uint64, sport uint16) { // delivered at a
		b.FromVM(packet.New(id, vpc, serverVNIC, flow(sport).Reverse(), packet.DirTX, packet.FlagSYN|packet.FlagACK, 100))
		loop.RunAll()
	}

	ids := []uint64{0, 4095, 4096, 1 << 63, math.MaxUint64}
	for i, id := range ids {
		toServer(id, uint16(1000+i))
		if err := inv.Check(loop.Now()); err != nil {
			t.Fatalf("first delivery of id %d flagged: %v", id, err)
		}
	}
	if b.Stats.Delivered != uint64(len(ids)) {
		t.Fatalf("b delivered %d packets, want %d (drops a=%v b=%v)", b.Stats.Delivered, len(ids), a.Stats.Drops, b.Stats.Drops)
	}

	toClient(4096, 1002)
	if a.Stats.Delivered != 1 {
		t.Fatalf("a delivered %d packets, want 1 (drops a=%v b=%v)", a.Stats.Delivered, a.Stats.Drops, b.Stats.Drops)
	}
	want := fmt.Sprintf("packet id=4096 (vNIC %d) delivered twice, second copy at %v", clientVNIC, a.Addr())
	if err := inv.Check(loop.Now()); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
	toClient(math.MaxUint64, 1004) // a second duplicate: the first error stands
	if a.Stats.Delivered != 2 {
		t.Fatalf("a delivered %d packets, want 2", a.Stats.Delivered)
	}
	if err := inv.Check(loop.Now()); err == nil || err.Error() != want {
		t.Fatalf("after a second duplicate got %v, want the first error %q", err, want)
	}
}
