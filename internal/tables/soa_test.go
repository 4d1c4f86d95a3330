package tables

import (
	"math/rand"
	"reflect"
	"testing"

	"nezha/internal/packet"
)

// randRuleSet derives a rule set from a seeded PRNG. Small address and
// port spaces force collisions so prefixes, ranges, and defaults all
// get exercised.
func randRuleSet(rng *rand.Rand) *RuleSet {
	rs := NewRuleSet(uint32(1+rng.Intn(8)), uint32(1+rng.Intn(100)))
	if rng.Intn(2) == 0 {
		rs.ACL.Default = VerdictDeny
	}
	randIP := func() packet.IPv4 {
		return packet.IPv4(0x0a000000 | uint32(rng.Intn(4))<<8 | uint32(rng.Intn(16)))
	}
	randPrefix := func() Prefix {
		l := uint8(rng.Intn(5) * 8) // 0,8,16,24,32
		return Prefix{IP: randIP() & mask(l), Len: l}
	}
	randRange := func() PortRange {
		switch rng.Intn(4) {
		case 0:
			return PortRange{}
		case 1:
			lo := uint16(rng.Intn(2000))
			return PortRange{Lo: lo, Hi: lo + uint16(rng.Intn(2000))}
		case 2:
			lo := uint16(rng.Intn(40000))
			return PortRange{Lo: lo, Hi: lo + uint16(rng.Intn(2000))}
		default:
			return PortRange{Lo: 0, Hi: uint16(rng.Intn(4000))}
		}
	}
	// One ACL in three is long (20-100 rules, the Table A1 and Fig 9
	// shape) with dense priority collisions, so ties must keep
	// insertion order; its dst prefixes also run /8-/32 over the whole
	// address space, not only the small collision space.
	nACL, prios := rng.Intn(17), 10
	if rng.Intn(3) == 0 {
		nACL, prios = 20+rng.Intn(81), 50
	}
	for i := 0; i < nACL; i++ {
		dst := randPrefix()
		if rng.Intn(3) == 0 {
			dst = MakePrefix(packet.IPv4(rng.Uint32()), uint8(8+rng.Intn(25)))
		}
		rs.ACL.Add(ACLRule{
			Priority: rng.Intn(prios),
			Src:      randPrefix(),
			Dst:      dst,
			SrcPorts: randRange(),
			DstPorts: randRange(),
			Proto:    packet.Proto(rng.Intn(3) * 6), // 0, TCP(6), 12
			Verdict:  Verdict(1 + rng.Intn(2)),
		})
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		rs.Route.Add(randPrefix(), packet.IPv4(1+rng.Intn(16)))
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		rs.VXLAN.Add(randPrefix(), uint32(100+rng.Intn(20)))
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		rs.QoS.SetClass(uint8(rng.Intn(4)), uint64(rng.Intn(1e6)))
		rs.QoS.MapPort(uint16(rng.Intn(4000)), uint8(rng.Intn(4)))
	}
	for i, n := 0, rng.Intn(18); i < n; i++ {
		rs.VNICSrv.Set(uint32(1+rng.Intn(16)), randIP())
	}
	if rng.Intn(2) == 0 {
		rs.EnableAdvanced()
		for i, n := 0, rng.Intn(4); i < n; i++ {
			rs.NAT.Add(NATEntry{Orig: randPrefix(), XlatIP: randIP(), XlatPort: uint16(rng.Intn(4000))})
			rs.Policy.Add(randPrefix())
			rs.Mirror.Add(randPrefix())
			rs.FlowLog.Add(randPrefix())
			rs.Stats.Add(randPrefix(), StatsPolicy(rng.Intn(16)))
		}
	}
	rs.Bump()
	return rs
}

// randTuple draws mostly from the small collision space; one tuple in
// four spans the full address and port range.
func randTuple(rng *rand.Rand) packet.FiveTuple {
	if rng.Intn(4) == 0 {
		return packet.FiveTuple{
			SrcIP: packet.IPv4(rng.Uint32()), DstIP: packet.IPv4(rng.Uint32()),
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: packet.ProtoTCP,
		}
	}
	return packet.FiveTuple{
		SrcIP:   packet.IPv4(0x0a000000 | uint32(rng.Intn(4))<<8 | uint32(rng.Intn(16))),
		DstIP:   packet.IPv4(0x0a000000 | uint32(rng.Intn(4))<<8 | uint32(rng.Intn(16))),
		SrcPort: uint16(rng.Intn(4000)),
		DstPort: uint16(rng.Intn(4000)),
		Proto:   packet.Proto(rng.Intn(3) * 6),
	}
}

// checkEquivalence asserts the compiled walk, in both its value and
// caller-owned-result forms, matches the reference walk for every
// tuple. Every reference result is taken before the first compiled
// lookup, which sorts the ACL in place: the reference then sees the
// rules in insertion order.
func checkEquivalence(t testing.TB, rs *RuleSet, tuples []packet.FiveTuple) {
	t.Helper()
	want := make([]LookupResult, len(tuples))
	for i, ft := range tuples {
		want[i] = rs.lookupReference(ft)
	}
	var into LookupResult
	for i, ft := range tuples {
		if got := rs.Lookup(ft); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("Lookup(%+v) diverged from reference:\n got  %+v\n want %+v", ft, got, want[i])
		}
		rs.LookupInto(ft, &into)
		if !reflect.DeepEqual(into, want[i]) {
			t.Fatalf("LookupInto(%+v) diverged from reference:\n got  %+v\n want %+v", ft, into, want[i])
		}
	}
}

// TestSoAEquivalence pins the compiled struct-of-arrays walk to the
// reference interpretive walk across many random rule sets, including
// post-Bump recompilation.
func TestSoAEquivalence(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := randRuleSet(rng)
		tuples := make([]packet.FiveTuple, 32)
		for i := range tuples {
			tuples[i] = randTuple(rng)
		}
		checkEquivalence(t, rs, tuples)

		// Mutate and Bump: the compiled form must rebuild.
		rs.ACL.Add(ACLRule{Priority: -1, Verdict: VerdictDeny, DstPorts: PortRange{Lo: 1, Hi: 9}})
		rs.Route.Add(Prefix{IP: 0x0a000000, Len: 8}, 3)
		rs.Bump()
		checkEquivalence(t, rs, tuples)
	}
}

// TestSoAEmptyRuleSet covers the all-empty edge (every probe table at
// minimum size, default verdicts only).
func TestSoAEmptyRuleSet(t *testing.T) {
	rs := NewRuleSet(1, 7)
	checkEquivalence(t, rs, []packet.FiveTuple{{}, {DstIP: 0x0a000001, DstPort: 80, Proto: packet.ProtoTCP}})
}

// FuzzSoAEquivalence: on arbitrary (seed-derived) rule sets, long
// ACLs included, and arbitrary tuples, the compiled SoA walk must be
// bit-identical to the interpretive reference walk.
func FuzzSoAEquivalence(f *testing.F) {
	f.Add(int64(1), uint32(0x0a000001), uint32(0x0a000102), uint16(80), uint16(443), uint8(6))
	f.Add(int64(99), uint32(0), uint32(0xffffffff), uint16(0), uint16(65535), uint8(0))
	f.Add(int64(7), uint32(0x0a000200), uint32(0x0a00030f), uint16(6666), uint16(1), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, src, dst uint32, sp, dp uint16, proto uint8) {
		rng := rand.New(rand.NewSource(seed))
		rs := randRuleSet(rng)
		tuples := []packet.FiveTuple{
			{SrcIP: packet.IPv4(src), DstIP: packet.IPv4(dst), SrcPort: sp, DstPort: dp, Proto: packet.Proto(proto)},
			randTuple(rng),
			randTuple(rng),
		}
		checkEquivalence(t, rs, tuples)
	})
}
