package tables

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nezha/internal/packet"
)

func ip(a, b, c, d byte) packet.IPv4 { return packet.MakeIP(a, b, c, d) }

func TestPrefixContains(t *testing.T) {
	p := MakePrefix(ip(10, 0, 0, 0), 8)
	if !p.Contains(ip(10, 255, 1, 2)) {
		t.Fatal("10/8 should contain 10.255.1.2")
	}
	if p.Contains(ip(11, 0, 0, 1)) {
		t.Fatal("10/8 should not contain 11.0.0.1")
	}
	all := MakePrefix(0, 0)
	if !all.Contains(ip(1, 2, 3, 4)) {
		t.Fatal("/0 should contain everything")
	}
	host := MakePrefix(ip(10, 0, 0, 5), 32)
	if !host.Contains(ip(10, 0, 0, 5)) || host.Contains(ip(10, 0, 0, 6)) {
		t.Fatal("/32 exact match wrong")
	}
}

func TestMakePrefixMasksHostBits(t *testing.T) {
	p := MakePrefix(ip(10, 1, 2, 3), 16)
	if p.IP != ip(10, 1, 0, 0) {
		t.Fatalf("host bits not masked: %v", p.IP)
	}
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("string = %s", p.String())
	}
}

func TestMakePrefixClampsLen(t *testing.T) {
	p := MakePrefix(ip(1, 2, 3, 4), 99)
	if p.Len != 32 {
		t.Fatalf("len = %d, want 32", p.Len)
	}
}

func TestPortRange(t *testing.T) {
	if !(PortRange{}).Contains(80) {
		t.Fatal("zero range should match any port")
	}
	r := PortRange{100, 200}
	if !r.Contains(100) || !r.Contains(200) || !r.Contains(150) {
		t.Fatal("inclusive bounds broken")
	}
	if r.Contains(99) || r.Contains(201) {
		t.Fatal("out-of-range port matched")
	}
}

func tup(src, dst packet.IPv4, sp, dp uint16) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: packet.ProtoTCP}
}

func TestACLPriorityOrder(t *testing.T) {
	a := &ACLTable{sorted: true, Default: VerdictAllow}
	a.Add(ACLRule{Priority: 10, Dst: MakePrefix(ip(10, 0, 0, 0), 8), Verdict: VerdictDeny})
	a.Add(ACLRule{Priority: 5, Dst: MakePrefix(ip(10, 1, 0, 0), 16), Verdict: VerdictAllow})
	ft := tup(ip(1, 1, 1, 1), ip(10, 1, 2, 3), 1234, 80)
	if got := a.Lookup(ft); got != VerdictAllow {
		t.Fatalf("higher priority allow should win, got %v", got)
	}
	ft2 := tup(ip(1, 1, 1, 1), ip(10, 2, 0, 1), 1234, 80)
	if got := a.Lookup(ft2); got != VerdictDeny {
		t.Fatalf("deny rule should match, got %v", got)
	}
	ft3 := tup(ip(1, 1, 1, 1), ip(11, 0, 0, 1), 1234, 80)
	if got := a.Lookup(ft3); got != VerdictAllow {
		t.Fatalf("default should apply, got %v", got)
	}
}

func TestACLPortAndProtoMatch(t *testing.T) {
	a := &ACLTable{sorted: true, Default: VerdictAllow}
	a.Add(ACLRule{
		Priority: 1, DstPorts: PortRange{80, 443},
		Proto: packet.ProtoTCP, Verdict: VerdictDeny,
	})
	if a.Lookup(tup(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 5, 80)) != VerdictDeny {
		t.Fatal("port in range should deny")
	}
	if a.Lookup(tup(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 5, 8080)) != VerdictAllow {
		t.Fatal("port out of range should fall through")
	}
	udp := packet.FiveTuple{SrcIP: ip(1, 1, 1, 1), DstIP: ip(2, 2, 2, 2), SrcPort: 5, DstPort: 80, Proto: packet.ProtoUDP}
	if a.Lookup(udp) != VerdictAllow {
		t.Fatal("proto mismatch should fall through")
	}
}

func TestACLCostGrowsWithRules(t *testing.T) {
	a := &ACLTable{sorted: true, Default: VerdictAllow}
	c0 := a.LookupCycles()
	for i := 0; i < 100; i++ {
		a.Add(ACLRule{Priority: i, Verdict: VerdictAllow})
	}
	if a.LookupCycles() <= c0 {
		t.Fatal("lookup cost should grow with rule count (Table A1)")
	}
	if a.Len() != 100 {
		t.Fatalf("len = %d", a.Len())
	}
	if a.SizeBytes() <= tableFixedBytes {
		t.Fatal("size should grow with rules")
	}
}

func TestRouteLPM(t *testing.T) {
	r := &RouteTable{}
	r.Add(MakePrefix(ip(10, 0, 0, 0), 8), ip(1, 1, 1, 1))
	r.Add(MakePrefix(ip(10, 1, 0, 0), 16), ip(2, 2, 2, 2))
	r.Add(MakePrefix(ip(10, 1, 2, 0), 24), ip(3, 3, 3, 3))
	cases := []struct {
		dst  packet.IPv4
		want packet.IPv4
		ok   bool
	}{
		{ip(10, 1, 2, 9), ip(3, 3, 3, 3), true},
		{ip(10, 1, 9, 9), ip(2, 2, 2, 2), true},
		{ip(10, 9, 9, 9), ip(1, 1, 1, 1), true},
		{ip(11, 0, 0, 1), 0, false},
	}
	for _, c := range cases {
		got, ok := r.Lookup(c.dst)
		if ok != c.ok || got != c.want {
			t.Fatalf("Lookup(%v) = %v,%v want %v,%v", c.dst, got, ok, c.want, c.ok)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestRouteOverwrite(t *testing.T) {
	r := &RouteTable{}
	p := MakePrefix(ip(10, 0, 0, 0), 8)
	r.Add(p, ip(1, 1, 1, 1))
	r.Add(p, ip(2, 2, 2, 2))
	if r.Len() != 1 {
		t.Fatalf("overwrite should not grow table: %d", r.Len())
	}
	got, _ := r.Lookup(ip(10, 5, 5, 5))
	if got != ip(2, 2, 2, 2) {
		t.Fatal("overwrite lost")
	}
}

func TestRouteDefault(t *testing.T) {
	r := &RouteTable{}
	r.Add(MakePrefix(0, 0), ip(9, 9, 9, 9))
	got, ok := r.Lookup(ip(200, 1, 1, 1))
	if !ok || got != ip(9, 9, 9, 9) {
		t.Fatal("default route should match everything")
	}
}

func TestQoS(t *testing.T) {
	q := &QoSTable{}
	q.SetClass(1, 1e9)
	q.MapPort(443, 1)
	class, rate := q.Lookup(tup(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 5, 443))
	if class != 1 || rate != 1e9 {
		t.Fatalf("got class=%d rate=%v", class, rate)
	}
	class, rate = q.Lookup(tup(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 5, 80))
	if class != 0 || rate != 0 {
		t.Fatalf("unmapped port should be class 0: %d %v", class, rate)
	}
}

func TestNAT(t *testing.T) {
	n := NewNAT()
	n.Add(NATEntry{Orig: MakePrefix(ip(100, 0, 0, 0), 8), XlatIP: ip(10, 0, 0, 1), XlatPort: 8080})
	e, ok := n.Lookup(tup(ip(1, 1, 1, 1), ip(100, 2, 3, 4), 5, 80))
	if !ok || e.XlatIP != ip(10, 0, 0, 1) || e.XlatPort != 8080 {
		t.Fatalf("NAT lookup wrong: %+v %v", e, ok)
	}
	if _, ok := n.Lookup(tup(ip(1, 1, 1, 1), ip(99, 0, 0, 1), 5, 80)); ok {
		t.Fatal("non-matching dst should miss")
	}
}

func TestVXLAN(t *testing.T) {
	v := &VXLANRouteTable{}
	v.Add(MakePrefix(ip(10, 0, 0, 0), 8), 777)
	vni, ok := v.Lookup(ip(10, 1, 1, 1))
	if !ok || vni != 777 {
		t.Fatalf("vxlan lookup: %d %v", vni, ok)
	}
}

func TestFlagTables(t *testing.T) {
	for i, mk := range []func() *FlagTable{NewMirror, NewFlowLog, NewPolicyRoute} {
		f := mk()
		f.Add(MakePrefix(ip(10, 0, 0, 0), 24))
		if !f.Lookup(ip(10, 0, 0, 99)) {
			t.Fatalf("flag table %d should match", i)
		}
		if f.Lookup(ip(10, 0, 1, 1)) {
			t.Fatalf("flag table %d should not match", i)
		}
		if f.LookupCycles() == 0 || f.SizeBytes() == 0 {
			t.Fatalf("flag table %d accounting zero", i)
		}
	}
}

func TestStatsPolicy(t *testing.T) {
	s := NewStatsPolicy(StatsPackets)
	s.Add(MakePrefix(ip(10, 0, 0, 0), 8), StatsBytesIn|StatsBytesOut)
	if got := s.Lookup(ip(10, 1, 1, 1)); got != StatsBytesIn|StatsBytesOut {
		t.Fatalf("policy = %v", got)
	}
	if got := s.Lookup(ip(11, 1, 1, 1)); got != StatsPackets {
		t.Fatalf("default policy = %v", got)
	}
}

func TestVNICServerMap(t *testing.T) {
	m := &VNICServerMap{}
	m.Set(5, ip(1, 2, 3, 4))
	srv, ok := m.Lookup(5)
	if !ok || srv != ip(1, 2, 3, 4) {
		t.Fatal("lookup failed")
	}
	m.Set(5, ip(4, 3, 2, 1))
	srv, _ = m.Lookup(5)
	if srv != ip(4, 3, 2, 1) {
		t.Fatal("update lost")
	}
	m.Delete(5)
	if _, ok := m.Lookup(5); ok {
		t.Fatal("delete failed")
	}
	if m.Len() != 0 {
		t.Fatal("len after delete")
	}
}

func TestVNICServerMemoryScale(t *testing.T) {
	// §2.2.2: O(100K) vNIC-Server entries consume >200 MB.
	m := &VNICServerMap{}
	for i := uint32(0); i < 100000; i++ {
		m.Set(i, ip(1, 1, 1, 1))
	}
	if m.SizeBytes() < 200*1000*1000 {
		t.Fatalf("100K entries = %d bytes, want >200MB", m.SizeBytes())
	}
}

func TestPreActionsEncodeDecode(t *testing.T) {
	pa := PreActions{
		TX: PreAction{
			ACL: VerdictAllow, NextHop: ip(1, 2, 3, 4), PeerVNIC: 99,
			EncapVNI: 777, QoSClass: 2, RateBps: 1e9,
			NAT: true, NATIP: ip(9, 9, 9, 9), NATPort: 8080,
			Mirror: true, Stats: StatsBytesIn,
		},
		RX: PreAction{ACL: VerdictDeny, FlowLog: true, PeerVNIC: 3},
	}
	got, err := DecodePreActions(pa.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, got) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", pa, got)
	}
}

func TestDecodePreActionsBadLength(t *testing.T) {
	if _, err := DecodePreActions(nil); err != ErrBadPreActions {
		t.Fatal("nil blob should fail")
	}
	if _, err := DecodePreActions(make([]byte, 7)); err != ErrBadPreActions {
		t.Fatal("short blob should fail")
	}
}

func TestPreActionsForDir(t *testing.T) {
	pa := PreActions{TX: PreAction{QoSClass: 1}, RX: PreAction{QoSClass: 2}}
	if pa.ForDir(packet.DirTX).QoSClass != 1 || pa.ForDir(packet.DirRX).QoSClass != 2 {
		t.Fatal("ForDir wrong")
	}
}

func buildRuleSet() *RuleSet {
	rs := NewRuleSet(100, 7)
	rs.Route.Add(MakePrefix(ip(10, 0, 2, 0), 24), packet.IPv4(200)) // peer vNIC 200
	rs.VNICSrv.Set(200, ip(192, 168, 0, 2))
	rs.VXLAN.Add(MakePrefix(ip(10, 0, 0, 0), 8), 7)
	return rs
}

func TestRuleSetLookupBasic(t *testing.T) {
	rs := buildRuleSet()
	res := rs.Lookup(tup(ip(10, 0, 1, 1), ip(10, 0, 2, 2), 1234, 80))
	if res.PeerVNIC != 200 {
		t.Fatalf("peer = %d", res.PeerVNIC)
	}
	if res.Pre.TX.NextHop != ip(192, 168, 0, 2) {
		t.Fatalf("nexthop = %v", res.Pre.TX.NextHop)
	}
	if res.Pre.TX.EncapVNI != 7 {
		t.Fatalf("vni = %d", res.Pre.TX.EncapVNI)
	}
	if res.Pre.TX.ACL != VerdictAllow || res.Pre.RX.ACL != VerdictAllow {
		t.Fatal("default ACL should allow")
	}
	// Basic walk: ACL×2 + QoS + route + vxlan + vnic-server = 6.
	if res.TablesWalked != 6 {
		t.Fatalf("tables walked = %d, want 6", res.TablesWalked)
	}
	if res.Cycles == 0 {
		t.Fatal("cycles not charged")
	}
}

func TestRuleSetLookupAdvancedWalksMore(t *testing.T) {
	rs := buildRuleSet()
	basic := rs.Lookup(tup(ip(10, 0, 1, 1), ip(10, 0, 2, 2), 1, 80))
	rs.EnableAdvanced()
	adv := rs.Lookup(tup(ip(10, 0, 1, 1), ip(10, 0, 2, 2), 1, 80))
	if adv.TablesWalked != basic.TablesWalked+5 {
		t.Fatalf("advanced walk = %d, want %d", adv.TablesWalked, basic.TablesWalked+5)
	}
	if adv.Cycles <= basic.Cycles {
		t.Fatal("advanced walk should cost more")
	}
}

func TestRuleSetACLDirections(t *testing.T) {
	rs := buildRuleSet()
	// Deny all inbound (RX): rule matching traffic TO the local VM.
	rs.ACL.Add(ACLRule{Priority: 1, Dst: MakePrefix(ip(10, 0, 1, 0), 24), Verdict: VerdictDeny})
	rs.Bump()
	res := rs.Lookup(tup(ip(10, 0, 1, 1), ip(10, 0, 2, 2), 1234, 80))
	if res.Pre.TX.ACL != VerdictAllow {
		t.Fatalf("TX should be allowed, got %v", res.Pre.TX.ACL)
	}
	if res.Pre.RX.ACL != VerdictDeny {
		t.Fatalf("RX should be denied, got %v", res.Pre.RX.ACL)
	}
}

func TestRuleSetVersionBump(t *testing.T) {
	rs := NewRuleSet(1, 1)
	v := rs.Version()
	rs.Bump()
	if rs.Version() != v+1 {
		t.Fatal("bump did not advance version")
	}
	rs.EnableAdvanced()
	if rs.Version() != v+2 {
		t.Fatal("EnableAdvanced should bump")
	}
}

func TestRuleSetSizeBytes(t *testing.T) {
	rs := NewRuleSet(1, 1)
	base := rs.SizeBytes()
	if base == 0 {
		t.Fatal("empty ruleset should still have table overhead")
	}
	for i := 0; i < 1000; i++ {
		rs.ACL.Add(ACLRule{Priority: i})
	}
	if rs.SizeBytes() != base+1000*ACLRuleBytes {
		t.Fatalf("size = %d, want %d", rs.SizeBytes(), base+1000*ACLRuleBytes)
	}
}

// An empty table costs only its bookkeeping, so an empty rule set's
// size counts its active tables.
func TestRuleSetTablesCount(t *testing.T) {
	rs := NewRuleSet(1, 1)
	if got := rs.SizeBytes() / tableFixedBytes; got != 5 {
		t.Fatalf("mandatory tables = %d, want 5", got)
	}
	rs.EnableAdvanced()
	if got := rs.SizeBytes() / tableFixedBytes; got != 10 {
		t.Fatalf("advanced tables = %d, want 10", got)
	}
}

// Property: LPM result equals a brute-force scan over all prefixes.
func TestQuickLPMAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rt := &RouteTable{}
		type entry struct {
			p  Prefix
			nh packet.IPv4
		}
		var entries []entry
		for i := 0; i < 30; i++ {
			p := MakePrefix(packet.IPv4(r.Uint32()), uint8(r.Intn(33)))
			nh := packet.IPv4(r.Uint32() | 1)
			rt.Add(p, nh)
			// Mirror overwrite semantics in the brute-force model.
			dup := false
			for j := range entries {
				if entries[j].p == p {
					entries[j].nh = nh
					dup = true
				}
			}
			if !dup {
				entries = append(entries, entry{p, nh})
			}
		}
		for i := 0; i < 50; i++ {
			addr := packet.IPv4(r.Uint32())
			var best *entry
			for j := range entries {
				if entries[j].p.Contains(addr) {
					if best == nil || entries[j].p.Len > best.p.Len {
						best = &entries[j]
					}
				}
			}
			got, ok := rt.Lookup(addr)
			if best == nil {
				if ok {
					return false
				}
			} else if !ok || got != best.nh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: pre-action encode/decode roundtrips.
func TestQuickPreActionsRoundtrip(t *testing.T) {
	f := func(aACL, bACL uint8, nh, natip uint32, vni uint32, rate uint64, class uint8, natport uint16, flags uint8, peer uint32) bool {
		pa := PreActions{
			TX: PreAction{
				ACL: Verdict(aACL % 3), NextHop: packet.IPv4(nh), PeerVNIC: peer,
				EncapVNI: vni, QoSClass: class, RateBps: rate,
				NAT: flags&1 != 0, NATIP: packet.IPv4(natip), NATPort: natport,
				Mirror: flags&2 != 0, FlowLog: flags&4 != 0, Stats: StatsPolicy(flags),
			},
			RX: PreAction{ACL: Verdict(bACL % 3)},
		}
		got, err := DecodePreActions(pa.Encode())
		return err == nil && reflect.DeepEqual(pa, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkACLLookup100Rules(b *testing.B) {
	a := &ACLTable{sorted: true, Default: VerdictAllow}
	for i := 0; i < 100; i++ {
		a.Add(ACLRule{Priority: i, Dst: MakePrefix(packet.IPv4(uint32(i)<<16), 16), Verdict: VerdictDeny})
	}
	ft := tup(ip(1, 1, 1, 1), ip(250, 250, 1, 1), 1, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Lookup(ft)
	}
}

func BenchmarkRouteLookup(b *testing.B) {
	r := &RouteTable{}
	for i := 0; i < 1000; i++ {
		r.Add(MakePrefix(packet.IPv4(uint32(i)<<12), 24), ip(1, 1, 1, 1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Lookup(packet.IPv4(uint32(i)))
	}
}

func BenchmarkRuleSetLookup(b *testing.B) {
	rs := buildRuleSet()
	ft := tup(ip(10, 0, 1, 1), ip(10, 0, 2, 2), 1234, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rs.Lookup(ft)
	}
}
