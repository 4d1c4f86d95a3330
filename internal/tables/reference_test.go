package tables

import "nezha/internal/packet"

// The interpretive rule walk: each table answers from its own
// pointer-rich structure. It is the oracle the compiled walk in soa.go
// must match bit for bit (TestSoAEquivalence, FuzzSoAEquivalence) and
// what the per-table unit tests exercise. Nothing outside the tests
// runs it.

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip packet.IPv4) bool {
	return ip&mask(p.Len) == p.IP
}

// Contains reports whether port falls in the range. The zero range
// matches everything (unconfigured field in an ACL rule).
func (r PortRange) Contains(port uint16) bool {
	if r.Lo == 0 && r.Hi == 0 {
		return true
	}
	return port >= r.Lo && port <= r.Hi
}

func (r *ACLRule) matches(ft packet.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != ft.Proto {
		return false
	}
	if !r.Src.Contains(ft.SrcIP) || !r.Dst.Contains(ft.DstIP) {
		return false
	}
	return r.SrcPorts.Contains(ft.SrcPort) && r.DstPorts.Contains(ft.DstPort)
}

// Lookup returns the verdict of the matching rule with the lowest
// priority value, ties going to the earlier-added rule, or the
// default. It never reorders the rules, so it does not lean on the
// stable sort the compiled form relies on.
func (t *ACLTable) Lookup(ft packet.FiveTuple) Verdict {
	best := -1
	for i := range t.rules {
		if t.rules[i].matches(ft) && (best < 0 || t.rules[i].Priority < t.rules[best].Priority) {
			best = i
		}
	}
	if best < 0 {
		return t.Default
	}
	return t.rules[best].Verdict
}

// Lookup finds the longest matching prefix; ok is false with no match.
func (t *RouteTable) Lookup(ip packet.IPv4) (nextHop packet.IPv4, ok bool) {
	for l := 32; l >= 0; l-- {
		m := t.byLen[l]
		if m == nil {
			continue
		}
		if nh, hit := m[ip&mask(uint8(l))]; hit {
			return nh, true
		}
	}
	return 0, false
}

// Lookup classifies ft and returns (class, rate).
func (t *QoSTable) Lookup(ft packet.FiveTuple) (uint8, uint64) {
	class := t.portClass[ft.DstPort]
	return class, t.classes[class]
}

// Lookup returns a rewrite for ft's destination, if any.
func (t *NATTable) Lookup(ft packet.FiveTuple) (NATEntry, bool) {
	for _, e := range t.entries {
		if e.Orig.Contains(ft.DstIP) {
			return e, true
		}
	}
	return NATEntry{}, false
}

// Lookup resolves the VNI for an overlay destination.
func (t *VXLANRouteTable) Lookup(ip packet.IPv4) (uint32, bool) {
	v, ok := t.routes.Lookup(ip)
	return uint32(v), ok
}

// Lookup reports whether ip matches any prefix.
func (t *FlagTable) Lookup(ip packet.IPv4) bool {
	for _, p := range t.prefixes {
		if p.Contains(ip) {
			return true
		}
	}
	return false
}

// Lookup returns the policy for ip.
func (t *StatsPolicyTable) Lookup(ip packet.IPv4) StatsPolicy {
	for _, e := range t.entries {
		if e.p.Contains(ip) {
			return e.policy
		}
	}
	return t.Default
}

// Lookup resolves a vNIC's server.
func (t *VNICServerMap) Lookup(vnic uint32) (packet.IPv4, bool) {
	s, ok := t.m[vnic]
	return s, ok
}

// table is what the reference walk charges of a rule table.
type table interface{ LookupCycles() uint64 }

// lookupReference is the whole walk over the interpretive tables; the
// compiled RuleSet.Lookup must return the identical LookupResult.
func (rs *RuleSet) lookupReference(txTuple packet.FiveTuple) LookupResult {
	var res LookupResult
	walk := func(t table) {
		res.Cycles += t.LookupCycles()
		res.TablesWalked++
	}

	// 1. ACL — both directions, one walk each (range matching).
	walk(rs.ACL)
	res.Pre.TX.ACL = rs.ACL.Lookup(txTuple)
	walk(rs.ACL)
	res.Pre.RX.ACL = rs.ACL.Lookup(txTuple.Reverse())

	// 2. QoS.
	walk(rs.QoS)
	class, rate := rs.QoS.Lookup(txTuple)
	res.Pre.TX.QoSClass, res.Pre.TX.RateBps = class, rate
	res.Pre.RX.QoSClass, res.Pre.RX.RateBps = class, rate

	// 3. Overlay route: TX destination -> peer vNIC.
	walk(rs.Route)
	if peer, ok := rs.Route.Lookup(txTuple.DstIP); ok {
		res.PeerVNIC = uint32(peer)
		res.Pre.TX.PeerVNIC = uint32(peer)
	}
	res.Pre.RX.PeerVNIC = rs.VNIC

	// 4. VXLAN routing: VNI for re-encapsulation.
	walk(rs.VXLAN)
	if vni, ok := rs.VXLAN.Lookup(txTuple.DstIP); ok {
		res.Pre.TX.EncapVNI = vni
		res.Pre.RX.EncapVNI = vni
	} else {
		res.Pre.TX.EncapVNI = rs.VPC
		res.Pre.RX.EncapVNI = rs.VPC
	}

	// 5. vNIC-server mapping: underlay next hop for the peer.
	walk(rs.VNICSrv)
	if res.PeerVNIC != 0 {
		if srv, ok := rs.VNICSrv.Lookup(res.PeerVNIC); ok {
			res.Pre.TX.NextHop = srv
		}
	}

	// Advanced tables, when enabled.
	if rs.NAT != nil {
		walk(rs.NAT)
		if e, ok := rs.NAT.Lookup(txTuple); ok {
			res.Pre.TX.NAT = true
			res.Pre.TX.NATIP = e.XlatIP
			res.Pre.TX.NATPort = e.XlatPort
		}
	}
	if rs.Policy != nil {
		walk(rs.Policy)
		// Policy routing simply flags; the route result stands.
		_ = rs.Policy.Lookup(txTuple.DstIP)
	}
	if rs.Mirror != nil {
		walk(rs.Mirror)
		m := rs.Mirror.Lookup(txTuple.DstIP)
		res.Pre.TX.Mirror = m
		res.Pre.RX.Mirror = m
	}
	if rs.FlowLog != nil {
		walk(rs.FlowLog)
		fl := rs.FlowLog.Lookup(txTuple.DstIP)
		res.Pre.TX.FlowLog = fl
		res.Pre.RX.FlowLog = fl
	}
	if rs.Stats != nil {
		walk(rs.Stats)
		sp := rs.Stats.Lookup(txTuple.DstIP)
		res.Pre.TX.Stats = sp
		res.Pre.RX.Stats = sp
	}
	return res
}
