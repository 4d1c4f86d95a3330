package tables

import "nezha/internal/packet"

// RuleSet bundles the per-vNIC rule tables. Establishing a connection
// walks at least five tables (ACL, QoS, policy, VXLAN routing,
// vNIC-server mapping); enabling advanced features (policy routing,
// mirroring, flow logging, NAT, stats) raises that toward twelve
// (§2.2.2).
//
// A RuleSet has a version. Any configuration change must go through
// Bump (the vSwitch config APIs do), which invalidates cached flows
// derived from the old rules: the flow cache stores the version it
// was built from and treats a mismatch as a miss (§3.2.2 "when the
// rule table changes, the associated cached flows are invalidated").
type RuleSet struct {
	VNIC uint32
	VPC  uint32

	ACL     *ACLTable
	Route   *RouteTable // overlay dst -> peer vNIC id (as IPv4 payload)
	QoS     *QoSTable
	VXLAN   *VXLANRouteTable
	VNICSrv *VNICServerMap // peer vNIC -> hosting server underlay IP

	// Optional / advanced tables; nil when the feature is off.
	NAT     *NATTable
	Policy  *FlagTable
	Mirror  *FlagTable
	FlowLog *FlagTable
	Stats   *StatsPolicyTable

	version uint64

	// soa caches the struct-of-arrays compiled form of the tables
	// (see soa.go); rebuilt lazily when version changes.
	soa *soaRules

	// The mandatory tables themselves, which the exported pointers
	// above address: a rule set is built for every FE install, and one
	// allocation holds all five.
	acl   ACLTable
	route RouteTable
	qos   QoSTable
	vxlan VXLANRouteTable
	srv   VNICServerMap
}

// NewRuleSet builds a rule set with the five mandatory tables
// initialized and advanced tables off.
func NewRuleSet(vnic, vpc uint32) *RuleSet {
	rs := &RuleSet{VNIC: vnic, VPC: vpc, version: 1}
	rs.acl.sorted, rs.acl.Default = true, VerdictAllow
	rs.ACL, rs.Route, rs.QoS, rs.VXLAN, rs.VNICSrv = &rs.acl, &rs.route, &rs.qos, &rs.vxlan, &rs.srv
	return rs
}

// EnableAdvanced switches on the advanced feature tables (raising the
// table walk toward the paper's twelve).
func (rs *RuleSet) EnableAdvanced() {
	if rs.NAT == nil {
		rs.NAT = NewNAT()
	}
	if rs.Policy == nil {
		rs.Policy = NewPolicyRoute()
	}
	if rs.Mirror == nil {
		rs.Mirror = NewMirror()
	}
	if rs.FlowLog == nil {
		rs.FlowLog = NewFlowLog()
	}
	if rs.Stats == nil {
		rs.Stats = NewStatsPolicy(0)
	}
	rs.Bump()
}

// Version returns the current configuration version.
func (rs *RuleSet) Version() uint64 { return rs.version }

// Bump advances the version, invalidating derived cached flows.
func (rs *RuleSet) Bump() { rs.version++ }

// SizeBytes is the total slow-path memory this vNIC's active tables
// occupy.
func (rs *RuleSet) SizeBytes() int {
	total := rs.ACL.SizeBytes() + rs.Route.SizeBytes() + rs.QoS.SizeBytes() +
		rs.VXLAN.SizeBytes() + rs.VNICSrv.SizeBytes()
	if rs.NAT != nil {
		total += rs.NAT.SizeBytes()
	}
	for _, t := range [...]*FlagTable{rs.Policy, rs.Mirror, rs.FlowLog} {
		if t != nil {
			total += t.SizeBytes()
		}
	}
	if rs.Stats != nil {
		total += rs.Stats.SizeBytes()
	}
	return total
}

// LookupResult is the outcome of a full slow-path walk.
type LookupResult struct {
	Pre          PreActions
	Cycles       uint64
	TablesWalked int
	// PeerVNIC is the resolved remote vNIC for the TX direction
	// (0 when the route did not resolve).
	PeerVNIC uint32
}

// ResolvePeer performs only the route + vNIC-server steps for an
// overlay destination, returning the peer vNIC, its hosting server,
// and the cycles consumed. Stateful decapsulation uses this to route
// a response to the address recorded in session state instead of the
// packet's own destination (§5.2).
func (rs *RuleSet) ResolvePeer(dst packet.IPv4) (peer uint32, nextHop packet.IPv4, cycles uint64) {
	cycles = RouteCycles + VNICServerCycles
	c := rs.compiled()
	p, ok := c.route.lookup(uint32(dst))
	if !ok {
		return 0, 0, cycles
	}
	peer = p
	if srv, ok := c.srv.lookup(peer); ok {
		nextHop = packet.IPv4(srv)
	}
	return peer, nextHop, cycles
}

// Lookup performs the slow-path rule table walk for the session the
// packet tuple belongs to, producing bidirectional pre-actions (as
// the fast path caches them) plus the CPU cycles consumed.
//
// The tuple is interpreted in its TX orientation: SrcIP is the local
// VM, DstIP the remote peer. Callers with an RX packet pass the
// reversed tuple (the vSwitch does this).
func (rs *RuleSet) Lookup(txTuple packet.FiveTuple) LookupResult {
	var res LookupResult
	rs.LookupInto(txTuple, &res)
	return res
}

// LookupInto is Lookup writing into a caller-owned result — the
// alloc-free form the datapath uses (the value-return form made the
// result escape through the walk closure, costing one heap
// LookupResult per slow-path packet). It runs over the compiled
// struct-of-arrays tables; results are bit-identical to the reference
// walk (FuzzSoAEquivalence pins this).
func (rs *RuleSet) LookupInto(txTuple packet.FiveTuple, res *LookupResult) {
	c := rs.compiled()
	*res = LookupResult{}

	// 1. ACL — both directions, one walk each (range matching).
	res.Cycles += 2 * c.aclCycles
	res.TablesWalked += 2
	res.Pre.TX.ACL = c.acl.lookup(txTuple, c.aclDefault)
	res.Pre.RX.ACL = c.acl.lookup(txTuple.Reverse(), c.aclDefault)

	// 2. QoS.
	res.Cycles += c.qosCycles
	res.TablesWalked++
	class, rate := c.qos.lookup(txTuple.DstPort)
	res.Pre.TX.QoSClass, res.Pre.TX.RateBps = class, rate
	res.Pre.RX.QoSClass, res.Pre.RX.RateBps = class, rate

	// 3. Overlay route: TX destination -> peer vNIC.
	res.Cycles += c.routeCycles
	res.TablesWalked++
	if peer, ok := c.route.lookup(uint32(txTuple.DstIP)); ok {
		res.PeerVNIC = peer
		res.Pre.TX.PeerVNIC = peer
	}
	res.Pre.RX.PeerVNIC = c.vnic

	// 4. VXLAN routing: VNI for re-encapsulation.
	res.Cycles += c.vxlanCycles
	res.TablesWalked++
	if vni, ok := c.vxlan.lookup(uint32(txTuple.DstIP)); ok {
		res.Pre.TX.EncapVNI = vni
		res.Pre.RX.EncapVNI = vni
	} else {
		res.Pre.TX.EncapVNI = c.vpc
		res.Pre.RX.EncapVNI = c.vpc
	}

	// 5. vNIC-server mapping: underlay next hop for the peer.
	res.Cycles += c.srvCycles
	res.TablesWalked++
	if res.PeerVNIC != 0 {
		if srv, ok := c.srv.lookup(res.PeerVNIC); ok {
			res.Pre.TX.NextHop = packet.IPv4(srv)
		}
	}

	rs.lookupAdvanced(c, uint32(txTuple.DstIP), res)
}

// lookupAdvanced runs the optional-table tail of the walk.
func (rs *RuleSet) lookupAdvanced(c *soaRules, dst uint32, res *LookupResult) {
	if c.hasNAT {
		res.Cycles += c.natCycles
		res.TablesWalked++
		if e, ok := c.nat.lookup(dst); ok {
			res.Pre.TX.NAT = true
			res.Pre.TX.NATIP = e.XlatIP
			res.Pre.TX.NATPort = e.XlatPort
		}
	}
	if c.hasPolicy {
		res.Cycles += c.policyCycles
		res.TablesWalked++
		// Policy routing simply flags; the route result stands.
		_ = c.policy.lookup(dst)
	}
	if c.hasMirror {
		res.Cycles += c.mirrorCycles
		res.TablesWalked++
		m := c.mirror.lookup(dst)
		res.Pre.TX.Mirror = m
		res.Pre.RX.Mirror = m
	}
	if c.hasFlow {
		res.Cycles += c.flowCycles
		res.TablesWalked++
		fl := c.flow.lookup(dst)
		res.Pre.TX.FlowLog = fl
		res.Pre.RX.FlowLog = fl
	}
	if c.hasStats {
		res.Cycles += c.statsCycles
		res.TablesWalked++
		sp := c.stats.lookup(dst)
		res.Pre.TX.Stats = sp
		res.Pre.RX.Stats = sp
	}
}
