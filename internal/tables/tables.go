package tables

import (
	"sort"

	"nezha/internal/packet"
)

// Every rule table reports its size and lookup cost, which feed the
// SmartNIC resource model: table bytes are charged to the vSwitch
// memory budget (the paper's "#vNICs primarily limited by memory on
// slow path"), lookup cycles to its CPU (the paper's "CPS limited by
// CPU on slow path"). RuleSet.SizeBytes sums the sizes; the compiled
// walk freezes the cycles (soa.go).

// Per-entry memory footprints (bytes). Calibrated so a typical vNIC
// rule set lands in the paper's 5.5–10 MB band and a vNIC-server
// mapping with O(100K) entries costs >200 MB (§2.2.2).
const (
	ACLRuleBytes      = 64
	RouteEntryBytes   = 48
	QoSEntryBytes     = 40
	NATEntryBytes     = 56
	VXLANEntryBytes   = 48
	PolicyEntryBytes  = 64
	MirrorEntryBytes  = 32
	FlowLogEntryBytes = 32
	StatsEntryBytes   = 32
	VNICServerBytes   = 2048 // per-vNIC location record incl. metadata
	tableFixedBytes   = 4096 // per-table bookkeeping overhead
)

// Lookup CPU costs (cycles). See internal/nic for the core clock; the
// constants are calibrated so a full 5-table connection setup keeps an
// 8-core vSwitch at O(100K) CPS (§2.2.2) and ACL cost grows with the
// rule count as Table A1 measures.
const (
	ACLBaseCycles    = 30000
	ACLPerRuleCycles = 110
	RouteCycles      = 15000
	QoSCycles        = 10000
	NATCycles        = 12000
	VXLANCycles      = 15000
	PolicyCycles     = 12000
	MirrorCycles     = 8000
	FlowLogCycles    = 8000
	StatsCycles      = 8000
	VNICServerCycles = 10000
)

// ACLRule is one priority-ordered access rule. Zero-valued match
// fields are wildcards.
type ACLRule struct {
	Priority int // lower value = higher priority
	Src      Prefix
	Dst      Prefix
	SrcPorts PortRange
	DstPorts PortRange
	Proto    packet.Proto // 0 = any
	Verdict  Verdict
}

// ACLTable is a priority-matched access control list with range
// matching — the expensive lookup on the slow path. Rules are kept
// priority-sorted lazily (bulk loading is O(n log n) total). The
// compiled walk scans them linearly in priority order, and the cost
// model charges ACLBaseCycles + ACLPerRuleCycles per rule, which is
// what Table A1 measures.
type ACLTable struct {
	rules   []ACLRule
	sorted  bool
	Default Verdict
}

// Add inserts a rule; priority order is restored on the next compile.
func (t *ACLTable) Add(r ACLRule) {
	t.rules = append(t.rules, r)
	t.sorted = false
}

// Len reports the rule count.
func (t *ACLTable) Len() int { return len(t.rules) }

// sortRules restores priority order; ties keep insertion order.
func (t *ACLTable) sortRules() {
	sort.SliceStable(t.rules, func(i, j int) bool { return t.rules[i].Priority < t.rules[j].Priority })
	t.sorted = true
}

func (t *ACLTable) SizeBytes() int {
	return tableFixedBytes + len(t.rules)*ACLRuleBytes
}
func (t *ACLTable) LookupCycles() uint64 {
	return ACLBaseCycles + uint64(len(t.rules))*ACLPerRuleCycles
}

// RouteTable is a longest-prefix-match route table implemented as 33
// exact-match maps keyed by masked address, probed longest-first. The
// zero value is an empty table; a length's map is made by its first
// route.
type RouteTable struct {
	byLen [33]map[packet.IPv4]packet.IPv4 // prefix -> next hop
	n     int
}

// Add installs prefix -> nextHop. Re-adding a prefix overwrites.
func (t *RouteTable) Add(p Prefix, nextHop packet.IPv4) {
	m := t.byLen[p.Len]
	if m == nil {
		m = make(map[packet.IPv4]packet.IPv4)
		t.byLen[p.Len] = m
	}
	if _, ok := m[p.IP]; !ok {
		t.n++
	}
	m[p.IP] = nextHop
}

// Len reports the number of routes.
func (t *RouteTable) Len() int { return t.n }

func (t *RouteTable) SizeBytes() int       { return tableFixedBytes + t.n*RouteEntryBytes }
func (t *RouteTable) LookupCycles() uint64 { return RouteCycles }

// QoSTable maps a QoS class to its rate limit. The zero value is an
// empty table; each map is made by its first insert.
type QoSTable struct {
	classes map[uint8]uint64 // class -> bytes/sec (0 = unlimited)
	// ClassFor optionally classifies by destination port; nil means
	// class 0 for everything.
	portClass map[uint16]uint8
}

// SetClass installs a class rate.
func (t *QoSTable) SetClass(class uint8, rateBps uint64) {
	if t.classes == nil {
		t.classes = make(map[uint8]uint64)
	}
	t.classes[class] = rateBps
}

// MapPort steers a destination port into a class.
func (t *QoSTable) MapPort(port uint16, class uint8) {
	if t.portClass == nil {
		t.portClass = make(map[uint16]uint8)
	}
	t.portClass[port] = class
}

// Len reports configured classes plus port mappings.
func (t *QoSTable) Len() int { return len(t.classes) + len(t.portClass) }

func (t *QoSTable) SizeBytes() int       { return tableFixedBytes + t.Len()*QoSEntryBytes }
func (t *QoSTable) LookupCycles() uint64 { return QoSCycles }

// NATEntry rewrites a destination matching Orig to Xlat.
type NATEntry struct {
	Orig     Prefix
	XlatIP   packet.IPv4
	XlatPort uint16 // 0 = keep port
}

// NATTable holds destination NAT rewrites.
type NATTable struct {
	entries []NATEntry
}

// NewNAT returns an empty NAT table.
func NewNAT() *NATTable { return &NATTable{} }

// Add installs an entry.
func (t *NATTable) Add(e NATEntry) { t.entries = append(t.entries, e) }

// Len reports the entry count.
func (t *NATTable) Len() int { return len(t.entries) }

func (t *NATTable) SizeBytes() int       { return tableFixedBytes + len(t.entries)*NATEntryBytes }
func (t *NATTable) LookupCycles() uint64 { return NATCycles }

// VXLANRouteTable maps overlay destination prefixes to VNIs — the
// VXLAN routing step of the paper's minimum five-table walk. The zero
// value is an empty table.
type VXLANRouteTable struct {
	routes RouteTable // next hop field reused as VNI
}

// Add installs prefix -> vni.
func (t *VXLANRouteTable) Add(p Prefix, vni uint32) { t.routes.Add(p, packet.IPv4(vni)) }

// Len reports the entry count.
func (t *VXLANRouteTable) Len() int { return t.routes.Len() }

func (t *VXLANRouteTable) SizeBytes() int       { return tableFixedBytes + t.Len()*VXLANEntryBytes }
func (t *VXLANRouteTable) LookupCycles() uint64 { return VXLANCycles }

// FlagTable is the shared shape of the mirror / flow-log / policy
// tables: a prefix list that flags matching traffic.
type FlagTable struct {
	perEntry int
	cycles   uint64
	prefixes []Prefix
}

// NewMirror returns an empty traffic-mirroring table.
func NewMirror() *FlagTable {
	return &FlagTable{perEntry: MirrorEntryBytes, cycles: MirrorCycles}
}

// NewFlowLog returns an empty flow-log table.
func NewFlowLog() *FlagTable {
	return &FlagTable{perEntry: FlowLogEntryBytes, cycles: FlowLogCycles}
}

// NewPolicyRoute returns an empty policy-based-routing table.
func NewPolicyRoute() *FlagTable {
	return &FlagTable{perEntry: PolicyEntryBytes, cycles: PolicyCycles}
}

// Add installs a prefix.
func (t *FlagTable) Add(p Prefix) { t.prefixes = append(t.prefixes, p) }

// Len reports the entry count.
func (t *FlagTable) Len() int { return len(t.prefixes) }

func (t *FlagTable) SizeBytes() int       { return tableFixedBytes + len(t.prefixes)*t.perEntry }
func (t *FlagTable) LookupCycles() uint64 { return t.cycles }

// StatsPolicyTable maps destination prefixes to a statistics policy —
// the "rule table involved" state source of §3.2.2.
type StatsPolicyTable struct {
	entries []struct {
		p      Prefix
		policy StatsPolicy
	}
	Default StatsPolicy
}

// NewStatsPolicy returns a table with the given default policy.
func NewStatsPolicy(def StatsPolicy) *StatsPolicyTable { return &StatsPolicyTable{Default: def} }

// Add installs prefix -> policy.
func (t *StatsPolicyTable) Add(p Prefix, policy StatsPolicy) {
	t.entries = append(t.entries, struct {
		p      Prefix
		policy StatsPolicy
	}{p, policy})
}

// Len reports the entry count.
func (t *StatsPolicyTable) Len() int { return len(t.entries) }

func (t *StatsPolicyTable) SizeBytes() int       { return tableFixedBytes + len(t.entries)*StatsEntryBytes }
func (t *StatsPolicyTable) LookupCycles() uint64 { return StatsCycles }

// VNICServerMap maps a vNIC to the underlay address of the server
// hosting it — the paper's "vNIC-Server mapping table" (global
// routing table). The gateway holds the full map; vSwitches learn
// subsets on demand (§4.2.1). The zero value is an empty map; the Go
// map is made by the first Set.
type VNICServerMap struct {
	m map[uint32]packet.IPv4
}

// Set installs or updates a vNIC location.
func (t *VNICServerMap) Set(vnic uint32, server packet.IPv4) {
	if t.m == nil {
		t.m = make(map[uint32]packet.IPv4)
	}
	t.m[vnic] = server
}

// Delete removes a vNIC.
func (t *VNICServerMap) Delete(vnic uint32) { delete(t.m, vnic) }

// Len reports the entry count.
func (t *VNICServerMap) Len() int { return len(t.m) }

func (t *VNICServerMap) SizeBytes() int       { return tableFixedBytes + len(t.m)*VNICServerBytes }
func (t *VNICServerMap) LookupCycles() uint64 { return VNICServerCycles }
