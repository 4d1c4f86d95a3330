package tables

import "nezha/internal/packet"

// Struct-of-arrays compiled form of a RuleSet: the only rule walk the
// program runs. The table types hold pointer-rich structures (maps of
// maps for routes, a rule slice of fat structs for the ACL); the
// datapath runs the walk millions of times, so every lookup compiles
// into flat arrays: parallel columns for the scanned lists, and one
// array of key-value slots for each open-addressed table. Compilation
// is keyed on the RuleSet version: any config change goes through
// Bump, which invalidates the compiled form the same way it
// invalidates cached flows.
//
// Equivalence contract: for every tuple, the compiled walk must
// produce the exact LookupResult (pre-actions, cycles, tables walked)
// the interpretive reference walk in reference_test.go produces — the
// cycle model depends only on table sizes, so cycles are cached per
// table at compile time. The contract is pinned by FuzzSoAEquivalence
// and TestSoAEquivalence.

// soaRules is the compiled rule set.
type soaRules struct {
	version uint64
	vnic    uint32
	vpc     uint32

	// Per-table fingerprints: defensive revalidation for tables
	// mutated without Bump (a contract violation, but a cheap check).
	aclLen, routeLen, qosLen, vxlanLen, srvLen int
	natLen, policyLen, mirrorLen, flowLen      int
	statsLen                                   int

	// Per-table lookup cycles, frozen at compile time (size-based).
	aclCycles, qosCycles, routeCycles, vxlanCycles, srvCycles uint64
	natCycles, policyCycles, mirrorCycles, flowCycles         uint64
	statsCycles                                               uint64

	hasNAT, hasPolicy, hasMirror, hasFlow, hasStats bool

	acl        aclSoA
	aclDefault Verdict
	qos        qosSoA
	route      hashLPM
	vxlan      hashLPM
	srv        u32Hash
	nat        natSoA
	policy     prefixSoA
	mirror     prefixSoA
	flow       prefixSoA
	stats      statsSoA
}

// compiled returns the up-to-date compiled form, rebuilding it when
// the version (or a defensive fingerprint) changed.
func (rs *RuleSet) compiled() *soaRules {
	c := rs.soa
	if c != nil && c.version == rs.version && c.fresh(rs) {
		return c
	}
	c = compileSoA(rs)
	rs.soa = c
	return c
}

func (c *soaRules) fresh(rs *RuleSet) bool {
	if !rs.ACL.sorted || c.aclLen != rs.ACL.Len() || c.routeLen != rs.Route.Len() ||
		c.qosLen != rs.QoS.Len() || c.vxlanLen != rs.VXLAN.Len() || c.srvLen != rs.VNICSrv.Len() {
		return false
	}
	if c.hasNAT != (rs.NAT != nil) || (rs.NAT != nil && c.natLen != rs.NAT.Len()) {
		return false
	}
	if c.hasPolicy != (rs.Policy != nil) || (rs.Policy != nil && c.policyLen != rs.Policy.Len()) {
		return false
	}
	if c.hasMirror != (rs.Mirror != nil) || (rs.Mirror != nil && c.mirrorLen != rs.Mirror.Len()) {
		return false
	}
	if c.hasFlow != (rs.FlowLog != nil) || (rs.FlowLog != nil && c.flowLen != rs.FlowLog.Len()) {
		return false
	}
	if c.hasStats != (rs.Stats != nil) || (rs.Stats != nil && c.statsLen != rs.Stats.Len()) {
		return false
	}
	return true
}

func compileSoA(rs *RuleSet) *soaRules {
	if !rs.ACL.sorted {
		rs.ACL.sortRules()
	}
	c := &soaRules{
		version: rs.version,
		vnic:    rs.VNIC,
		vpc:     rs.VPC,

		aclLen: rs.ACL.Len(), routeLen: rs.Route.Len(), qosLen: rs.QoS.Len(),
		vxlanLen: rs.VXLAN.Len(), srvLen: rs.VNICSrv.Len(),

		aclCycles: rs.ACL.LookupCycles(), qosCycles: rs.QoS.LookupCycles(),
		routeCycles: rs.Route.LookupCycles(), vxlanCycles: rs.VXLAN.LookupCycles(),
		srvCycles: rs.VNICSrv.LookupCycles(),

		aclDefault: rs.ACL.Default,
	}
	c.acl.compile(rs.ACL.rules)
	c.qos.compile(rs.QoS)
	c.route.compile(&rs.Route.byLen)
	c.vxlan.compile(&rs.VXLAN.routes.byLen)
	compileU32(&c.srv, rs.VNICSrv.m)
	if rs.NAT != nil {
		c.hasNAT, c.natLen, c.natCycles = true, rs.NAT.Len(), rs.NAT.LookupCycles()
		c.nat.compile(rs.NAT.entries)
	}
	if rs.Policy != nil {
		c.hasPolicy, c.policyLen, c.policyCycles = true, rs.Policy.Len(), rs.Policy.LookupCycles()
		c.policy.compile(rs.Policy.prefixes)
	}
	if rs.Mirror != nil {
		c.hasMirror, c.mirrorLen, c.mirrorCycles = true, rs.Mirror.Len(), rs.Mirror.LookupCycles()
		c.mirror.compile(rs.Mirror.prefixes)
	}
	if rs.FlowLog != nil {
		c.hasFlow, c.flowLen, c.flowCycles = true, rs.FlowLog.Len(), rs.FlowLog.LookupCycles()
		c.flow.compile(rs.FlowLog.prefixes)
	}
	if rs.Stats != nil {
		c.hasStats, c.statsLen, c.statsCycles = true, rs.Stats.Len(), rs.Stats.LookupCycles()
		c.stats.compile(rs.Stats)
	}
	return c
}

// --- ACL: parallel match arrays, priority order ----------------------

// aclSoA holds one column per match field; rule i occupies index i in
// every column, in stable priority order (ties keep insertion order),
// so the first match is the rule the reference walk picks.
type aclSoA struct {
	srcRef, srcMask []uint32
	dstRef, dstMask []uint32
	srcLo, srcHi    []uint16
	dstLo, dstHi    []uint16
	proto           []uint8
	verdict         []uint8
}

func (a *aclSoA) compile(rules []ACLRule) {
	n := len(rules)
	a.srcRef, a.srcMask = make([]uint32, n), make([]uint32, n)
	a.dstRef, a.dstMask = make([]uint32, n), make([]uint32, n)
	a.srcLo, a.srcHi = make([]uint16, n), make([]uint16, n)
	a.dstLo, a.dstHi = make([]uint16, n), make([]uint16, n)
	a.proto, a.verdict = make([]uint8, n), make([]uint8, n)
	for i := range rules {
		r := &rules[i]
		a.srcRef[i], a.srcMask[i] = uint32(r.Src.IP), uint32(mask(r.Src.Len))
		a.dstRef[i], a.dstMask[i] = uint32(r.Dst.IP), uint32(mask(r.Dst.Len))
		a.srcLo[i], a.srcHi[i] = normRange(r.SrcPorts)
		a.dstLo[i], a.dstHi[i] = normRange(r.DstPorts)
		a.proto[i] = uint8(r.Proto)
		a.verdict[i] = uint8(r.Verdict)
	}
}

// normRange widens the zero "match anything" range so the hot scan
// needs no special case.
func normRange(r PortRange) (uint16, uint16) {
	if r.Lo == 0 && r.Hi == 0 {
		return 0, 65535
	}
	return r.Lo, r.Hi
}

// lookup returns the first (highest-priority) matching rule's verdict
// or def.
func (a *aclSoA) lookup(ft packet.FiveTuple, def Verdict) Verdict {
	src, dst := uint32(ft.SrcIP), uint32(ft.DstIP)
	sp, dp, proto := ft.SrcPort, ft.DstPort, uint8(ft.Proto)
	for i := range a.dstRef {
		if src&a.srcMask[i] != a.srcRef[i] || dst&a.dstMask[i] != a.dstRef[i] {
			continue
		}
		if a.proto[i] != 0 && a.proto[i] != proto {
			continue
		}
		if sp < a.srcLo[i] || sp > a.srcHi[i] || dp < a.dstLo[i] || dp > a.dstHi[i] {
			continue
		}
		return Verdict(a.verdict[i])
	}
	return def
}

// --- QoS: open-addressed port table + dense class rates --------------

type qosSoA struct {
	slots   []qosSlot // open-addressed by port
	idxMask uint32
	rate    [256]uint64
}

type qosSlot struct {
	port  uint16
	class uint8
	used  bool
}

func (q *qosSoA) compile(t *QoSTable) {
	size := tableSize(len(t.portClass))
	q.idxMask = uint32(size - 1)
	if len(t.portClass) == 0 {
		q.slots = emptyQoS[:]
	} else {
		q.slots = make([]qosSlot, size)
	}
	for port, class := range t.portClass {
		i := hash32(uint32(port)) & q.idxMask
		for q.slots[i].used {
			i = (i + 1) & q.idxMask
		}
		q.slots[i] = qosSlot{port: port, class: class, used: true}
	}
	for class, rate := range t.classes {
		q.rate[class] = rate
	}
}

func (q *qosSoA) lookup(dstPort uint16) (uint8, uint64) {
	var class uint8
	for i := hash32(uint32(dstPort)) & q.idxMask; q.slots[i].used; i = (i + 1) & q.idxMask {
		if q.slots[i].port == dstPort {
			class = q.slots[i].class
			break
		}
	}
	return class, q.rate[class]
}

// --- LPM: open-addressed exact-match level per prefix length ---------

// hashLPM compiles the 33-map route table into open-addressed levels
// probed longest-first — the same level order as the reference route
// lookup, so longest-prefix semantics are preserved exactly.
type hashLPM struct {
	levels []lpmLevel
}

type lpmLevel struct {
	mask uint32
	u32Hash
}

func (t *hashLPM) compile(byLen *[33]map[packet.IPv4]packet.IPv4) {
	t.levels = t.levels[:0]
	for l := 32; l >= 0; l-- {
		if m := byLen[l]; len(m) > 0 {
			lv := lpmLevel{mask: uint32(mask(uint8(l)))}
			compileU32(&lv.u32Hash, m)
			t.levels = append(t.levels, lv)
		}
	}
}

func (t *hashLPM) lookup(ip uint32) (uint32, bool) {
	for li := range t.levels {
		lv := &t.levels[li]
		if v, ok := lv.lookup(ip & lv.mask); ok {
			return v, true
		}
	}
	return 0, false
}

// --- vNIC-server map: open-addressed uint32 -> IPv4 ------------------

// u32Hash is an open-addressed uint32 -> uint32 table whose slots hold
// key, value and occupancy together: one array to allocate, and one
// cache line per probe.
type u32Hash struct {
	slots   []u32Slot
	idxMask uint32
}

type u32Slot struct {
	key, val uint32
	used     bool
}

func compileU32[K ~uint32](t *u32Hash, m map[K]packet.IPv4) {
	size := tableSize(len(m))
	t.idxMask = uint32(size - 1)
	if len(m) == 0 {
		t.slots = emptySlots[:]
		return
	}
	t.slots = make([]u32Slot, size)
	for k, v := range m {
		i := hash32(uint32(k)) & t.idxMask
		for t.slots[i].used {
			i = (i + 1) & t.idxMask
		}
		t.slots[i] = u32Slot{key: uint32(k), val: uint32(v), used: true}
	}
}

func (t *u32Hash) lookup(key uint32) (uint32, bool) {
	for i := hash32(key) & t.idxMask; t.slots[i].used; i = (i + 1) & t.idxMask {
		if t.slots[i].key == key {
			return t.slots[i].val, true
		}
	}
	return 0, false
}

// --- NAT / flag / stats prefix lists ---------------------------------

type natSoA struct {
	ref, msk []uint32
	xlatIP   []uint32
	xlatPort []uint16
	origIP   []uint32
	origLen  []uint8
}

func (t *natSoA) compile(entries []NATEntry) {
	n := len(entries)
	t.ref, t.msk = make([]uint32, n), make([]uint32, n)
	t.xlatIP, t.xlatPort = make([]uint32, n), make([]uint16, n)
	t.origIP, t.origLen = make([]uint32, n), make([]uint8, n)
	for i := range entries {
		e := &entries[i]
		t.ref[i], t.msk[i] = uint32(e.Orig.IP), uint32(mask(e.Orig.Len))
		t.xlatIP[i], t.xlatPort[i] = uint32(e.XlatIP), e.XlatPort
		t.origIP[i], t.origLen[i] = uint32(e.Orig.IP), e.Orig.Len
	}
}

func (t *natSoA) lookup(dst uint32) (NATEntry, bool) {
	for i := range t.ref {
		if dst&t.msk[i] == t.ref[i] {
			return NATEntry{
				Orig:     Prefix{IP: packet.IPv4(t.origIP[i]), Len: t.origLen[i]},
				XlatIP:   packet.IPv4(t.xlatIP[i]),
				XlatPort: t.xlatPort[i],
			}, true
		}
	}
	return NATEntry{}, false
}

type prefixSoA struct {
	ref, msk []uint32
}

func (t *prefixSoA) compile(prefixes []Prefix) {
	n := len(prefixes)
	t.ref, t.msk = make([]uint32, n), make([]uint32, n)
	for i, p := range prefixes {
		t.ref[i], t.msk[i] = uint32(p.IP), uint32(mask(p.Len))
	}
}

func (t *prefixSoA) lookup(ip uint32) bool {
	for i := range t.ref {
		if ip&t.msk[i] == t.ref[i] {
			return true
		}
	}
	return false
}

type statsSoA struct {
	ref, msk []uint32
	policy   []uint8
	def      StatsPolicy
}

func (t *statsSoA) compile(src *StatsPolicyTable) {
	n := len(src.entries)
	t.ref, t.msk = make([]uint32, n), make([]uint32, n)
	t.policy = make([]uint8, n)
	t.def = src.Default
	for i := range src.entries {
		e := &src.entries[i]
		t.ref[i], t.msk[i] = uint32(e.p.IP), uint32(mask(e.p.Len))
		t.policy[i] = uint8(e.policy)
	}
}

func (t *statsSoA) lookup(ip uint32) StatsPolicy {
	for i := range t.ref {
		if ip&t.msk[i] == t.ref[i] {
			return StatsPolicy(t.policy[i])
		}
	}
	return t.def
}

// --- shared helpers --------------------------------------------------

// tableSize returns a power-of-two open-addressing size with load
// factor <= 0.5 (min 2: the probe loops terminate on an unused slot,
// so the table must never be full).
func tableSize(n int) int {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return size
}

// Every empty open-addressed table probes these arrays of
// tableSize(0) slots: all unused, and never written, so a rule set
// with no QoS ports or vNIC-server entries compiles without
// allocating them.
var (
	emptySlots [2]u32Slot
	emptyQoS   [2]qosSlot
)

// hash32 is a Fibonacci multiplicative hash; internal placement only,
// never digest-visible.
func hash32(x uint32) uint32 {
	return uint32((uint64(x) * 0x9E3779B97F4A7C15) >> 32)
}
