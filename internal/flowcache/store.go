package flowcache

import (
	"nezha/internal/state"
	"nezha/internal/tables"
)

// prePool interns a table's pre-actions: one reference-counted slot
// per distinct (value, version) pair, shared by every entry that
// caches it. The zero value is an empty pool; the first intern
// allocates it.
type prePool struct {
	slots []preSlot
	// index finds a pair's slot: buckets {h: hashPre(value, version),
	// idx: slot + 1}, probed and shifted like the table's.
	index index
	free  uint32 // freelist head (slot + 1); 0 = empty
}

// preSlot is one interned value and the RuleSet version it was
// derived from.
type preSlot struct {
	val     tables.PreActions
	version uint64
	// h is hashPre(val, version); on a free slot it links the freelist
	// instead.
	h uint32
	// refs counts the entries holding the slot; 0 marks a free slot.
	refs uint32
}

// get returns slot id; id must hold a reference.
func (p *prePool) get(id uint32) *preSlot {
	s := &p.slots[id]
	checkPre(s)
	return s
}

// intern returns the slot holding (*v, version), taking a reference on
// it, and fills a free slot with the pair when no slot holds it yet.
func (p *prePool) intern(v *tables.PreActions, version uint64) uint32 {
	if p.index.buckets == nil {
		p.index.init()
	}
	ix, h := &p.index, hashPre(v, version)
	i := h & ix.mask
	for b := ix.buckets[i]; b.idx != 0; b = ix.buckets[i] {
		if s := &p.slots[b.idx-1]; b.h == h && s.version == version && s.val == *v {
			s.refs++
			return b.idx - 1
		}
		i = (i + 1) & ix.mask
	}
	if ix.full() {
		ix.grow()
		i = ix.emptyFrom(h)
	}
	var id uint32
	if p.free != 0 {
		id = p.free - 1
		p.free = p.slots[id].h
	} else {
		id = uint32(len(p.slots))
		p.slots = append(p.slots, preSlot{})
	}
	p.slots[id] = preSlot{val: *v, version: version, h: h, refs: 1}
	ix.buckets[i] = bucket{h: h, idx: id + 1}
	ix.n++
	return id
}

// release drops one reference on slot id, freeing the slot with the
// last one.
func (p *prePool) release(id uint32) {
	s := &p.slots[id]
	checkPre(s)
	if s.refs--; s.refs > 0 {
		return
	}
	p.index.removeAt(p.index.slotOf(s.h, id))
	*s = preSlot{h: p.free}
	poisonPre(s)
	p.free = id + 1
}

// hashPre hashes a pre-actions value and its version field by field
// (the struct has padding, so its bytes are not a key): each direction
// packs into four words, and the nine words are multiplied by distinct
// odd constants — independent products the CPU overlaps — summed and
// avalanched. Equal pairs hash equally; intern compares pairs, so a
// collision costs only a probe.
func hashPre(v *tables.PreActions, version uint64) uint32 {
	h := preWords(&v.TX, 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xc2b2ae3d27d4eb4f) +
		preWords(&v.RX, 0x165667b19e3779f9, 0x27d4eb2f165667c5, 0x85ebca77c2b2ae63, 0x9fb21c651e98df25) +
		version*0xd6e8feb86659fd93
	h ^= h >> 32
	return uint32(h * 0x9e3779b97f4a7c15 >> 32)
}

// preWords is one direction's share of hashPre.
func preWords(a *tables.PreAction, k0, k1, k2, k3 uint64) uint64 {
	flags := uint64(a.ACL) | uint64(a.QoSClass)<<8 | uint64(a.Stats)<<16 | uint64(a.NATPort)<<24 |
		bit(a.NAT)<<40 | bit(a.Mirror)<<41 | bit(a.FlowLog)<<42
	return (uint64(a.NextHop)<<32|uint64(a.PeerVNIC))*k0 + (uint64(a.EncapVNI)<<32|uint64(a.NATIP))*k1 +
		a.RateBps*k2 + flags*k3
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// stateStore holds a table's session states in full-size slabs of
// maxSlab slots (one size class; a table's first SetState allocates
// one), so finding a slot is one shift and one mask. Only SetState
// takes a slot, so entries without state — an FE's cached flows —
// occupy none.
type stateStore struct {
	slabs []*[maxSlab]state.State
	used  uint32 // slots below used are live or on the freelist
	// free is the freelist head (slot + 1; 0 = empty), linked through
	// the free slots' Pkts.
	free uint32
	n    uint32 // live slots
}

// at returns slot i.
func (s *stateStore) at(i uint32) *state.State {
	return &s.slabs[i>>maxSlabBits][i&(maxSlab-1)]
}

// alloc hands out a slot, reusing the freelist before extending the
// slabs. The caller overwrites it.
func (s *stateStore) alloc() uint32 {
	s.n++
	if s.free != 0 {
		i := s.free - 1
		s.free = uint32(s.at(i).Pkts)
		return i
	}
	if s.used&(maxSlab-1) == 0 {
		s.slabs = append(s.slabs, new([maxSlab]state.State))
	}
	s.used++
	return s.used - 1
}

// release returns slot i to the freelist.
func (s *stateStore) release(i uint32) {
	st := s.at(i)
	checkState(st)
	*st = state.State{Pkts: uint64(s.free)}
	poisonState(st)
	s.free = i + 1
	s.n--
}

// maxScopes bounds a table's live scopes: ids run from 0 to
// maxScopes-1, and noScope, the one id left, names no scope.
const (
	maxScopes = 1<<16 - 1
	noScope   = uint16(maxScopes)
)

// scopeSet interns a table's (vNIC, VPC) pairs into 16-bit scope ids:
// one record per pair any live entry holds, counting those entries and
// the ones among them with state, freed with the last entry. The zero
// value is an empty set; the first intern allocates it.
type scopeSet struct {
	recs []scope
	// index finds a pair's record: buckets {h: hashScope(vnic, vpc),
	// idx: id + 1}, probed and shifted like the table's.
	index index
	free  uint32 // freelist head (id + 1); 0 = empty
}

// scope is one interned (vNIC, VPC) pair.
type scope struct {
	vnic, vpc uint32
	// h is hashScope(vnic, vpc); on a free record it links the freelist
	// instead.
	h uint32
	// entries counts the live entries in the scope; 0 marks a free
	// record. states counts those holding state.
	entries, states uint32
}

// hashScope hashes a (vNIC, VPC) pair for the scope index.
func hashScope(vnic, vpc uint32) uint32 {
	return uint32((uint64(vnic)<<32 | uint64(vpc)) * 0x9e3779b97f4a7c15 >> 32)
}

// find returns the id of the pair's scope, or noScope when the set
// holds none. Only an insert asks: a lookup compares the pair of the
// entry it probes (Table.matches).
func (s *scopeSet) find(vnic, vpc uint32) uint16 {
	if s.index.buckets == nil {
		return noScope
	}
	h := hashScope(vnic, vpc)
	ix := &s.index
	for i, b := h&ix.mask, ix.buckets[h&ix.mask]; b.idx != 0; b = ix.buckets[i] {
		if r := &s.recs[b.idx-1]; b.h == h && r.vnic == vnic && r.vpc == vpc {
			return uint16(b.idx - 1)
		}
		i = (i + 1) & ix.mask
	}
	return noScope
}

// full reports whether the set holds maxScopes live scopes.
func (s *scopeSet) full() bool { return s.index.n == maxScopes }

// intern adds a scope for a pair the set does not hold and returns its
// id; the set must not be full. The caller counts its first entry.
func (s *scopeSet) intern(vnic, vpc uint32) uint16 {
	if s.index.buckets == nil {
		s.index.init()
	}
	ix, h := &s.index, hashScope(vnic, vpc)
	if ix.full() {
		ix.grow()
	}
	var id uint32
	if s.free != 0 {
		id = s.free - 1
		s.free = s.recs[id].h
	} else {
		id = uint32(len(s.recs))
		s.recs = append(s.recs, scope{})
	}
	s.recs[id] = scope{vnic: vnic, vpc: vpc, h: h}
	ix.buckets[ix.emptyFrom(h)] = bucket{h: h, idx: id + 1}
	ix.n++
	return uint16(id)
}

// release frees scope id, whose last entry has gone.
func (s *scopeSet) release(id uint16) {
	r := &s.recs[id]
	s.index.removeAt(s.index.slotOf(r.h, uint32(id)))
	*r = scope{h: s.free}
	s.free = uint32(id) + 1
}
