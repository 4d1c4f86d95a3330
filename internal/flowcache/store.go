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
// maxSlab slots (a whole number of pages; a table's first SetState
// allocates one), so finding a slot is one shift and one mask. Only
// SetState takes a slot, so entries without state — an FE's cached
// flows — occupy none.
type stateStore struct {
	slabs []*[maxSlab]state.State
	used  uint32 // slots below used are live or on the freelist
	// free is the freelist head (slot + 1; 0 = empty), linked through
	// the free slots' Pkts.
	free uint32
	n    uint32 // live slots
	// vnics counts the live slots per vNIC, one element per vNIC holding
	// any; a vNIC's element goes when its count reaches zero. memo is
	// the element last touched: a table's sessions belong to a few
	// vNICs, mostly in runs, so the upkeep is a compare and an add per
	// session.
	vnics []VNICStates
	memo  int
}

// VNICStates is one vNIC's count of entries holding state in a table.
type VNICStates struct {
	VNIC uint32
	N    uint32
}

// count returns vnic's element of vnics, adding it at zero if absent.
func (s *stateStore) count(vnic uint32) *VNICStates {
	if s.memo < len(s.vnics) && s.vnics[s.memo].VNIC == vnic {
		return &s.vnics[s.memo]
	}
	for i := range s.vnics {
		if s.vnics[i].VNIC == vnic {
			s.memo = i
			return &s.vnics[i]
		}
	}
	s.memo = len(s.vnics)
	s.vnics = append(s.vnics, VNICStates{VNIC: vnic})
	return &s.vnics[s.memo]
}

// at returns slot i.
func (s *stateStore) at(i uint32) *state.State {
	return &s.slabs[i>>maxSlabBits][i&(maxSlab-1)]
}

// alloc hands out a slot for a session of vnic, reusing the freelist
// before extending the slabs. The caller overwrites it.
func (s *stateStore) alloc(vnic uint32) uint32 {
	s.n++
	s.count(vnic).N++
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

// release returns slot i, held by a session of vnic, to the freelist.
func (s *stateStore) release(i, vnic uint32) {
	st := s.at(i)
	checkState(st)
	*st = state.State{Pkts: uint64(s.free)}
	poisonState(st)
	s.free = i + 1
	s.n--
	c := s.count(vnic)
	if c.N--; c.N == 0 {
		last := len(s.vnics) - 1
		s.vnics[s.memo] = s.vnics[last]
		s.vnics = s.vnics[:last]
	}
}
