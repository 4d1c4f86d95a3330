// Package flowcache implements the session table (Fig 1): cached
// bidirectional flows holding pre-actions, session state, or both,
// keyed by (VPC ID, normalized 5-tuple) for exact-match fast-path
// processing.
//
// The same structure serves three roles:
//
//   - a monolithic vSwitch stores pre-actions AND state per entry;
//   - a Nezha frontend (FE) stores pre-action-only entries — the
//     stateless "cached flows" that are safe to regenerate anywhere;
//   - a Nezha backend (BE) stores state-only entries — the single
//     local copy of session state.
//
// Every entry is charged to a byte budget, which is how the paper's
// "#concurrent flows limited by memory on fast path" bottleneck
// arises: when the budget is exhausted, inserts fail and new flows
// are dropped (an overload). Aging follows the state's FSM phase
// (short for establishing sessions, §7.3).
//
// Layout. The table is one open-addressed bucket array (linear
// probing, backward-shift deletion) over one slab store of entries,
// and the storage is shaped by the roles: an entry holds only what a
// hit and an aging check read, its (vNIC, VPC) pair and its
// pre-actions are interned in per-table stores, and session state
// lives in a separate slab store that only SetState draws from, so an
// FE's cached flow pays for no state.
//
// A bucket is 8 bytes: {h, idx}. h is uint32(hash) — the home slot in
// its low bits, a tag above — and idx is the entry's slab index + 1 (0
// marks an empty bucket). A probe walks the bucket array alone and
// dereferences an entry only where h matches, so a hit touches one
// entry and a miss none; growth and backward shift re-home buckets
// from h without touching entries.
//
// An Entry is 32 bytes, half a cache line, so none straddles two. Its
// first 16 bytes are the key: the 13-byte normalized tuple, the flags
// byte and a 16-bit scope id. A table interns the (vNIC, VPC) pairs of
// its keys into scopes, found through an index of the table's own kind
// and reference-counted by their entries, so an entry names its pair in
// 2 bytes, not 8; a probe whose tag and tuple match compares the
// scope's pair, and Table.Key rebuilds the whole key. The other 16
// bytes are the pre-actions id, the state slot and LastSeen. The entry
// keeps no copy of its bucket hash: bulk deletion rehashes the key to
// find the bucket, the only place that needs it. A recycled entry
// links the freelist through its pre-actions id. Entries live in
// append-only slabs addressed by index: slab sizes double from minSlab
// to maxSlab entries and stay there (a table with a dozen flows holds
// two minSlab slabs; a table with 10^5 wastes at most one part-filled
// maxSlab slab, where doubling forever would strand up to half the
// store). Deleted entries go on an index freelist threaded through the
// entries themselves.
//
// Pre-actions are interned: the pool maps each distinct (value, rule
// set version) pair to one reference-counted slot, found through its
// own open-addressed index keyed by the pair's hash, so the many flows
// that share a rule result share one copy, and the version a hit test
// compares lives with the value (PreVersion). SetPre takes a
// reference, and SetPre overwrite, DropPre, deletion and Clear release
// it; a slot whose count reaches zero goes on the pool's freelist. The
// pool is allocated on the first SetPre, so a BE's state-only table
// has none. States live in a store of their own: full-size slabs of
// maxSlab 40-byte slots, one taken per SetState on an entry without
// state and returned when the entry goes, with a freelist threaded
// through the free slots. At the end of the crr_offload benchmark
// 89 % of live entries hold no state. A scope counts its entries and
// those holding state, which is all StateCounts reads.
//
// Nothing in the bucket arrays, the entry and state slabs, the scopes
// or the pool is a Go pointer, so the collector marks the table
// without scanning it. The simulated byte model (EntryOverheadBytes,
// PreActionsBytes, state.FixedSizeBytes, MemBytes, Rejects) charges
// every entry for its own pre-actions and state as before; it has
// nothing to do with how Go stores them.
//
// Pointer stability: entry slabs are never moved or freed while the
// table lives, so an *Entry stays valid — the same live entry — until
// that entry is deleted (Delete, Sweep, InvalidateVNIC, Clear), across
// any number of unrelated inserts, deletes and bucket growth. Pre and
// State read an entry's pre-actions and state through it for as long.
// The pointers they return are read-only views — an interned value is
// every caching entry's, and the zero value returned for "none" is
// every such entry's — valid until the next call that changes the
// table; SetPre, DropPre, SetState and TouchState, the charging sites,
// are the only writers. After an entry's deletion its slot is recycled
// by a later insert and the *Entry must not be used; the simdebug
// build poisons recycled entries, released state slots and released
// pre-actions slots, and panics when one is handed back to the table
// or read through Pre or State, or when a value Pre or State returned
// was written through.
//
// An entry's vNIC is its key's: GetOrCreate's vnic argument must equal
// key.VNIC, and the hash passed to an *H variant must be key.Hash();
// the simdebug build checks both.
//
// A table holds at most maxScopes (65 535) distinct (vNIC, VPC) pairs
// at once; an insert needing one more is refused with ErrNoMemory and
// counted in Rejects, like one past the budget, and the table accepts
// new pairs again once the last entry of some pair is deleted.
//
// The *H method variants accept the caller's precomputed key hash so
// the datapath hashes each packet's key once.
package flowcache

import (
	"errors"
	"math/bits"

	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// Per-entry memory footprints (bytes). A full entry is O(100B) as the
// paper reports: bidirectional 5-tuple + VPC + pre-actions + state.
// These are the simulated SmartNIC's bytes — what MemBytes, the budget
// and Rejects count — and have nothing to do with Go's size of Entry.
const (
	EntryOverheadBytes = 64 // key, links, aging bookkeeping
	PreActionsBytes    = 64 // bidirectional pre-actions
)

// ErrNoMemory is returned when inserting would exceed the byte budget.
var ErrNoMemory = errors.New("flowcache: memory budget exhausted")

// Entry is one session's cached record: 32 bytes with no pointers (the
// slabs are invisible to the collector) holding everything a lookup
// hit and an aging check read. Its key is read through Table.Key, and
// its pre-actions, their version and its state through Table.Pre,
// Table.PreVersion and Table.State.
type Entry struct {
	// The key: the normalized tuple field by field, so that the flags
	// and the scope id fill what would be its padding, and the scope —
	// the key's (vNIC, VPC) pair, interned in the table.
	src, dst     packet.IPv4
	sport, dport uint16
	proto        packet.Proto
	flags        uint8
	scope        uint16

	// pre is the pre-actions slot in the pool while HasPre; on a
	// recycled entry it links the freelist (slab index + 1; 0 ends it).
	pre uint32
	// st is the state slot while HasState.
	st uint32

	// LastSeen is the last access time (ns), for aging.
	LastSeen int64
}

// Entry flags.
const (
	// flagPre marks cached pre-actions (fast-path rules result).
	flagPre uint8 = 1 << iota
	// flagState marks locally maintained session state.
	flagState
	// flagLive is set while the entry is in the table; the slab walks
	// skip the rest, and the simdebug tripwire reads it.
	flagLive
)

// HasPre reports whether e caches pre-actions (a fast-path rules
// result).
func (e *Entry) HasPre() bool { return e.flags&flagPre != 0 }

// HasState reports whether e holds locally maintained session state.
func (e *Entry) HasState() bool { return e.flags&flagState != 0 }

func (e *Entry) live() bool { return e.flags&flagLive != 0 }

// matches reports whether e is key's entry: its tuple, then its
// scope's pair. A table holds a few scopes, so their records stay in
// cache, and a probe needs no scope id up front.
func (t *Table) matches(e *Entry, key *packet.SessionKey) bool {
	ft := &key.Tuple
	if e.src != ft.SrcIP || e.dst != ft.DstIP || e.sport != ft.SrcPort || e.dport != ft.DstPort || e.proto != ft.Proto {
		return false
	}
	sc := &t.scopes.recs[e.scope]
	return sc.vnic == key.VNIC && sc.vpc == key.VPC
}

// Key returns the session key e was created under; its VNIC is the
// vNIC e belongs to.
func (t *Table) Key(e *Entry) packet.SessionKey {
	checkLive(e)
	sc := &t.scopes.recs[e.scope]
	return packet.SessionKey{VNIC: sc.vnic, VPC: sc.vpc, Tuple: packet.FiveTuple{
		SrcIP: e.src, DstIP: e.dst, SrcPort: e.sport, DstPort: e.dport, Proto: e.proto,
	}}
}

// SizeOf reports the bytes e occupies under this table's layout — the
// accounting the profiler uses to attribute session-table residency
// per vNIC at drain time.
func (t *Table) SizeOf(e *Entry) int {
	n := EntryOverheadBytes
	if e.HasPre() {
		n += PreActionsBytes
	}
	if e.HasState() {
		n += t.stateBytes(t.stateOf(e))
	}
	return n
}

// stateBytes is what a state slot holding s is charged.
func (t *Table) stateBytes(s *state.State) int {
	if t.cfg.VariableState {
		return s.EncodedSize()
	}
	return state.FixedSizeBytes
}

// Config controls a table's budget and layout.
type Config struct {
	// MaxBytes is the memory budget; 0 means unlimited.
	MaxBytes int
	// VariableState stores states at their encoded size instead of
	// the fixed 64 B slot — the §7.1 "potential to increase
	// #concurrent flows" ablation.
	VariableState bool
}

// minBuckets keeps tiny indexes probe-friendly.
const minBuckets = 8

// Entry slab sizes: minSlab, minSlab again, then doubling up to
// maxSlab and maxSlab from there on, so the slabs' total capacity
// passes through every power of two from minSlab up and every
// multiple of maxSlab — a table of 4096 flows holds exactly 4096
// entries. State slabs are all maxSlab. Every entry slab (8 to
// 512 × 32 B) and a state slab (512 × 40 B = 20 480 B) is exactly one
// of the Go allocator's size classes, so none wastes a class's tail.
const (
	minSlabBits = 3
	maxSlabBits = 9
	minSlab     = 1 << minSlabBits
	maxSlab     = 1 << maxSlabBits
)

// bucket is one slot of an index; see the package comment.
type bucket struct {
	h   uint32
	idx uint32
}

// index is one open-addressed bucket array (linear probing): the
// table's over its entries, and the scope set's and the pre-actions
// pool's over their records.
type index struct {
	buckets []bucket
	mask    uint32
	n       uint32
}

// Table is the session table. Not safe for concurrent use; the
// simulation is single-threaded by design.
type Table struct {
	cfg   Config
	index index
	count int
	mem   int

	slabs [][]Entry
	used  uint32 // indices below used are live or on the freelist
	free  uint32 // freelist head (slab index + 1); 0 = empty

	scopes scopeSet
	pre    prePool
	states stateStore

	// The last LookupH miss: its key and the empty slot the probe ended
	// on. A GetOrCreateH for that key with no table change in between —
	// the slow path's lookup → rule walk → install sequence — inserts
	// there without probing again.
	missKey  packet.SessionKey
	missSlot uint32
	missOK   bool

	// Counters for the experiments.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Rejects   uint64
}

// New returns an empty table.
func New(cfg Config) *Table {
	t := &Table{cfg: cfg}
	t.index.init()
	return t
}

func (s *index) init() {
	s.buckets = make([]bucket, minBuckets)
	s.mask = minBuckets - 1
	s.n = 0
}

// entry returns the entry at slab index i.
func (t *Table) entry(i uint32) *Entry {
	k, off := slabOf(i)
	return &t.slabs[k][off]
}

// slabOf maps a slab index to (slab, offset): full-size slabs hold one
// maxSlab-aligned block of indices each; below them slab k ≥ 1 holds
// the indices whose top bit is minSlabBits+k-1, and slab 0 the first
// minSlab.
func slabOf(i uint32) (k, off uint32) {
	switch {
	case i >= maxSlab:
		return i>>maxSlabBits + (maxSlabBits - minSlabBits), i & (maxSlab - 1)
	case i < minSlab:
		return 0, i
	}
	b := uint32(bits.Len32(i)) - 1
	return b - minSlabBits + 1, i &^ (1 << b)
}

// slabLen is the size of slab k.
func slabLen(k uint32) int {
	if k == 0 {
		return minSlab
	}
	return minSlab << min(k-1, maxSlabBits-minSlabBits)
}

// find probes the index for key. It returns the entry and its slot, or
// nil and the empty slot the probe ended on.
func (t *Table) find(key *packet.SessionKey, h uint32) (*Entry, uint32) {
	s := &t.index
	i := h & s.mask
	for {
		b := s.buckets[i]
		if b.idx == 0 {
			return nil, i
		}
		if b.h == h {
			if e := t.entry(b.idx - 1); t.matches(e, key) {
				return e, i
			}
		}
		i = (i + 1) & s.mask
	}
}

// emptyFrom returns the first empty slot at or after h's home.
func (s *index) emptyFrom(h uint32) uint32 {
	i := h & s.mask
	for s.buckets[i].idx != 0 {
		i = (i + 1) & s.mask
	}
	return i
}

// slotOf returns the slot whose bucket points at slab index idx; the
// entry must be in the index.
func (s *index) slotOf(h, idx uint32) uint32 {
	i := h & s.mask
	for s.buckets[i].idx != idx+1 {
		i = (i + 1) & s.mask
	}
	return i
}

// full reports whether one more bucket would pass the 3/4 load limit.
func (s *index) full() bool { return (s.n+1)*4 > (s.mask+1)*3 }

func (s *index) grow() {
	old := s.buckets
	s.buckets = make([]bucket, 2*len(old))
	s.mask = uint32(len(s.buckets) - 1)
	for _, b := range old {
		if b.idx != 0 {
			s.buckets[s.emptyFrom(b.h)] = b
		}
	}
}

// removeAt empties slot i via backward shift, keeping every remaining
// bucket reachable from its home slot.
func (s *index) removeAt(i uint32) {
	s.n--
	j := i
	for {
		j = (j + 1) & s.mask
		b := s.buckets[j]
		if b.idx == 0 {
			break
		}
		// Pull a displaced successor into the hole unless its home lies
		// between the hole and where it sits.
		if (j-b.h)&s.mask >= (j-i)&s.mask {
			s.buckets[i] = b
			i = j
		}
	}
	s.buckets[i] = bucket{}
}

// alloc hands out a zeroed entry and its slab index, reusing the
// freelist before extending the slabs.
func (t *Table) alloc() (uint32, *Entry) {
	if t.free != 0 {
		i := t.free - 1
		e := t.entry(i)
		t.free, e.pre = e.pre, 0
		return i, e
	}
	i := t.used
	k, off := slabOf(i)
	if int(k) == len(t.slabs) {
		t.slabs = append(t.slabs, make([]Entry, slabLen(k)))
	}
	t.used++
	return i, &t.slabs[k][off]
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.count }

// MemBytes returns the bytes currently charged.
func (t *Table) MemBytes() int { return t.mem }

// MaxBytes returns the configured budget (0 = unlimited).
func (t *Table) MaxBytes() int { return t.cfg.MaxBytes }

// SetMaxBytes adjusts the budget (offload/fallback resizes the
// partitions). Shrinking below current use does not evict eagerly;
// the next Sweep or insert pressure handles it.
func (t *Table) SetMaxBytes(n int) { t.cfg.MaxBytes = n }

// Lookup returns the entry for key, counting a hit or miss, and
// refreshes LastSeen on hit.
func (t *Table) Lookup(key packet.SessionKey, now int64) *Entry {
	return t.LookupH(key, key.Hash(), now)
}

// LookupH is Lookup with the key hash precomputed by the caller (the
// datapath hashes each packet's key once and reuses it for probing).
func (t *Table) LookupH(key packet.SessionKey, hash uint64, now int64) *Entry {
	e, slot := t.find(&key, uint32(hash))
	if e == nil {
		t.Misses++
		t.missKey, t.missSlot, t.missOK = key, slot, true
		return nil
	}
	t.Hits++
	e.LastSeen = now
	return e
}

// Peek returns the entry without touching counters or LastSeen.
func (t *Table) Peek(key packet.SessionKey) *Entry {
	return t.PeekH(key, key.Hash())
}

// PeekH is Peek with a precomputed hash.
func (t *Table) PeekH(key packet.SessionKey, hash uint64) *Entry {
	e, _ := t.find(&key, uint32(hash))
	return e
}

// GetOrCreate returns the existing entry or inserts an empty one,
// charging its overhead. It returns ErrNoMemory when the budget
// cannot fit a new entry, or when the key's (vNIC, VPC) pair is new
// and the table already holds maxScopes pairs. vnic must be key.VNIC.
func (t *Table) GetOrCreate(key packet.SessionKey, vnic uint32, now int64) (*Entry, error) {
	return t.GetOrCreateH(key, key.Hash(), vnic, now)
}

// GetOrCreateH is GetOrCreate with a precomputed hash.
func (t *Table) GetOrCreateH(key packet.SessionKey, hash uint64, vnic uint32, now int64) (*Entry, error) {
	checkKey(&key, hash, vnic)
	s, h := &t.index, uint32(hash)
	slot := t.missSlot
	if !t.missOK || t.missKey != key {
		var e *Entry
		if e, slot = t.find(&key, h); e != nil {
			e.LastSeen = now
			return e, nil
		}
	}
	sc := t.scopes.find(key.VNIC, key.VPC)
	if sc == noScope && t.scopes.full() {
		t.Rejects++
		return nil, ErrNoMemory
	}
	// A fresh entry has neither pre nor state.
	if !t.charge(EntryOverheadBytes) {
		return nil, ErrNoMemory
	}
	if sc == noScope {
		sc = t.scopes.intern(key.VNIC, key.VPC)
	}
	t.scopes.recs[sc].entries++
	if s.full() {
		s.grow()
		slot = s.emptyFrom(h)
	}
	idx, e := t.alloc()
	ft := &key.Tuple
	e.src, e.dst, e.sport, e.dport, e.proto = ft.SrcIP, ft.DstIP, ft.SrcPort, ft.DstPort, ft.Proto
	e.scope, e.flags, e.LastSeen = sc, flagLive, now
	s.buckets[slot] = bucket{h: h, idx: idx + 1}
	s.n++
	t.count++
	t.missOK = false
	return e, nil
}

// charge adds n bytes to the table's use. Growth that would exceed the
// budget is refused and counted; the caller leaves the entry as it was.
func (t *Table) charge(n int) bool {
	if n > 0 && t.cfg.MaxBytes > 0 && t.mem+n > t.cfg.MaxBytes {
		t.Rejects++
		return false
	}
	t.mem += n
	return true
}

// Pre returns e's cached pre-actions, or a zero value when it has
// none. It is read-only — the pool slot every entry caching an equal
// value shares — and valid until the next call that changes the
// table; SetPre and DropPre change an entry's pre-actions.
func (t *Table) Pre(e *Entry) *tables.PreActions {
	checkLive(e)
	if !e.HasPre() {
		checkNone()
		return &noPre
	}
	return &t.pre.get(e.pre).val
}

// PreVersion returns the RuleSet version e's pre-actions were derived
// from, or 0 when it has none. A version other than the rule set's is
// treated as a miss and the entry is regenerated (rule-table change
// invalidation, §3.2.2).
func (t *Table) PreVersion(e *Entry) uint64 {
	checkLive(e)
	if !e.HasPre() {
		return 0
	}
	return t.pre.get(e.pre).version
}

// State returns e's session state, or a zero (uninitialized) state
// when it has none. It is read-only and valid until the next call that
// changes the table; SetState and TouchState, the charging sites,
// change an entry's state.
func (t *Table) State(e *Entry) *state.State {
	checkLive(e)
	if !e.HasState() {
		checkNone()
		return &noState
	}
	return t.stateOf(e)
}

// noPre and noState are what Pre and State return for an entry without
// pre-actions or state; the simdebug build checks nobody wrote them.
var (
	noPre   tables.PreActions
	noState state.State
)

// stateOf is e's state slot; e must have state.
func (t *Table) stateOf(e *Entry) *state.State {
	s := t.states.at(e.st)
	checkState(s)
	return s
}

// SetPre installs pre-actions (cached flow) on an entry.
func (t *Table) SetPre(e *Entry, pre tables.PreActions, version uint64) error {
	checkLive(e)
	if !e.HasPre() {
		if !t.charge(PreActionsBytes) {
			return ErrNoMemory
		}
		e.pre = t.pre.intern(&pre, version)
		e.flags |= flagPre
	} else if s := t.pre.get(e.pre); s.val != pre || s.version != version {
		t.pre.release(e.pre)
		e.pre = t.pre.intern(&pre, version)
	}
	return nil
}

// SetState installs or replaces the session state on an entry.
func (t *Table) SetState(e *Entry, s state.State) error {
	checkLive(e)
	delta := t.stateBytes(&s)
	if e.HasState() {
		// Under the fixed layout a slot is 64 B whatever it holds, so a
		// replacement charges nothing.
		delta -= t.stateBytes(t.stateOf(e))
	}
	if !t.charge(delta) {
		return ErrNoMemory
	}
	if !e.HasState() {
		e.st = t.states.alloc()
		e.flags |= flagState
		t.scopes.recs[e.scope].states++
	}
	*t.states.at(e.st) = s
	return nil
}

// TouchState advances the entry's state for one packet (FSM + stats),
// re-charging variable-size growth.
func (t *Table) TouchState(e *Entry, dir packet.Direction, flags packet.TCPFlags, payloadLen int, now int64) error {
	checkLive(e)
	if e.HasState() && !t.cfg.VariableState {
		// Hot path: under the fixed layout the charge cannot move, so
		// the FSM advances in place with no copy and no budget check.
		t.stateOf(e).Touch(dir, flags, payloadLen, now)
		return nil
	}
	s := *t.State(e)
	s.Touch(dir, flags, payloadLen, now)
	return t.SetState(e, s)
}

// DropPre removes cached pre-actions from an entry, refunding their
// memory — the BE deletes its cached flows when entering the final
// offload stage while keeping the states (§4.2.1).
func (t *Table) DropPre(e *Entry) {
	checkLive(e)
	if !e.HasPre() {
		return
	}
	t.pre.release(e.pre)
	e.flags &^= flagPre
	t.mem -= PreActionsBytes
}

// Delete removes an entry, refunding its memory.
func (t *Table) Delete(key packet.SessionKey) {
	if e, slot := t.find(&key, uint32(key.Hash())); e != nil {
		t.remove(slot, t.index.buckets[slot].idx-1, e)
	}
}

// remove takes entry e (slab index idx, in slot of the index) out of
// the table and recycles it with its pre-actions reference and state
// slot. Callers must not retain e: a later insert reuses it.
func (t *Table) remove(slot, idx uint32, e *Entry) {
	t.index.removeAt(slot)
	t.mem -= t.SizeOf(e)
	t.count--
	t.missOK = false
	if e.HasPre() {
		t.pre.release(e.pre)
	}
	sc := &t.scopes.recs[e.scope]
	if e.HasState() {
		t.states.release(e.st)
		sc.states--
	}
	if sc.entries--; sc.entries == 0 {
		t.scopes.release(e.scope)
	}
	*e = Entry{pre: t.free}
	poison(e)
	t.free = idx + 1
}

// bulkDelete removes every entry fn selects and returns how many. It
// walks the slabs in index order — sequential memory, not hash order —
// and deletes in place: removing an entry shifts buckets, never
// entries, so the walk is undisturbed. A selected entry's key is
// rehashed to find its bucket.
func (t *Table) bulkDelete(fn func(*Entry) bool) int {
	n := 0
	idx := uint32(0)
	for _, slab := range t.slabs {
		slab = slab[:min(uint32(len(slab)), t.used-idx)]
		for i := range slab {
			if e := &slab[i]; e.live() && fn(e) {
				t.remove(t.index.slotOf(uint32(t.Key(e).Hash()), idx), idx, e)
				n++
			}
			idx++
		}
	}
	return n
}

// InvalidateVNIC drops every entry belonging to vnic — used when a
// vNIC's rule tables are withdrawn from a node.
func (t *Table) InvalidateVNIC(vnic uint32) int {
	return t.bulkDelete(func(e *Entry) bool { return t.scopes.recs[e.scope].vnic == vnic })
}

// Clear drops everything — slabs, state slots and the pre-actions
// pool included: every *Entry is invalid.
func (t *Table) Clear() {
	t.index.init()
	t.count = 0
	t.mem = 0
	t.slabs, t.used, t.free = nil, 0, 0
	t.scopes, t.pre, t.states = scopeSet{}, prePool{}, stateStore{}
	t.missOK = false
}

// idleAging is the eviction idle time for entries without state (FE
// cached flows age like established sessions).
const idleAging = state.AgingEstablished

// Sweep evicts expired entries at virtual time now and returns the
// eviction count. State-bearing entries age per their FSM phase
// (short SYN aging, §7.3); stateless cached flows use the idle aging.
func (t *Table) Sweep(now int64) int {
	n := t.bulkDelete(func(e *Entry) bool {
		if e.HasState() {
			return t.stateOf(e).Expired(now)
		}
		return now-e.LastSeen > idleAging
	})
	t.Evictions += uint64(n)
	return n
}

// StateCounts calls fn with the vNIC and the count of entries holding
// state of each scope — each (vNIC, VPC) pair — with any, until fn
// returns false. The counts are kept at the two sites a state slot is
// taken and released, so reading them costs one step per scope, not a
// walk of the entries; a vNIC seen under two VPCs is visited once per
// VPC. The order is deterministic for a given operation history; fn
// must not change the table.
func (t *Table) StateCounts(fn func(vnic, n uint32) bool) {
	for i := range t.scopes.recs {
		if sc := &t.scopes.recs[i]; sc.states > 0 && !fn(sc.vnic, sc.states) {
			return
		}
	}
}

// Range iterates entries; fn returning false stops early. Iteration
// order is slab index order — deterministic for a given operation
// history; callers must not insert or delete during the walk.
func (t *Table) Range(fn func(*Entry) bool) {
	left := t.used
	for _, slab := range t.slabs {
		slab = slab[:min(uint32(len(slab)), left)]
		left -= uint32(len(slab))
		for i := range slab {
			if e := &slab[i]; e.live() && !fn(e) {
				return
			}
		}
	}
}
