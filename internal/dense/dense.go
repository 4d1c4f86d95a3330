// Package dense gives the simulator's 32-bit identities — underlay
// IPv4 addresses, vNIC IDs — dense indices 0, 1, 2, … in the order
// they are first named, so the tables keyed by them are slices sized by
// what is registered: not Go maps, and never arrays sized by an ID
// range. An identity keeps its index for the life of its Index.
//
// Who assigns which index (DESIGN.md §17): the fabric indexes the
// addresses registered on it; the gateway indexes the vNIC IDs it or a
// learner is asked about, and every per-vNIC table in the region — the
// gateway's entries, the learners' caches, each vSwitch's vNIC and FE
// tables, the cluster's VM dispatch — is indexed by that one index.
package dense

// Index assigns and resolves dense indices. It resolves by open
// addressing with linear probing over a power-of-two slot array kept at
// most half full, so a lookup is a multiply and, nearly always, one
// probe. The zero value is empty and ready to use.
type Index struct {
	keys  []uint32 // by index
	slots []int32  // index + 1 per slot; 0 marks an empty slot
	shift uint8    // 32 - log2(len(slots))
}

// home is k's first probe slot: Fibonacci hashing, whose top bits mix
// every bit of k.
func (x *Index) home(k uint32) int { return int((k * 0x9E3779B1) >> x.shift) }

// Lookup returns k's index, if k has one.
func (x *Index) Lookup(k uint32) (int, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for h := x.home(k); ; h = (h + 1) & mask {
		s := x.slots[h]
		if s == 0 {
			return 0, false
		}
		if x.keys[s-1] == k {
			return int(s - 1), true
		}
	}
}

// Intern returns k's index, assigning the next one if k has none.
func (x *Index) Intern(k uint32) int {
	if i, ok := x.Lookup(k); ok {
		return i
	}
	if 2*(len(x.keys)+1) > len(x.slots) {
		x.grow()
	}
	i := len(x.keys)
	x.keys = append(x.keys, k)
	x.place(i)
	return i
}

// Key returns the identity holding index i.
func (x *Index) Key(i int) uint32 { return x.keys[i] }

func (x *Index) place(i int) {
	mask := len(x.slots) - 1
	h := x.home(x.keys[i])
	for x.slots[h] != 0 {
		h = (h + 1) & mask
	}
	x.slots[h] = int32(i + 1)
}

// grow doubles the slot array (8 slots at first) and re-places every
// key.
func (x *Index) grow() {
	n := max(8, 2*len(x.slots))
	x.slots = make([]int32, n)
	x.shift = 32
	for n > 1 {
		n >>= 1
		x.shift--
	}
	for i := range x.keys {
		x.place(i)
	}
}

// Table is a slice of *T indexed by an Index's indices, grown lazily to
// the highest index stored; a nil entry is absent. The zero value is
// empty and ready to use.
type Table[T any] struct {
	s []*T
	n int
}

// At returns the entry at index i, or nil.
func (t *Table[T]) At(i int) *T {
	if uint(i) < uint(len(t.s)) {
		return t.s[i]
	}
	return nil
}

// Set stores v at index i; a nil v removes the entry.
func (t *Table[T]) Set(i int, v *T) {
	if i >= len(t.s) {
		if v == nil {
			return
		}
		t.s = append(t.s, make([]*T, i+1-len(t.s))...)
	}
	if t.s[i] == nil && v != nil {
		t.n++
	} else if t.s[i] != nil && v == nil {
		t.n--
	}
	t.s[i] = v
}

// Len reports how many entries are present.
func (t *Table[T]) Len() int { return t.n }

// Each calls fn for every present entry in index order.
func (t *Table[T]) Each(fn func(v *T)) {
	for _, v := range t.s {
		if v != nil {
			fn(v)
		}
	}
}
