package fabric

import (
	"errors"
	"slices"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// LearnInterval is how often a vSwitch refreshes vNIC-server entries
// it learned from the gateway (200 ms in production, §4.2.1). Until a
// refresh, a vSwitch may keep sending to a stale location — the
// dual-running stage exists to absorb exactly this.
const LearnInterval = 200 * sim.Millisecond

// ErrStaleEpoch reports a versioned gateway update older than the
// entry it would replace. The transactional control plane assigns
// every vNIC-config push a monotonically increasing epoch; a retried
// or reordered push that lost the race must never regress newer state.
var ErrStaleEpoch = errors.New("fabric: stale config epoch")

// Gateway owns the global vNIC-server mapping table (the "global
// routing table"). A vNIC maps to one server normally, or to the list
// of FE servers once offloaded (Fig 7: "IP of FE 1-N"); senders pick
// among them by Hash(5-tuple). The controller updates the table;
// vSwitches learn entries on demand and cache them for LearnInterval.
//
// Mutations replace address lists copy-on-write: learners cache the
// slices Lookup returns, and an in-place overwrite would leak new
// state into caches that are supposed to stay stale for LearnInterval.
//
// Every entry carries the epoch of the config push that installed it.
// SetEpoch rejects pushes older than the installed epoch; the legacy
// unversioned mutators bump the epoch themselves, preserving the
// single-writer ordering for callers that drive the gateway directly.
type Gateway struct {
	loop  *sim.Loop
	table map[uint32]*gwEntry
	order []uint32 // Range's scratch; nil while a Range is running
}

type gwEntry struct {
	addrs []packet.IPv4
	epoch uint64
}

// NewGateway builds an empty gateway.
func NewGateway(loop *sim.Loop) *Gateway {
	return &Gateway{loop: loop, table: make(map[uint32]*gwEntry)}
}

// Set installs or replaces a vNIC's location list (controller action),
// bumping the entry's epoch.
func (g *Gateway) Set(vnic uint32, servers ...packet.IPv4) {
	e := g.entry(vnic)
	e.epoch++
	e.addrs = append([]packet.IPv4(nil), servers...)
}

// SetEpoch installs a vNIC's location list at an explicit config
// epoch. Pushes older than the installed entry are rejected with
// ErrStaleEpoch; an equal epoch re-applies (idempotent retry).
func (g *Gateway) SetEpoch(vnic uint32, epoch uint64, servers ...packet.IPv4) error {
	e := g.entry(vnic)
	if epoch < e.epoch {
		return ErrStaleEpoch
	}
	e.epoch = epoch
	e.addrs = append([]packet.IPv4(nil), servers...)
	return nil
}

// Epoch reports the config epoch of a vNIC's entry (0 if absent).
func (g *Gateway) Epoch(vnic uint32) uint64 {
	if e, ok := g.table[vnic]; ok {
		return e.epoch
	}
	return 0
}

func (g *Gateway) entry(vnic uint32) *gwEntry {
	e, ok := g.table[vnic]
	if !ok {
		e = &gwEntry{}
		g.table[vnic] = e
	}
	return e
}

// Lookup resolves a vNIC's current locations.
func (g *Gateway) Lookup(vnic uint32) ([]packet.IPv4, bool) {
	e, ok := g.table[vnic]
	if !ok {
		return nil, false
	}
	return e.addrs, true
}

// Range calls fn for every entry in ascending vNIC order (so callers
// iterating the table — e.g. the chaos no-blackhole invariant — do not
// depend on map order). Returning false stops the walk. The walk
// borrows the gateway's scratch slice, so a Range nested in fn sorts
// into a slice of its own.
func (g *Gateway) Range(fn func(vnic uint32, addrs []packet.IPv4, epoch uint64) bool) {
	vnics := g.order[:0]
	g.order = nil
	for v := range g.table {
		vnics = append(vnics, v)
	}
	slices.Sort(vnics)
	for _, v := range vnics {
		e := g.table[v]
		if !fn(v, e.addrs, e.epoch) {
			break
		}
	}
	g.order = vnics
}

// Len reports the table size.
func (g *Gateway) Len() int { return len(g.table) }

// Learner is a vSwitch's on-demand cache over the gateway table.
// Entries are served from cache until LearnInterval elapses, then
// refreshed — reproducing the ≤200 ms staleness window.
type Learner struct {
	loop    *sim.Loop
	gateway *Gateway
	cache   map[uint32]learned

	// One-entry memo over the cache map: burst traffic resolves the
	// same peer vNIC for every packet of a run, so the common Lookup
	// is a field compare instead of a map probe. The memo mirrors a
	// cache entry exactly (same addrs, ok, at), so it expires on the
	// same LearnInterval boundary.
	memoVNIC uint32
	memoHas  bool
	memo     learned
}

type learned struct {
	addrs []packet.IPv4
	ok    bool
	at    sim.Time
}

// NewLearner builds a learner over gw.
func NewLearner(loop *sim.Loop, gw *Gateway) *Learner {
	return &Learner{loop: loop, gateway: gw, cache: make(map[uint32]learned)}
}

// Lookup resolves a vNIC's server list, consulting the cache first.
func (l *Learner) Lookup(vnic uint32) ([]packet.IPv4, bool) {
	now := l.loop.Now()
	if l.memoHas && l.memoVNIC == vnic && now-l.memo.at < LearnInterval {
		return l.memo.addrs, l.memo.ok
	}
	e, hit := l.cache[vnic]
	if !hit || now-e.at >= LearnInterval {
		e = learned{at: now}
		e.addrs, e.ok = l.gateway.Lookup(vnic)
		l.cache[vnic] = e
	}
	l.memoVNIC, l.memoHas, l.memo = vnic, true, e
	return e.addrs, e.ok
}

// Pick resolves a vNIC location for one flow, selecting among
// multiple addresses by the flow hash (Nezha's 5-tuple hashing,
// §3.2.3).
func (l *Learner) Pick(vnic uint32, flowHash uint64) (packet.IPv4, bool) {
	addrs, ok := l.Lookup(vnic)
	if !ok || len(addrs) == 0 {
		return 0, false
	}
	if len(addrs) == 1 { // single placement: skip the 64-bit modulo
		return addrs[0], true
	}
	return addrs[flowHash%uint64(len(addrs))], true
}
