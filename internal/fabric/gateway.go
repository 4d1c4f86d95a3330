package fabric

import (
	"errors"
	"slices"

	"nezha/internal/dense"
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
	loop *sim.Loop
	// ids is the region's vNIC index (package dense): every per-vNIC
	// table — entries here, each learner's cache, the vSwitches' vNIC
	// and FE tables, the cluster's VM dispatch — is indexed by it.
	ids     dense.Index
	entries []gwEntry // by vNIC index
	n       int       // entries set
	order   []uint32  // Range's scratch; nil while a Range is running
}

type gwEntry struct {
	addrs []packet.IPv4
	epoch uint64
	set   bool
}

// NewGateway builds an empty gateway.
func NewGateway(loop *sim.Loop) *Gateway {
	return &Gateway{loop: loop}
}

// Index resolves a vNIC ID to its dense index, if it has one.
func (g *Gateway) Index(vnic uint32) (int, bool) { return g.ids.Lookup(vnic) }

// Intern returns a vNIC ID's dense index, assigning the next one if the
// region has not named the vNIC before.
func (g *Gateway) Intern(vnic uint32) int { return g.ids.Intern(vnic) }

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
	if e := g.lookup(vnic); e != nil {
		return e.epoch
	}
	return 0
}

func (g *Gateway) entry(vnic uint32) *gwEntry {
	i := g.ids.Intern(vnic)
	if i >= len(g.entries) {
		g.entries = append(g.entries, make([]gwEntry, i+1-len(g.entries))...)
	}
	e := &g.entries[i]
	if !e.set {
		e.set = true
		g.n++
	}
	return e
}

// lookup returns a vNIC's entry, or nil.
func (g *Gateway) lookup(vnic uint32) *gwEntry {
	if i, ok := g.ids.Lookup(vnic); ok && i < len(g.entries) && g.entries[i].set {
		return &g.entries[i]
	}
	return nil
}

// Lookup resolves a vNIC's current locations.
func (g *Gateway) Lookup(vnic uint32) ([]packet.IPv4, bool) {
	if e := g.lookup(vnic); e != nil {
		return e.addrs, true
	}
	return nil, false
}

// Range calls fn for every entry in ascending vNIC order (so callers
// iterating the table — e.g. the chaos no-blackhole invariant — do not
// depend on registration order). Returning false stops the walk. The
// walk borrows the gateway's scratch slice, so a Range nested in fn
// sorts into a slice of its own.
func (g *Gateway) Range(fn func(vnic uint32, addrs []packet.IPv4, epoch uint64) bool) {
	vnics := g.order[:0]
	g.order = nil
	for i := range g.entries {
		if g.entries[i].set {
			vnics = append(vnics, g.ids.Key(i))
		}
	}
	slices.Sort(vnics)
	for _, v := range vnics {
		e := g.lookup(v)
		if !fn(v, e.addrs, e.epoch) {
			break
		}
	}
	g.order = vnics
}

// Len reports the table size.
func (g *Gateway) Len() int { return g.n }

// Learner is a vSwitch's on-demand cache over the gateway table.
// Entries are served from cache until LearnInterval elapses, then
// refreshed — reproducing the ≤200 ms staleness window. The cache is
// indexed by the gateway's vNIC index, which a lookup assigns to a vNIC
// the gateway does not know yet, so a miss is cached like a hit.
type Learner struct {
	loop    *sim.Loop
	gateway *Gateway
	cache   []learned // by vNIC index
}

type learned struct {
	addrs  []packet.IPv4
	ok     bool
	cached bool
	at     sim.Time
}

// NewLearner builds a learner over gw.
func NewLearner(loop *sim.Loop, gw *Gateway) *Learner {
	return &Learner{loop: loop, gateway: gw}
}

// Lookup resolves a vNIC's server list, consulting the cache first.
func (l *Learner) Lookup(vnic uint32) ([]packet.IPv4, bool) {
	now := l.loop.Now()
	i := l.gateway.Intern(vnic)
	if i >= len(l.cache) {
		l.cache = append(l.cache, make([]learned, i+1-len(l.cache))...)
	}
	e := &l.cache[i]
	if !e.cached || now-e.at >= LearnInterval {
		*e = learned{cached: true, at: now}
		e.addrs, e.ok = l.gateway.Lookup(vnic)
	}
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
