package flowcache

import (
	"fmt"
	"math/rand"
	"testing"

	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// modelEntry is what the reference model keeps for a live key.
type modelEntry struct {
	hasPre, hasState bool
	pre              tables.PreActions
	version          uint64
	st               state.State
	lastSeen         int64
}

// prePalette is a few distinct pre-actions values, so that many
// entries share each one and the pool's refcounts are exercised.
func prePalette() []tables.PreActions {
	pal := []tables.PreActions{{}}
	for i := 1; i < 5; i++ {
		a := tables.PreAction{ACL: tables.VerdictAllow, NextHop: packet.MakeIP(10, 9, 0, byte(i)), PeerVNIC: uint32(i), EncapVNI: 7}
		pa := tables.PreActions{TX: a, RX: a}
		pa.RX.ACL = tables.Verdict(i % 3)
		pa.TX.NAT, pa.TX.NATPort = i%2 == 0, uint16(i)
		pal = append(pal, pa)
	}
	return pal
}

// TestStoreModel drives every method that changes an entry's
// pre-actions or state — GetOrCreate, Lookup, SetPre, DropPre,
// SetState, TouchState, Delete, Sweep, InvalidateVNIC, Clear — through
// a random op stream under a budget tight enough to reject, against a
// map model, over keys whose 5-tuples recur under three vNICs in two
// VPCs each (scopedKey). After every op each live key's flags,
// pre-actions, version, state and LastSeen must match the model,
// MemBytes must be the model's bytes, the pool and state store must
// hold exactly the distinct (value, version) pairs and states the live
// entries use, and the scopes exactly the live keys' (vNIC, VPC) pairs
// with their entry and state counts. Once every key is deleted none
// holds a live slot: no reference leaks.
func TestStoreModel(t *testing.T) {
	for _, variable := range []bool{false, true} {
		t.Run(fmt.Sprintf("variable=%v", variable), func(t *testing.T) { runStoreModel(t, variable) })
	}
}

func runStoreModel(t *testing.T, variable bool) {
	m := newStoreModel(t, variable)
	rng := rand.New(rand.NewSource(3))
	shared := 0
	for op := 0; op < 20000; op++ {
		m.check(op, m.step(op, rng))
		if m.shared() {
			shared++
		}
	}
	t.Logf("%d rejected inserts; pre-actions shared after %d ops", m.rejected, shared)
	if m.rejected == 0 || shared == 0 {
		t.Fatalf("run too tame: %d rejected inserts, sharing after %d ops", m.rejected, shared)
	}
	m.drain()
}

// opSource draws the choices of a model op stream: *rand.Rand, or the
// bytes of a fuzz input.
type opSource interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// storeKeys is how many keys a model stream draws from: 16 tuples,
// each under six scopes.
const storeKeys = 96

// storeModel is a session table beside the map model it must match.
type storeModel struct {
	tb       testing.TB
	tab      *Table
	variable bool
	pal      []tables.PreActions
	model    map[packet.SessionKey]*modelEntry
	now      int64
	rejected int
}

func newStoreModel(tb testing.TB, variable bool) *storeModel {
	return &storeModel{
		tb:       tb,
		tab:      New(Config{MaxBytes: 24 * (EntryOverheadBytes + PreActionsBytes + state.FixedSizeBytes), VariableState: variable}),
		variable: variable,
		pal:      prePalette(),
		model:    map[packet.SessionKey]*modelEntry{},
	}
}

func (m *storeModel) stateBytes(s *state.State) int {
	if m.variable {
		return s.EncodedSize()
	}
	return state.FixedSizeBytes
}

// mem is the bytes the model charges its live keys.
func (m *storeModel) mem() int {
	n := 0
	for _, me := range m.model {
		n += EntryOverheadBytes
		if me.hasPre {
			n += PreActionsBytes
		}
		if me.hasState {
			n += m.stateBytes(&me.st)
		}
	}
	return n
}

// fits predicts the table's charge: growth past the budget fails.
func (m *storeModel) fits(n int) bool { return n <= 0 || m.tab.MemBytes()+n <= m.tab.MaxBytes() }

func (m *storeModel) expired(me *modelEntry, now int64) bool {
	if me.hasState {
		return me.st.Expired(now)
	}
	return now-me.lastSeen > idleAging
}

// shared reports whether live entries share pool slots.
func (m *storeModel) shared() bool {
	cached := 0
	for _, me := range m.model {
		if me.hasPre {
			cached++
		}
	}
	return cached > int(m.tab.pre.index.n)
}

// step applies one op drawn from src to the table and the model, and
// names it.
func (m *storeModel) step(op int, src opSource) string {
	t, tab := m.tb, m.tab
	m.now += src.Int63n(state.AgingSyn / 16)
	now := m.now
	k := scopedKey(src.Intn(storeKeys))
	me := m.model[k]
	var e *Entry
	if me != nil {
		e = tab.Peek(k)
	}
	var what string
	switch r := src.Intn(100); {
	case r < 25:
		what = "GetOrCreate"
		ok := m.fits(EntryOverheadBytes)
		got, err := tab.GetOrCreate(k, k.VNIC, now)
		switch {
		case me != nil:
			if got != e || err != nil {
				t.Fatalf("op %d: GetOrCreate of a live key: %p/%v, want %p", op, got, err, e)
			}
			me.lastSeen = now
		case ok:
			if err != nil {
				t.Fatalf("op %d: GetOrCreate: %v", op, err)
			}
			m.model[k] = &modelEntry{lastSeen: now}
		default:
			if err != ErrNoMemory {
				t.Fatalf("op %d: GetOrCreate past the budget: %v", op, err)
			}
			m.rejected++
		}
	case r < 30:
		what = "Lookup"
		if got := tab.Lookup(k, now); got != e {
			t.Fatalf("op %d: Lookup %p, want %p", op, got, e)
		}
		if me != nil {
			me.lastSeen = now
		}
	case r < 50:
		what = "SetPre"
		if me == nil {
			break
		}
		pre, version := m.pal[src.Intn(len(m.pal))], uint64(1+src.Intn(3))
		ok := me.hasPre || m.fits(PreActionsBytes)
		if err := tab.SetPre(e, pre, version); ok {
			if err != nil {
				t.Fatalf("op %d: SetPre: %v", op, err)
			}
			me.hasPre, me.pre, me.version = true, pre, version
		} else if err != ErrNoMemory {
			t.Fatalf("op %d: SetPre past the budget: %v", op, err)
		}
	case r < 54:
		what = "DropPre"
		if me != nil {
			tab.DropPre(e)
			me.hasPre, me.pre, me.version = false, tables.PreActions{}, 0
		}
	case r < 62:
		what = "SetState"
		if me == nil {
			break
		}
		st := state.State{Init: true, FirstDir: packet.Direction(src.Intn(2)), TCP: state.TCPState(src.Intn(4)), LastSeen: now}
		if src.Intn(2) == 0 {
			st.Policy, st.Pkts = tables.StatsPackets, uint64(src.Intn(100))
		}
		delta := m.stateBytes(&st)
		if me.hasState {
			delta -= m.stateBytes(&me.st)
		}
		ok := m.fits(delta)
		if err := tab.SetState(e, st); ok {
			if err != nil {
				t.Fatalf("op %d: SetState: %v", op, err)
			}
			me.hasState, me.st = true, st
		} else if err != ErrNoMemory {
			t.Fatalf("op %d: SetState past the budget: %v", op, err)
		}
	case r < 82:
		what = "TouchState"
		if me == nil {
			break
		}
		dir, flags := packet.Direction(src.Intn(2)), []packet.TCPFlags{packet.FlagSYN, packet.FlagSYN | packet.FlagACK, packet.FlagACK, packet.FlagFIN}[src.Intn(4)]
		payload := src.Intn(1500)
		st := me.st
		st.Touch(dir, flags, payload, now)
		delta := m.stateBytes(&st)
		if me.hasState {
			delta -= m.stateBytes(&me.st)
		}
		// Under the fixed layout a held slot is touched in place,
		// without a budget check.
		ok := (me.hasState && !m.variable) || m.fits(delta)
		if err := tab.TouchState(e, dir, flags, payload, now); ok {
			if err != nil {
				t.Fatalf("op %d: TouchState: %v", op, err)
			}
			me.hasState, me.st = true, st
		} else if err != ErrNoMemory {
			t.Fatalf("op %d: TouchState past the budget: %v", op, err)
		}
	case r < 92:
		what = "Delete"
		tab.Delete(k)
		delete(m.model, k)
	case r < 97:
		what = "Sweep"
		at := now - src.Int63n(state.AgingEstablished)
		want := 0
		for mk, mm := range m.model {
			if m.expired(mm, at) {
				delete(m.model, mk)
				want++
			}
		}
		if n := tab.Sweep(at); n != want {
			t.Fatalf("op %d: Sweep(%d) = %d, model %d", op, at, n, want)
		}
	case r < 99:
		what = "InvalidateVNIC"
		if src.Intn(4) != 0 {
			break
		}
		vnic, want := k.VNIC, 0
		for mk := range m.model {
			if mk.VNIC == vnic {
				delete(m.model, mk)
				want++
			}
		}
		if n := tab.InvalidateVNIC(vnic); n != want {
			t.Fatalf("op %d: InvalidateVNIC(%d) = %d, model %d", op, vnic, n, want)
		}
	default:
		what = "Clear"
		if src.Intn(4) == 0 {
			tab.Clear()
			m.model = map[packet.SessionKey]*modelEntry{}
		}
	}
	return what
}

// check compares the table with the model after op.
func (m *storeModel) check(op int, what string) {
	t, tab := m.tb, m.tab
	t.Helper()
	if tab.Len() != len(m.model) || tab.MemBytes() != m.mem() {
		t.Fatalf("op %d (%s): Len %d MemBytes %d, model %d and %d", op, what, tab.Len(), tab.MemBytes(), len(m.model), m.mem())
	}
	type pair struct {
		pre     tables.PreActions
		version uint64
	}
	type scopeKey struct{ vnic, vpc uint32 }
	distinct := map[pair]bool{}
	scopes := map[scopeKey]scope{}
	states := 0
	for k, me := range m.model {
		e := tab.Peek(k)
		if e == nil {
			t.Fatalf("op %d (%s): key %v missing", op, what, k)
		}
		if got := tab.Key(e); got != k {
			t.Fatalf("op %d (%s): key %v found the entry of %v", op, what, k, got)
		}
		if e.HasPre() != me.hasPre || e.HasState() != me.hasState || e.LastSeen != me.lastSeen {
			t.Fatalf("op %d (%s): key %v: HasPre %v HasState %v LastSeen %d, model %+v", op, what, k, e.HasPre(), e.HasState(), e.LastSeen, *me)
		}
		want := tables.PreActions{}
		if me.hasPre {
			want = me.pre
			distinct[pair{me.pre, me.version}] = true
			if v := tab.PreVersion(e); v != me.version {
				t.Fatalf("op %d (%s): key %v: PreVersion %d, model %d", op, what, k, v, me.version)
			}
		}
		if got := *tab.Pre(e); got != want {
			t.Fatalf("op %d (%s): key %v: Pre %+v, model %+v", op, what, k, got, want)
		}
		wantSt := state.State{}
		sc := scopes[scopeKey{k.VNIC, k.VPC}]
		sc.vnic, sc.vpc = k.VNIC, k.VPC
		sc.entries++
		if me.hasState {
			wantSt = me.st
			states++
			sc.states++
		}
		scopes[scopeKey{k.VNIC, k.VPC}] = sc
		if got := *tab.State(e); got != wantSt {
			t.Fatalf("op %d (%s): key %v: State %+v, model %+v", op, what, k, got, wantSt)
		}
	}
	if int(tab.pre.index.n) != len(distinct) || int(tab.states.n) != states || int(tab.scopes.index.n) != len(scopes) {
		t.Fatalf("op %d (%s): pool holds %d pairs, the store %d states and the scope set %d scopes; live entries use %d, %d and %d",
			op, what, tab.pre.index.n, tab.states.n, tab.scopes.index.n, len(distinct), states, len(scopes))
	}
	for id, r := range tab.scopes.recs {
		if r.entries == 0 {
			continue
		}
		if want := scopes[scopeKey{r.vnic, r.vpc}]; r.entries != want.entries || r.states != want.states {
			t.Fatalf("op %d (%s): scope %d (vNIC %d, VPC %d) counts %d entries, %d with state; model %d and %d",
				op, what, id, r.vnic, r.vpc, r.entries, r.states, want.entries, want.states)
		}
		if got := tab.scopes.find(r.vnic, r.vpc); got != uint16(id) {
			t.Fatalf("op %d (%s): scope %d (vNIC %d, VPC %d) found as %d", op, what, id, r.vnic, r.vpc, got)
		}
	}
}

// drain deletes every live key and requires an empty table: no
// reference leaks.
func (m *storeModel) drain() {
	tab := m.tab
	for k := range m.model {
		tab.Delete(k)
	}
	if tab.Len() != 0 || tab.MemBytes() != 0 || tab.pre.index.n != 0 || tab.states.n != 0 || tab.scopes.index.n != 0 {
		m.tb.Fatalf("empty table: Len %d MemBytes %d, %d pool slots, %d state slots and %d scopes still live",
			tab.Len(), tab.MemBytes(), tab.pre.index.n, tab.states.n, tab.scopes.index.n)
	}
}

// TestPoolInterning pins the sharing itself: a thousand entries caching
// two values hold two pool slots, overwriting one entry's value moves
// one reference, and slots freed by the last reference are reused.
func TestPoolInterning(t *testing.T) {
	tab := New(Config{})
	if tab.pre.slots != nil || tab.pre.index.buckets != nil {
		t.Fatal("a fresh table allocated its pre-actions pool")
	}
	pal := prePalette()
	es := make([]*Entry, 1000)
	for i := range es {
		k := keyFor(i)
		es[i], _ = tab.GetOrCreate(k, k.VNIC, 0)
		if err := tab.SetPre(es[i], pal[1+i%2], 1); err != nil {
			t.Fatal(err)
		}
	}
	if tab.pre.index.n != 2 || len(tab.pre.slots) != 2 {
		t.Fatalf("1000 entries over 2 values: %d live slots of %d", tab.pre.index.n, len(tab.pre.slots))
	}
	if err := tab.SetPre(es[0], pal[3], 2); err != nil || tab.pre.index.n != 3 || *tab.Pre(es[0]) != pal[3] || *tab.Pre(es[2]) != pal[1] {
		t.Fatalf("overwrite: err %v, %d live slots", err, tab.pre.index.n)
	}
	if tab.MemBytes() != 1000*(EntryOverheadBytes+PreActionsBytes) {
		t.Fatalf("MemBytes %d: the model charges every entry its own pre-actions", tab.MemBytes())
	}
	for i := 1; i < len(es); i += 2 {
		tab.DropPre(es[i])
	}
	if tab.pre.index.n != 2 {
		t.Fatalf("after dropping every reference to one value: %d live slots, want 2", tab.pre.index.n)
	}
	tab.SetPre(es[1], pal[4], 1)
	if tab.pre.index.n != 3 || len(tab.pre.slots) != 3 {
		t.Fatalf("freed slot not reused: %d live of %d", tab.pre.index.n, len(tab.pre.slots))
	}
}

// rangeStateCounts is StateCounts by walking every entry: the oracle
// the per-scope counts kept at the two state sites are checked
// against. It counts per vNIC and how many (vNIC, VPC) scopes hold
// state.
func rangeStateCounts(tab *Table) (perVNIC map[uint32]uint32, scopes int) {
	perVNIC = map[uint32]uint32{}
	perScope := map[[2]uint32]bool{}
	tab.Range(func(e *Entry) bool {
		if e.HasState() {
			k := tab.Key(e)
			perVNIC[k.VNIC]++
			perScope[[2]uint32{k.VNIC, k.VPC}] = true
		}
		return true
	})
	return perVNIC, len(perScope)
}

// TestStateCountsMatchWalk drives a table through a random history of
// every operation that takes or releases a state slot — SetState on a
// fresh and a stateful entry, Delete, InvalidateVNIC, Sweep, Clear —
// over keys of five vNICs in two VPCs each, and after each requires
// StateCounts to equal the counts a full walk finds: one visit per
// (vNIC, VPC) scope that holds state, none for one that holds none,
// and the visits' counts summing to each vNIC's.
func TestStateCountsMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := New(Config{})
	var st state.State
	st.InitFirst(packet.DirTX, 0)
	now := int64(0)
	for op := 0; op < 20000; op++ {
		now += rng.Int63n(state.AgingSyn / 50)
		k := keyIn(uint32(1+rng.Intn(5)), uint16(rng.Intn(400)))
		k.VPC += uint32(rng.Intn(2))
		switch r := rng.Intn(40); {
		case r < 20:
			e, err := tab.GetOrCreate(k, k.VNIC, now)
			if err != nil {
				t.Fatal(err)
			}
			if r < 14 {
				st.LastSeen = now
				if err := tab.SetState(e, st); err != nil {
					t.Fatal(err)
				}
			} else if err := tab.SetPre(e, tables.PreActions{}, 1); err != nil {
				t.Fatal(err)
			}
		case r < 34:
			tab.Delete(k)
		case r == 34:
			tab.InvalidateVNIC(k.VNIC)
		case r == 35:
			tab.Sweep(now)
		case r == 36 && rng.Intn(20) == 0:
			tab.Clear()
		}
		want, scopes := rangeStateCounts(tab)
		got, visits := map[uint32]uint32{}, 0
		tab.StateCounts(func(vnic, n uint32) bool {
			if n == 0 {
				t.Fatalf("op %d: vNIC %d visited with no stateful entry", op, vnic)
			}
			got[vnic] += n
			visits++
			return true
		})
		if visits != scopes || len(got) != len(want) {
			t.Fatalf("op %d: %d scopes and %d vNICs counted, the walk finds %d and %d (%v vs %v)",
				op, visits, len(got), scopes, len(want), got, want)
		}
		for vnic, n := range got {
			if want[vnic] != n {
				t.Fatalf("op %d: vNIC %d counted %d stateful entries, the walk finds %d", op, vnic, n, want[vnic])
			}
		}
	}
}

// TestScopeLimit pins the scope set's full behaviour: a table holding
// maxScopes live (vNIC, VPC) pairs refuses an entry of a new pair with
// ErrNoMemory, counted in Rejects and changing nothing, while it still
// accepts entries of the pairs it holds; once InvalidateVNIC frees
// scopes, new pairs are accepted again, as many as were freed.
func TestScopeLimit(t *testing.T) {
	tab := New(Config{})
	keyOf := func(i int) packet.SessionKey {
		k := keyIn(uint32(1+i/2), 1)
		k.VPC += uint32(i % 2)
		return k
	}
	for i := 0; i < maxScopes; i++ {
		k := keyOf(i)
		if _, err := tab.GetOrCreate(k, k.VNIC, 0); err != nil {
			t.Fatalf("scope %d: %v", i, err)
		}
	}
	if tab.scopes.index.n != maxScopes || !tab.scopes.full() {
		t.Fatalf("%d live scopes, want %d", tab.scopes.index.n, maxScopes)
	}
	fresh := []packet.SessionKey{keyOf(maxScopes), keyOf(maxScopes + 1), keyOf(maxScopes + 2)}
	n, mem := tab.Len(), tab.MemBytes()
	if _, err := tab.GetOrCreate(fresh[0], fresh[0].VNIC, 0); err != ErrNoMemory {
		t.Fatalf("a new scope past the limit: %v, want ErrNoMemory", err)
	}
	if tab.Rejects != 1 || tab.Len() != n || tab.MemBytes() != mem || tab.Peek(fresh[0]) != nil {
		t.Fatalf("refused insert: Rejects %d, Len %d (was %d), MemBytes %d (was %d)", tab.Rejects, tab.Len(), n, tab.MemBytes(), mem)
	}
	held := keyIn(5, 2)
	if _, err := tab.GetOrCreate(held, held.VNIC, 0); err != nil {
		t.Fatalf("a held scope refused at the limit: %v", err)
	}
	// vNIC 1 holds the first two scopes, one per VPC.
	if got := tab.InvalidateVNIC(1); got != 2 {
		t.Fatalf("InvalidateVNIC(1) = %d, want 2", got)
	}
	for i, k := range fresh {
		_, err := tab.GetOrCreate(k, k.VNIC, 0)
		if want := i < 2; (err == nil) != want {
			t.Fatalf("new scope %d after two were freed: %v", i, err)
		}
		if e := tab.Peek(k); (e != nil) != (err == nil) || (e != nil && tab.Key(e) != k) {
			t.Fatalf("new scope %d: Peek %p after err %v", i, e, err)
		}
	}
	if tab.Rejects != 2 {
		t.Fatalf("Rejects %d, want 2", tab.Rejects)
	}
}
