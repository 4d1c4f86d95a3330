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
// map model. After every op each live key's flags, pre-actions,
// version, state and LastSeen must match the model, MemBytes must be
// the model's bytes, and the pool and state store must hold exactly
// the distinct (value, version) pairs and states the live entries use. Once every key
// is deleted both hold no live slot: no reference leaks.
func TestStoreModel(t *testing.T) {
	for _, variable := range []bool{false, true} {
		t.Run(fmt.Sprintf("variable=%v", variable), func(t *testing.T) { runStoreModel(t, variable) })
	}
}

func runStoreModel(t *testing.T, variable bool) {
	const keys = 96
	tab := New(Config{MaxBytes: 24 * (EntryOverheadBytes + PreActionsBytes + state.FixedSizeBytes), VariableState: variable})
	rng := rand.New(rand.NewSource(3))
	pal := prePalette()
	model := map[packet.SessionKey]*modelEntry{}
	stateBytes := func(s *state.State) int {
		if variable {
			return s.EncodedSize()
		}
		return state.FixedSizeBytes
	}
	modelMem := func() int {
		n := 0
		for _, m := range model {
			n += EntryOverheadBytes
			if m.hasPre {
				n += PreActionsBytes
			}
			if m.hasState {
				n += stateBytes(&m.st)
			}
		}
		return n
	}
	// fits predicts the table's charge: growth past the budget fails.
	fits := func(n int) bool { return n <= 0 || tab.MemBytes()+n <= tab.MaxBytes() }
	expired := func(m *modelEntry, now int64) bool {
		if m.hasState {
			return m.st.Expired(now)
		}
		return now-m.lastSeen > idleAging
	}
	check := func(op int, what string) {
		t.Helper()
		if tab.Len() != len(model) || tab.MemBytes() != modelMem() {
			t.Fatalf("op %d (%s): Len %d MemBytes %d, model %d and %d", op, what, tab.Len(), tab.MemBytes(), len(model), modelMem())
		}
		type pair struct {
			pre     tables.PreActions
			version uint64
		}
		distinct := map[pair]bool{}
		states := 0
		for k, m := range model {
			e := tab.Peek(k)
			if e == nil {
				t.Fatalf("op %d (%s): key %v missing", op, what, k)
			}
			if e.HasPre != m.hasPre || e.HasState != m.hasState || e.LastSeen != m.lastSeen {
				t.Fatalf("op %d (%s): key %v: HasPre %v HasState %v LastSeen %d, model %+v", op, what, k, e.HasPre, e.HasState, e.LastSeen, *m)
			}
			want := tables.PreActions{}
			if m.hasPre {
				want = m.pre
				distinct[pair{m.pre, m.version}] = true
				if v := tab.PreVersion(e); v != m.version {
					t.Fatalf("op %d (%s): key %v: PreVersion %d, model %d", op, what, k, v, m.version)
				}
			}
			if got := *tab.Pre(e); got != want {
				t.Fatalf("op %d (%s): key %v: Pre %+v, model %+v", op, what, k, got, want)
			}
			wantSt := state.State{}
			if m.hasState {
				wantSt = m.st
				states++
			}
			if got := *tab.State(e); got != wantSt {
				t.Fatalf("op %d (%s): key %v: State %+v, model %+v", op, what, k, got, wantSt)
			}
		}
		if int(tab.pre.index.n) != len(distinct) || int(tab.states.n) != states {
			t.Fatalf("op %d (%s): pool holds %d pairs and the store %d states; live entries use %d and %d",
				op, what, tab.pre.index.n, tab.states.n, len(distinct), states)
		}
	}

	now := int64(0)
	var rejected, shared int
	for op := 0; op < 20000; op++ {
		now += rng.Int63n(state.AgingSyn / 16)
		k := keyFor(rng.Intn(keys))
		m := model[k]
		var e *Entry
		if m != nil {
			e = tab.Peek(k)
		}
		var what string
		switch r := rng.Intn(100); {
		case r < 25:
			what = "GetOrCreate"
			ok := fits(EntryOverheadBytes)
			got, err := tab.GetOrCreate(k, k.VNIC, now)
			switch {
			case m != nil:
				if got != e || err != nil {
					t.Fatalf("op %d: GetOrCreate of a live key: %p/%v, want %p", op, got, err, e)
				}
				m.lastSeen = now
			case ok:
				if err != nil {
					t.Fatalf("op %d: GetOrCreate: %v", op, err)
				}
				model[k] = &modelEntry{lastSeen: now}
			default:
				if err != ErrNoMemory {
					t.Fatalf("op %d: GetOrCreate past the budget: %v", op, err)
				}
				rejected++
			}
		case r < 30:
			what = "Lookup"
			if got := tab.Lookup(k, now); got != e {
				t.Fatalf("op %d: Lookup %p, want %p", op, got, e)
			}
			if m != nil {
				m.lastSeen = now
			}
		case r < 50:
			what = "SetPre"
			if m == nil {
				break
			}
			pre, version := pal[rng.Intn(len(pal))], uint64(1+rng.Intn(3))
			ok := m.hasPre || fits(PreActionsBytes)
			if err := tab.SetPre(e, pre, version); ok {
				if err != nil {
					t.Fatalf("op %d: SetPre: %v", op, err)
				}
				m.hasPre, m.pre, m.version = true, pre, version
			} else if err != ErrNoMemory {
				t.Fatalf("op %d: SetPre past the budget: %v", op, err)
			}
		case r < 54:
			what = "DropPre"
			if m != nil {
				tab.DropPre(e)
				m.hasPre, m.pre, m.version = false, tables.PreActions{}, 0
			}
		case r < 62:
			what = "SetState"
			if m == nil {
				break
			}
			st := state.State{Init: true, FirstDir: packet.Direction(rng.Intn(2)), TCP: state.TCPState(rng.Intn(4)), LastSeen: now}
			if rng.Intn(2) == 0 {
				st.Policy, st.Pkts = tables.StatsPackets, uint64(rng.Intn(100))
			}
			delta := stateBytes(&st)
			if m.hasState {
				delta -= stateBytes(&m.st)
			}
			ok := fits(delta)
			if err := tab.SetState(e, st); ok {
				if err != nil {
					t.Fatalf("op %d: SetState: %v", op, err)
				}
				m.hasState, m.st = true, st
			} else if err != ErrNoMemory {
				t.Fatalf("op %d: SetState past the budget: %v", op, err)
			}
		case r < 82:
			what = "TouchState"
			if m == nil {
				break
			}
			dir, flags := packet.Direction(rng.Intn(2)), []packet.TCPFlags{packet.FlagSYN, packet.FlagSYN | packet.FlagACK, packet.FlagACK, packet.FlagFIN}[rng.Intn(4)]
			payload := rng.Intn(1500)
			st := m.st
			st.Touch(dir, flags, payload, now)
			delta := stateBytes(&st)
			if m.hasState {
				delta -= stateBytes(&m.st)
			}
			// Under the fixed layout a held slot is touched in place,
			// without a budget check.
			ok := (m.hasState && !variable) || fits(delta)
			if err := tab.TouchState(e, dir, flags, payload, now); ok {
				if err != nil {
					t.Fatalf("op %d: TouchState: %v", op, err)
				}
				m.hasState, m.st = true, st
			} else if err != ErrNoMemory {
				t.Fatalf("op %d: TouchState past the budget: %v", op, err)
			}
		case r < 92:
			what = "Delete"
			tab.Delete(k)
			delete(model, k)
		case r < 97:
			what = "Sweep"
			at := now - rng.Int63n(state.AgingEstablished)
			want := 0
			for mk, mm := range model {
				if expired(mm, at) {
					delete(model, mk)
					want++
				}
			}
			if n := tab.Sweep(at); n != want {
				t.Fatalf("op %d: Sweep(%d) = %d, model %d", op, at, n, want)
			}
		case r < 99:
			what = "InvalidateVNIC"
			if rng.Intn(4) != 0 {
				break
			}
			vnic, want := k.VNIC, 0
			for mk := range model {
				if mk.VNIC == vnic {
					delete(model, mk)
					want++
				}
			}
			if n := tab.InvalidateVNIC(vnic); n != want {
				t.Fatalf("op %d: InvalidateVNIC(%d) = %d, model %d", op, vnic, n, want)
			}
		default:
			what = "Clear"
			if rng.Intn(4) == 0 {
				tab.Clear()
				model = map[packet.SessionKey]*modelEntry{}
			}
		}
		check(op, what)
		cached := 0
		for _, mm := range model {
			if mm.hasPre {
				cached++
			}
		}
		if cached > int(tab.pre.index.n) {
			shared++
		}
	}
	t.Logf("%d rejected inserts; pre-actions shared after %d ops", rejected, shared)
	if rejected == 0 || shared == 0 {
		t.Fatalf("run too tame: %d rejected inserts, sharing after %d ops", rejected, shared)
	}
	for k := range model {
		tab.Delete(k)
	}
	if tab.Len() != 0 || tab.MemBytes() != 0 || tab.pre.index.n != 0 || tab.states.n != 0 {
		t.Fatalf("empty table: Len %d MemBytes %d, %d pool slots and %d state slots still live",
			tab.Len(), tab.MemBytes(), tab.pre.index.n, tab.states.n)
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
// the per-vNIC counts kept at the two state sites are checked against.
func rangeStateCounts(tab *Table) map[uint32]uint32 {
	want := map[uint32]uint32{}
	tab.Range(func(e *Entry) bool {
		if e.HasState {
			want[e.Key.VNIC]++
		}
		return true
	})
	return want
}

// TestStateCountsMatchWalk drives a table through a random history of
// every operation that takes or releases a state slot — SetState on a
// fresh and a stateful entry, Delete, InvalidateVNIC, Sweep, Clear —
// over keys of five vNICs, and after each requires StateCounts to equal
// the count a full walk finds, with one element per vNIC that holds
// state and none for a vNIC that holds none.
func TestStateCountsMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := New(Config{})
	var st state.State
	st.InitFirst(packet.DirTX, 0)
	now := int64(0)
	for op := 0; op < 20000; op++ {
		now += rng.Int63n(state.AgingSyn / 50)
		k := keyIn(uint32(1+rng.Intn(5)), uint16(rng.Intn(400)))
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
		want := rangeStateCounts(tab)
		got := tab.StateCounts()
		if len(got) != len(want) {
			t.Fatalf("op %d: %d vNICs counted, the walk finds %d (%v vs %v)", op, len(got), len(want), got, want)
		}
		for _, c := range got {
			if c.N == 0 || want[c.VNIC] != c.N {
				t.Fatalf("op %d: vNIC %d counted %d stateful entries, the walk finds %d", op, c.VNIC, c.N, want[c.VNIC])
			}
		}
	}
}
