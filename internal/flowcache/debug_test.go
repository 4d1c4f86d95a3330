//go:build simdebug

package flowcache

import (
	"testing"

	"nezha/internal/packet"
	"nezha/internal/state"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a simdebug panic, got none", what)
		}
	}()
	f()
}

// TestGetOrCreateVNICMismatchPanics pins the entry-vNIC rule: an entry
// belongs to its key's vNIC, so creating one under another vNIC panics
// and leaves the table as it was.
func TestGetOrCreateVNICMismatchPanics(t *testing.T) {
	tab := New(Config{})
	k := keyFor(0)
	mustPanic(t, "GetOrCreate", func() { _, _ = tab.GetOrCreate(k, k.VNIC+1, 0) })
	mustPanic(t, "GetOrCreateH", func() { _, _ = tab.GetOrCreateH(k, k.Hash(), k.VNIC+1, 0) })
	if tab.Len() != 0 || tab.MemBytes() != 0 {
		t.Fatalf("refused creates left %d entries, %d bytes", tab.Len(), tab.MemBytes())
	}
	if _, err := tab.GetOrCreate(k, k.VNIC, 0); err != nil {
		t.Fatal(err)
	}
}

// TestReleasedSlotPoison pins the tripwires on the slots an entry
// refers to by id. Reading a deleted entry's pre-actions or state
// panics; so does reading or releasing a pre-actions or state slot
// that has been released — what a live entry would see if a refcount
// went wrong and its slot were freed under it.
func TestReleasedSlotPoison(t *testing.T) {
	tab := New(Config{})
	pal := prePalette()
	held := make([]*Entry, 3)
	for i := range held {
		k := keyFor(i)
		held[i], _ = tab.GetOrCreate(k, k.VNIC, 0)
		if err := tab.SetPre(held[i], pal[1+i], 1); err != nil {
			t.Fatal(err)
		}
		if err := tab.TouchState(held[i], packet.DirTX, packet.FlagSYN, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	// A deleted entry: the entry check fires first.
	gone := held[0]
	preID, stID := gone.pre, gone.st
	tab.Delete(gone.Key)
	mustPanic(t, "Pre after delete", func() { tab.Pre(gone) })
	mustPanic(t, "State after delete", func() { tab.State(gone) })
	// Its slots are poisoned in their own right.
	mustPanic(t, "read of a released pre-actions slot", func() { tab.pre.get(preID) })
	mustPanic(t, "second release of a pre-actions slot", func() { tab.pre.release(preID) })
	mustPanic(t, "read of a released state slot", func() { checkState(tab.states.at(stID)) })
	mustPanic(t, "second release of a state slot", func() { tab.states.release(stID, gone.Key.VNIC) })

	// A live entry whose slots were released under it.
	e := held[1]
	tab.pre.release(e.pre)
	mustPanic(t, "Pre through a released id", func() { tab.Pre(e) })
	tab.states.release(e.st, e.Key.VNIC)
	mustPanic(t, "State through a released slot", func() { tab.State(e) })
	mustPanic(t, "TouchState through a released slot", func() { _ = tab.TouchState(e, packet.DirTX, packet.FlagACK, 0, 1) })

	// Counterweight: an untouched entry passes every check.
	if ok := held[2]; *tab.Pre(ok) != pal[3] || !tab.State(ok).Init {
		t.Fatalf("live entry reads wrong: %+v / %+v", *tab.Pre(ok), *tab.State(ok))
	}
}

// TestAccessorWritesPanic pins that Pre and State hand out read-only
// pointers: into the pool slot every entry caching a value shares, or
// to the zero values that stand for "none". A write through one panics
// at the next read instead of changing other flows' actions.
func TestAccessorWritesPanic(t *testing.T) {
	tab := New(Config{})
	k := keyFor(0)
	e, _ := tab.GetOrCreate(k, k.VNIC, 0)
	func() {
		defer func() { noState = state.State{} }()
		tab.State(e).Pkts = 1
		mustPanic(t, "read after a write to the zero state", func() { tab.Pre(e) })
	}()
	if err := tab.SetPre(e, prePalette()[1], 1); err != nil {
		t.Fatal(err)
	}
	tab.Pre(e).TX.PeerVNIC++
	mustPanic(t, "read after a write to an interned value", func() { tab.Pre(e) })
}
