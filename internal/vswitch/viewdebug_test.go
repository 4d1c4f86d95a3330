//go:build simdebug

package vswitch

import (
	"testing"

	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// The simdebug build arms lifecycle tripwires on the pooled view
// boxes. These tests prove the tripwires actually fire: silently
// reading a recycled box would mean a use-after-free-style corruption
// that the release build can't see.

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a simdebug panic, got none", what)
		}
	}()
	f()
}

// TestViewDebugUseAfterRecycle pins that every read through a recycled
// view — WireLen, AppendWire, the typed extractors — panics instead of
// returning poisoned data.
func TestViewDebugUseAfterRecycle(t *testing.T) {
	w := newWorld(t, 0, nil)
	st := viewTestState()
	p := viewTestPacket(1)
	w.A.attachStateView(p, clientVNIC, packet.DirTX, st)
	h := p.Nezha
	box := h.StateView.(*viewBox)
	w.A.stripNezha(p)

	mustPanic(t, "WireLen after recycle", func() { box.WireLen() })
	mustPanic(t, "AppendWire after recycle", func() { box.AppendWire(nil) })
	mustPanic(t, "nezhaState after recycle", func() { _, _ = nezhaState(h) })
}

// TestViewDebugDoubleRecycle pins that recycling the same box twice
// panics — a double-free would corrupt the freelist.
func TestViewDebugDoubleRecycle(t *testing.T) {
	w := newWorld(t, 0, nil)
	p := viewTestPacket(2)
	w.A.attachStateView(p, clientVNIC, packet.DirTX, viewTestState())
	box := p.Nezha.StateView.(*viewBox)
	w.A.stripNezha(p)
	mustPanic(t, "double recycle", func() { w.A.putBox(box) })
}

// TestViewDebugLiveViewStaysUsable is the counterweight: a live view
// must pass every check, and a full attach→consume→strip cycle must
// run clean under the tripwires.
func TestViewDebugLiveViewStaysUsable(t *testing.T) {
	w := newWorld(t, 0, nil)
	st := viewTestState()
	p := viewTestPacket(3)
	w.A.attachStateView(p, clientVNIC, packet.DirTX, st)
	if got, err := nezhaState(p.Nezha); err != nil || got != st {
		t.Fatalf("live view read: got %+v err %v", got, err)
	}
	if p.Nezha.WireSize() <= 0 {
		t.Fatal("live view WireSize must be positive")
	}
	w.A.stripNezha(p)
}

// TestStageDebugTripwires pins the same guards on the scalar path's
// pooled stage tasks: one that returns to the freelist while its
// completion is still scheduled panics when the event fires, as do a
// double put and handing out a task that is still live.
func TestStageDebugTripwires(t *testing.T) {
	w := newWorld(t, 0, nil)
	task := &stageTask{vs: w.A}
	stageMarkLive(task) // as submit does before scheduling it
	mustPanic(t, "acquire while scheduled", func() { stageMarkLive(task) })
	w.A.putStage(task)
	mustPanic(t, "fire after recycle", func() { task.Run() })
	mustPanic(t, "double put", func() { w.A.putStage(task) })

	// Counterweight: a real packet's submit → completion cycle runs clean
	// and leaves the task on the freelist.
	w.installLocal(t, false)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 || w.A.stageFree == nil {
		t.Fatalf("delivered %d, stage freelist empty=%v", len(w.deliveredB), w.A.stageFree == nil)
	}
}

// TestSessionEntryUseAfterDelete pins the session table's tripwire on
// the path it guards: the burst pipeline probes an entry when it sorts
// a packet as eligible and hands it to the plan stage as a hint. Were
// the session deleted in between, the plan stage would record a hit on,
// and write state into, a recycled slot — another flow's by then. Under
// simdebug the table panics on every entry point that takes an *Entry.
func TestSessionEntryUseAfterDelete(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()

	p := packet.New(99, vpcID, clientVNIC, tuple(1000), packet.DirTX, packet.FlagACK, 0)
	key, hash, _ := p.SessionKeyHashed()
	vn := w.A.vnics[clientVNIC]
	hint := w.A.burstEligible(pipeLocalTX, vn, nil, p, key, hash)
	if hint == nil {
		t.Fatal("established flow not burst-eligible")
	}
	// Counterweight: the live hint plans clean.
	var a burstAct
	if !w.A.planLocalTX(vn, nil, p, key, hash, hint, &a) {
		t.Fatal("live hint: packet consumed at plan time")
	}

	tab := w.A.sessions
	tab.Delete(key)
	mustPanic(t, "plan stage with a stale hint", func() { w.A.planLocalTX(vn, nil, p, key, hash, hint, &a) })
	mustPanic(t, "Hit after delete", func() { tab.Hit(hint, 0) })
	mustPanic(t, "TouchState after delete", func() { _ = tab.TouchState(hint, packet.DirTX, packet.FlagACK, 0, 0) })
	mustPanic(t, "SetPre after delete", func() { _ = tab.SetPre(hint, tables.PreActions{}, 1) })
	mustPanic(t, "SetState after delete", func() { _ = tab.SetState(hint, state.State{}) })
	mustPanic(t, "DropPre after delete", func() { tab.DropPre(hint) })
	if hint.Key == key {
		t.Fatal("recycled entry still carries the deleted session's key")
	}

	// The slot's next owner is live again and passes every check.
	e, err := tab.GetOrCreateH(key, hash, clientVNIC, 1)
	if err != nil || e != hint {
		t.Fatalf("recycled slot not reused: %p vs %p, err %v", e, hint, err)
	}
	tab.Hit(e, 2)
	if err := tab.SetPre(e, tables.PreActions{}, 1); err != nil {
		t.Fatal(err)
	}
}
