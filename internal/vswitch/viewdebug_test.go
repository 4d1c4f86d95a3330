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
	p.StripNezha()

	mustPanic(t, "WireLen after recycle", func() { box.WireLen() })
	mustPanic(t, "AppendWire after recycle", func() { box.AppendWire(nil) })
	mustPanic(t, "nezhaState after recycle", func() { _, _ = nezhaState(h) })
}

// TestViewDebugDropRecycles pins that drop, not only the consuming
// strip, recycles a view box: after a BE→FE packet is dropped as
// overload, reading its box panics.
func TestViewDebugDropRecycles(t *testing.T) {
	w := overloadedBE(t)
	w.beOverloadSend()
	box := w.B.boxes.Top()
	if box == nil || w.B.Stats.Drops[DropOverload] != 1 {
		t.Fatalf("overload drop did not recycle the box (drops %v)", w.B.Stats.Drops)
	}
	mustPanic(t, "WireLen after drop", func() { box.WireLen() })
}

// TestViewDebugDoubleRecycle pins that recycling the same box twice
// panics — a double-free would corrupt the freelist.
func TestViewDebugDoubleRecycle(t *testing.T) {
	w := newWorld(t, 0, nil)
	p := viewTestPacket(2)
	w.A.attachStateView(p, clientVNIC, packet.DirTX, viewTestState())
	box := p.Nezha.StateView.(*viewBox)
	p.StripNezha()
	mustPanic(t, "double recycle", func() { box.Recycle() })
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
	p.StripNezha()
}

// TestStageDebugTripwires pins the same guards on the scalar path's
// pooled stage tasks: one that returns to the freelist while its
// completion is still scheduled panics when the event fires, as do a
// double put and handing out a task that is still live.
func TestStageDebugTripwires(t *testing.T) {
	w := newWorld(t, 0, nil)
	task := &stageTask{vs: w.A}
	task.dbg.markLive("stage task") // as runPlan does before scheduling it
	mustPanic(t, "acquire while scheduled", func() { task.dbg.markLive("stage task") })
	w.A.putStage(task)
	mustPanic(t, "fire after recycle", func() { task.Run() })
	mustPanic(t, "double put", func() { w.A.putStage(task) })

	// Counterweight: a real packet's submit → completion cycle runs clean
	// and leaves the task on the freelist.
	w.installLocal(t, false)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()
	if len(w.deliveredB) != 1 || w.A.stages.Idle() == 0 {
		t.Fatalf("delivered %d, stage freelist empty=%v", len(w.deliveredB), w.A.stages.Idle() == 0)
	}
}

// TestBurstRunDebugTripwires pins the same guards on the pooled burst
// sinks: completing an item of a run that already returned to the
// freelist panics, as does returning a run twice.
func TestBurstRunDebugTripwires(t *testing.T) {
	w := newWorld(t, 0, nil)
	p := packet.New(1, vpcID, clientVNIC, tuple(4000), packet.DirTX, packet.FlagSYN, 0)
	r := w.A.getRun([]burstAct{{p: p, kind: actDropACL}})
	w.A.putRun(r)
	mustPanic(t, "complete after recycle", func() { r.Complete(0, true, 0) })
	mustPanic(t, "double put", func() { w.A.putRun(r) })

	// Counterweight: a real two-packet burst runs clean and leaves its
	// run on the freelist.
	w = newWorld(t, 0, nil)
	w.installLocal(t, false)
	ps := []*packet.Packet{
		packet.New(2, vpcID, clientVNIC, tuple(4001), packet.DirTX, packet.FlagSYN, 0),
		packet.New(3, vpcID, clientVNIC, tuple(4002), packet.DirTX, packet.FlagSYN, 0),
	}
	w.A.FromVMBurst(ps)
	w.loop.RunAll()
	if len(w.deliveredB) != 2 || w.A.runs.Idle() == 0 {
		t.Fatalf("delivered %d, run freelist empty=%v", len(w.deliveredB), w.A.runs.Idle() == 0)
	}
}

// TestSessionEntryUseAfterDelete pins the session table's tripwire: an
// *Entry held across the deletion of its session points at a recycled
// slot — another flow's once reused. Writing state through it would
// corrupt that flow, so under simdebug the table panics on every entry
// point that takes an *Entry.
func TestSessionEntryUseAfterDelete(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)
	w.clientSend(1000, packet.FlagSYN)
	w.loop.RunAll()

	p := packet.New(99, vpcID, clientVNIC, tuple(1000), packet.DirTX, packet.FlagACK, 0)
	key, hash, _ := p.SessionKeyHashed()
	tab := w.A.sessions
	held := tab.PeekH(key, hash)
	if held == nil {
		t.Fatal("established flow has no session entry")
	}

	tab.Delete(key)
	mustPanic(t, "TouchState after delete", func() { _ = tab.TouchState(held, packet.DirTX, packet.FlagACK, 0, 0) })
	mustPanic(t, "SetPre after delete", func() { _ = tab.SetPre(held, tables.PreActions{}, 1) })
	mustPanic(t, "SetState after delete", func() { _ = tab.SetState(held, state.State{}) })
	mustPanic(t, "DropPre after delete", func() { tab.DropPre(held) })
	mustPanic(t, "Key after delete", func() { tab.Key(held) })

	// The slot's next owner is live again and passes every check.
	e, err := tab.GetOrCreateH(key, hash, clientVNIC, 1)
	if err != nil || e != held {
		t.Fatalf("recycled slot not reused: %p vs %p, err %v", e, held, err)
	}
	if err := tab.SetPre(e, tables.PreActions{}, 1); err != nil {
		t.Fatal(err)
	}
}

// TestBurstIngressChecksLive pins that both burst entry points assert
// every packet is live, as FromVM and HandleUnderlay do: a released
// packet slipped into a batch — even behind a live one — panics at
// ingress instead of being planned, submitted and released twice.
func TestBurstIngressChecksLive(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.installLocal(t, false)

	live := packet.New(1, vpcID, clientVNIC, tuple(2000), packet.DirTX, packet.FlagSYN, 0)
	gone := packet.New(2, vpcID, clientVNIC, tuple(2001), packet.DirTX, packet.FlagSYN, 0)
	gone.Release()
	mustPanic(t, "FromVMBurst of a released packet", func() { w.A.FromVMBurst([]*packet.Packet{live, gone}) })

	// A monolithic-RX run of two at B.
	live = packet.New(3, vpcID, serverVNIC, tuple(2002), packet.DirRX, packet.FlagSYN, 0)
	gone = packet.New(4, vpcID, serverVNIC, tuple(2003), packet.DirRX, packet.FlagSYN, 0)
	gone.Release()
	mustPanic(t, "HandleUnderlayBurst of a released packet", func() { w.B.HandleUnderlayBurst([]*packet.Packet{live, gone}) })
}

// TestViewDebugReleaseAfterStrip pins that Release recycles only a
// header still attached: a packet whose header was stripped (its box
// already home) releases without a second put, which the double-put
// guard would turn into a panic, and the box sits on the freelist once.
// A packet still holding a header whose box went home behind its back
// is the bug that guard exists for: releasing it panics.
func TestViewDebugReleaseAfterStrip(t *testing.T) {
	w := newWorld(t, 0, nil)
	p := packet.Get(1, vpcID, clientVNIC, tuple(4242), packet.DirTX, packet.FlagACK, 128)
	w.A.attachStateView(p, clientVNIC, packet.DirTX, viewTestState())
	box := p.Nezha.StateView.(*viewBox)
	p.StripNezha()
	p.Release()
	if w.A.boxes.Top() != box || w.A.boxes.Idle() != 1 {
		t.Fatal("strip then release did not leave the box on its freelist exactly once")
	}

	q := packet.Get(2, vpcID, clientVNIC, tuple(4242), packet.DirTX, packet.FlagACK, 128)
	w.A.attachStateView(q, clientVNIC, packet.DirTX, viewTestState())
	if q.Nezha.StateView.(*viewBox) != box {
		t.Fatal("freelist did not reuse the recycled box")
	}
	box.Recycle()
	mustPanic(t, "release after recycle", q.Release)
}
