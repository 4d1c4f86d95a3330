//go:build simdebug

package vswitch

import (
	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// viewDebugState tracks a pooled view box's lifecycle under -tags
// simdebug. A box read after returning to the freelist would silently
// corrupt SizeBytes accounting (WireLen feeds StripNezha); here it
// panics instead, and freed boxes are poisoned so a stale read cannot
// accidentally return the old, still-plausible payload.
type viewDebugState struct{ st uint8 }

const (
	viewStFresh uint8 = iota
	viewStLive
	viewStFree
)

func viewMarkLive(b *viewBox) {
	if b.dbg.st == viewStLive {
		panic("vswitch: view box acquired twice without release")
	}
	b.dbg.st = viewStLive
}

func viewMarkFree(b *viewBox) {
	if b.dbg.st != viewStLive {
		panic("vswitch: view box freed while not live (double put?)")
	}
	b.dbg.st = viewStFree
	// Poison: a use-after-recycle that dodges the panic (e.g. through a
	// retained interface) must not see valid-looking data. The view
	// pointers keep aiming at the box so a stale header read still
	// funnels through viewCheckLive instead of decoding a nil blob.
	b.hdr = packet.NezhaHeader{StateView: b, PreView: b}
	b.st = state.State{}
	b.pre = tables.PreActions{}
}

func viewCheckLive(b *viewBox) {
	if b.dbg.st != viewStLive {
		panic("vswitch: view box used after recycle")
	}
}

// The scalar stage tasks carry the same tripwires: a task is live from
// submit until its completion fires, and one that returns to the
// freelist while still scheduled panics when its event runs (putStage
// clears the act, so it could otherwise only fire an empty one).

func stageMarkLive(t *stageTask) {
	if t.dbg.st == viewStLive {
		panic("vswitch: stage task acquired while scheduled")
	}
	t.dbg.st = viewStLive
}

func stageMarkFree(t *stageTask) {
	if t.dbg.st != viewStLive {
		panic("vswitch: stage task freed while not live (double put?)")
	}
	t.dbg.st = viewStFree
}

func stageCheckLive(t *stageTask) {
	if t.dbg.st != viewStLive {
		panic("vswitch: stage task fired after recycle")
	}
}
