//go:build simdebug

package vswitch

import (
	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// viewDebugState tracks a pooled object's lifecycle under -tags
// simdebug: a header-view box, a stage task or a burst run is live from
// the moment it leaves its freelist until it returns. Using one after
// it returned would silently corrupt another packet's work — a box
// read feeds SizeBytes accounting (WireLen feeds StripNezha), a stage
// task fired or a burst run completed after recycling executes a
// cleared or foreign act. Here each panics instead, as does returning
// one twice or taking one that is still live.
type viewDebugState struct{ st uint8 }

const (
	viewStFresh uint8 = iota
	viewStLive
	viewStFree
)

func (d *viewDebugState) markLive(what string) {
	if d.st == viewStLive {
		panic("vswitch: " + what + " acquired while live")
	}
	d.st = viewStLive
}

func (d *viewDebugState) markFree(what string) {
	if d.st != viewStLive {
		panic("vswitch: " + what + " freed while not live (double put?)")
	}
	d.st = viewStFree
}

func (d *viewDebugState) checkLive(what string) {
	if d.st != viewStLive {
		panic("vswitch: " + what + " used after recycle")
	}
}

// poisonBox clears a freed box: a use-after-recycle that dodges the
// panic (e.g. through a retained interface) must not see valid-looking
// data. The view pointers keep aiming at the box so a stale header
// read still funnels through checkLive instead of decoding a nil blob.
func poisonBox(b *viewBox) {
	b.hdr = packet.NezhaHeader{StateView: b, PreView: b}
	b.st = state.State{}
	b.pre = tables.PreActions{}
}
