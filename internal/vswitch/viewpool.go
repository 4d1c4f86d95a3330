package vswitch

// Zero-copy Nezha metadata (DESIGN.md §15): on same-process hops the
// BE→FE state carriage and FE→BE pre-action carriage travel as typed
// views over pooled boxes instead of Marshal/Unmarshal blob
// round-trips. A viewBox holds the NezhaHeader itself plus the typed
// payload; packet.HeaderView's WireLen/AppendWire produce exactly the
// bytes the equivalent blob would, so wire-mode fabrics, Clone, and
// SizeBytes accounting are unchanged. Consumers that find a *viewBox
// read the value directly; anything else (a blob from a wire-mode hop,
// a foreign view) falls back to Decode.
//
// Lifecycle: the attach sites (planBeTX, planFeRX, sendNotify) take a
// box from the per-vSwitch pool. The box goes back to that same pool
// (one single-threaded sim world, so reaching into the sender's pool
// is safe) whenever its header leaves the packet, through
// packet.PooledView: the consumer's StripNezha on a live path, and
// Release on every terminal one — a vSwitch drop, fabric loss, a chaos
// drop, the original of a wire-mode send once its marshalled copy is
// decoded. So each pool is bounded by its own switch's headers in
// flight, however lopsided the BE→FE and FE→BE flows are. A packet
// never released (a raw handler keeping it) keeps its box out of the
// pool for good; correctness never depends on recycling. The simdebug build guards
// use-after-recycle and a second return (see viewdebug_on.go).

import (
	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// viewBox is one pooled header+payload carrier. hdr.Type selects which
// payload field is live: NezhaCarryState → st, NezhaCarryPreActions →
// pre.
type viewBox struct {
	hdr  packet.NezhaHeader
	st   state.State
	pre  tables.PreActions
	home *VSwitch // whose pool the box returns to
	dbg  viewDebugState
}

// WireLen implements packet.HeaderView.
func (b *viewBox) WireLen() int {
	b.dbg.checkLive("view box")
	if b.hdr.Type == packet.NezhaCarryPreActions {
		return b.pre.WireLen()
	}
	return b.st.WireLen()
}

// AppendWire implements packet.HeaderView. The encoding must be
// byte-identical to the blob Encode would have produced.
func (b *viewBox) AppendWire(dst []byte) []byte {
	b.dbg.checkLive("view box")
	if b.hdr.Type == packet.NezhaCarryPreActions {
		return b.pre.AppendWire(dst)
	}
	return b.st.AppendWire(dst)
}

func (vs *VSwitch) getBox() *viewBox {
	b := vs.boxes.Get()
	b.home = vs
	b.dbg.markLive("view box")
	return b
}

// Recycle implements packet.PooledView: b returns to the pool of the
// vSwitch that took it, not the one consuming it.
func (b *viewBox) Recycle() {
	b.dbg.markFree("view box")
	poisonBox(b)
	b.home.boxes.Put(b)
}

// attachStateView attaches a CarryState header holding a snapshot of
// st — a value copy, matching Encode-at-attach semantics (the sender's
// live state keeps mutating while the packet is in flight).
func (vs *VSwitch) attachStateView(p *packet.Packet, vnic uint32, dir packet.Direction, st state.State) {
	b := vs.getBox()
	b.st = st
	b.hdr = packet.NezhaHeader{Type: packet.NezhaCarryState, VNIC: vnic, Dir: dir, StateView: b}
	p.AttachNezha(&b.hdr)
}

// attachPreView attaches a CarryPreActions header holding pre by
// value, preserving the original outer source for stateful decap.
func (vs *VSwitch) attachPreView(p *packet.Packet, vnic uint32, pre tables.PreActions, orig packet.IPv4) {
	b := vs.getBox()
	b.pre = pre
	b.hdr = packet.NezhaHeader{Type: packet.NezhaCarryPreActions, VNIC: vnic, Dir: packet.DirRX, PreView: b, OrigOuterSrc: orig}
	p.AttachNezha(&b.hdr)
}

// nezhaState extracts carried session state: zero-copy when the header
// holds a pooled view, Decode otherwise.
func nezhaState(h *packet.NezhaHeader) (state.State, error) {
	if h.StateBlob == nil && h.StateView != nil {
		if b, ok := h.StateView.(*viewBox); ok {
			b.dbg.checkLive("view box")
			return b.st, nil
		}
		return state.Decode(h.StateView.AppendWire(nil))
	}
	return state.Decode(h.StateBlob)
}

// nezhaPre extracts carried pre-actions, view or blob.
func nezhaPre(h *packet.NezhaHeader) (tables.PreActions, error) {
	if h.PreActionBlob == nil && h.PreView != nil {
		if b, ok := h.PreView.(*viewBox); ok {
			b.dbg.checkLive("view box")
			return b.pre, nil
		}
		return tables.DecodePreActions(h.PreView.AppendWire(nil))
	}
	return tables.DecodePreActions(h.PreActionBlob)
}
