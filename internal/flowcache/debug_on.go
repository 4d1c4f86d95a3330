//go:build simdebug

package flowcache

import "nezha/internal/packet"

// Entry lifecycle tripwires under -tags simdebug. An *Entry is valid
// only until its entry is deleted; the datapath holds one across
// stages (the burst pipeline's eligibility probe hands its entry to the
// plan stage as a hint), and a recycled entry looks like a fresh,
// stateless one — a use after delete would silently charge, age or
// overwrite another flow's slot.

// poison fills a recycled entry's identity with a pattern no packet
// produces, so a stale read that dodges checkLive cannot see a
// plausible empty entry. alloc overwrites every poisoned field.
func poison(e *Entry) {
	e.Key = packet.SessionKey{VNIC: ^uint32(0), VPC: ^uint32(0), Tuple: packet.FiveTuple{
		SrcIP: ^packet.IPv4(0), DstIP: ^packet.IPv4(0), SrcPort: 0xdead, DstPort: 0xdead, Proto: 0xff,
	}}
	e.VNIC = ^uint32(0)
	e.LastSeen = -1 << 63
	e.hash = ^uint64(0)
}

// checkLive panics when the table is handed an entry it has recycled.
func checkLive(e *Entry) {
	if !e.live {
		panic("flowcache: entry used after delete")
	}
}
