//go:build simdebug

package flowcache

import (
	"fmt"

	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// Entry lifecycle tripwires under -tags simdebug. An *Entry is valid
// only until its entry is deleted; the datapath holds one across
// stages (the burst pipeline's eligibility probe hands its entry to the
// plan stage as a hint), and a recycled entry looks like a fresh,
// stateless one — a use after delete would silently charge, age or
// overwrite another flow's slot. The state slots and pre-actions slots
// an entry refers to by id carry the same guard: a released one is
// poisoned, and reading it panics.

// poison fills a recycled entry's identity with a pattern no packet
// produces, so a stale read that dodges checkLive cannot see a
// plausible empty entry. GetOrCreate overwrites every poisoned field
// a stateless entry reads; pre, the freelist link, is left alone.
func poison(e *Entry) {
	e.Key = packet.SessionKey{VNIC: ^uint32(0), VPC: ^uint32(0), Tuple: packet.FiveTuple{
		SrcIP: ^packet.IPv4(0), DstIP: ^packet.IPv4(0), SrcPort: 0xdead, DstPort: 0xdead, Proto: 0xff,
	}}
	e.LastSeen = -1 << 63
	e.h, e.st = ^uint32(0), ^uint32(0)
}

// checkLive panics when the table is handed an entry it has recycled.
func checkLive(e *Entry) {
	if !e.live {
		panic("flowcache: entry used after delete")
	}
}

// checkVNIC panics when an entry would be created under a vNIC other
// than its key's: the table, the residency invariant and the profiler
// read an entry's vNIC from its key.
func checkVNIC(key packet.SessionKey, vnic uint32) {
	if vnic != key.VNIC {
		panic(fmt.Sprintf("flowcache: entry for key of vNIC %d created under vNIC %d", key.VNIC, vnic))
	}
}

// poisonTCP is an FSM phase no state reaches; it marks a released
// state slot. release keeps Pkts, the freelist link.
const poisonTCP = state.TCPState(0xff)

func poisonState(s *state.State) {
	s.TCP, s.DecapIP, s.LastSeen = poisonTCP, ^packet.IPv4(0), -1<<63
}

// checkState panics on a read of a released state slot.
func checkState(s *state.State) {
	if s.TCP == poisonTCP {
		panic("flowcache: session state read after its slot was released")
	}
}

// poisonPre fills a released pre-actions slot with actions no rule
// walk produces (a verdict past the defined ones).
func poisonPre(s *preSlot) {
	for _, a := range [2]*tables.PreAction{&s.val.TX, &s.val.RX} {
		a.ACL, a.NextHop, a.PeerVNIC = 0xff, ^packet.IPv4(0), ^uint32(0)
	}
}

// checkPre panics on a read or release of a freed pre-actions slot,
// and on an interned value that no longer hashes to its bucket — one
// written through a pointer Pre returned.
func checkPre(s *preSlot) {
	if s.refs == 0 {
		panic("flowcache: pre-actions read after their slot was released")
	}
	if hashPre(&s.val, s.version) != s.h {
		panic("flowcache: interned pre-actions written through Pre")
	}
}

// checkNone panics when the zero values Pre and State return for an
// entry without pre-actions or state were written through.
func checkNone() {
	if noPre != (tables.PreActions{}) || noState != (state.State{}) {
		panic("flowcache: the zero pre-actions or state written through Pre or State")
	}
}
