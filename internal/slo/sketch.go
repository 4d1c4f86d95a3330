package slo

import (
	"cmp"
	"slices"
	"strings"

	"nezha/internal/packet"
)

// Heavy-hitter tracking: a count-min sketch for frequency estimates
// plus a fixed candidate table for identity. Both are driven by the
// packet's memoized session-key hash — the datapath already computed
// it for the session lookup and RSS placement, so the SLO layer adds
// zero hashing: row indexes are one multiply+shift per row off that
// same 64-bit hash (the multipliers are independent odd constants, so
// the four row projections are pairwise-independent enough for CM
// guarantees at this width).
const (
	sketchRows      = 4
	sketchWidthBits = 11
	sketchWidth     = 1 << sketchWidthBits // 2048 counters per row

	// slotCount candidate slots hold flow identity for top-K ranking;
	// a slot is stolen when a colliding flow's CM estimate exceeds the
	// incumbent's count (space-saving style, deterministic).
	slotCount = 512
)

// Independent odd multipliers for the row projections.
var rowMix = [sketchRows]uint64{
	0x9e3779b97f4a7c15,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
	0xd6e8feb86659fd93,
}

type flowSlot struct {
	hash  uint64
	key   packet.SessionKey
	count uint64
	bytes uint64
}

// Sketch is the combined count-min sketch + candidate table with lazy
// periodic decay. The zero value needs SetDecay (or defaults applied
// by the Tracker) before use; decayEvery == 0 disables decay.
type Sketch struct {
	rows  [sketchRows][sketchWidth]uint64
	slots [slotCount]flowSlot

	decayEvery int64 // virtual ns between halvings; 0 = never
	lastDecay  int64
	decays     uint64
}

// SetDecay sets the halving period in virtual nanoseconds.
func (s *Sketch) SetDecay(every int64) { s.decayEvery = every }

// Observe records one packet of the flow identified by (hash, key).
// now is virtual time, used only to drive lazy decay — rankings track
// the current window because every counter is halved each decay
// period, so an old elephant fades in O(log count) periods.
func (s *Sketch) Observe(now int64, hash uint64, key packet.SessionKey, bytes uint64) {
	if s.decayEvery > 0 {
		if s.lastDecay == 0 {
			s.lastDecay = now
		} else if now-s.lastDecay >= s.decayEvery {
			s.decay()
			s.lastDecay = now
		}
	}

	// Count-min update: increment each row, estimate = min after.
	est := ^uint64(0)
	for i := 0; i < sketchRows; i++ {
		c := &s.rows[i][(hash*rowMix[i])>>(64-sketchWidthBits)]
		*c++
		if *c < est {
			est = *c
		}
	}

	sl := &s.slots[hash&(slotCount-1)]
	switch {
	case sl.count != 0 && sl.hash == hash:
		sl.count++
		sl.bytes += bytes
	case est > sl.count:
		// New flow (or colliding flow that grew past the incumbent):
		// adopt the CM estimate as its count. Byte totals restart — they
		// are reported per-candidate, not CM-backed.
		*sl = flowSlot{hash: hash, key: key, count: est, bytes: bytes}
	}
}

// decay halves every row counter and candidate count, dropping
// candidates that reach zero.
func (s *Sketch) decay() {
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] >>= 1
		}
	}
	for i := range s.slots {
		s.slots[i].count >>= 1
		s.slots[i].bytes >>= 1
		if s.slots[i].count == 0 {
			s.slots[i] = flowSlot{}
		}
	}
	s.decays++
}

// HotFlow is one ranked heavy hitter, JSON-ready for /api/v1/flows/top.
type HotFlow struct {
	Flow    string `json:"flow"` // normalized five-tuple
	VNIC    uint32 `json:"vnic"`
	VPC     uint32 `json:"vpc"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
}

// Top returns the k highest-count candidates, deterministically
// ordered (count desc, then vnic/vpc/flow asc), in an exactly sized
// slice; k <= 0 returns nil. Candidates are ranked by count first, so
// only those at or above the k-th count have their five-tuple rendered
// (for the flow tie-break). Snapshot-path only — it allocates.
func (s *Sketch) Top(k int) []HotFlow {
	if k <= 0 {
		return nil
	}
	idx := make([]uint16, 0, slotCount)
	for i := range s.slots {
		if s.slots[i].count != 0 {
			idx = append(idx, uint16(i))
		}
	}
	slices.SortFunc(idx, func(a, b uint16) int { return cmp.Compare(s.slots[b].count, s.slots[a].count) })
	k = min(k, len(idx))
	n := k
	for n < len(idx) && s.slots[idx[n]].count == s.slots[idx[k-1]].count {
		n++
	}
	out := make([]HotFlow, n)
	for i := range out {
		sl := &s.slots[idx[i]]
		out[i] = HotFlow{
			Flow:    sl.key.Tuple.String(),
			VNIC:    sl.key.VNIC,
			VPC:     sl.key.VPC,
			Packets: sl.count,
			Bytes:   sl.bytes,
		}
	}
	slices.SortFunc(out, func(a, b HotFlow) int {
		if c := cmp.Compare(b.Packets, a.Packets); c != 0 {
			return c
		}
		if c := cmp.Compare(a.VNIC, b.VNIC); c != 0 {
			return c
		}
		if c := cmp.Compare(a.VPC, b.VPC); c != 0 {
			return c
		}
		return strings.Compare(a.Flow, b.Flow)
	})
	if n > k {
		out = append(make([]HotFlow, 0, k), out[:k]...)
	}
	return out
}
