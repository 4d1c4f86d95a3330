// Package state implements per-session state: the TCP finite-state
// machine, the first-packet direction used by stateful ACL, the
// recorded overlay source used by stateful decapsulation, and
// flow-level statistics. This is exactly the data Nezha keeps local
// in one copy at the vNIC backend while rule/flow tables move to the
// frontends (§3.1).
//
// Two encodings exist: the fixed 64-byte layout that the production
// session table allocates per entry, and a variable-length encoding
// (a presence bitmap plus only the non-default fields) whose average
// size lands in the paper's observed 5–8 B band (§7.1, Fig 15).
package state

import (
	"encoding/binary"
	"errors"

	"nezha/internal/packet"
	"nezha/internal/tables"
)

// TCPState is the conntrack-style connection phase.
type TCPState uint8

// Connection phases.
const (
	TCPNone TCPState = iota
	TCPSynSent
	TCPSynRecv
	TCPEstablished
	TCPFinWait
	TCPClosed
)

func (s TCPState) String() string {
	switch s {
	case TCPNone:
		return "none"
	case TCPSynSent:
		return "syn-sent"
	case TCPSynRecv:
		return "syn-recv"
	case TCPEstablished:
		return "established"
	case TCPFinWait:
		return "fin-wait"
	case TCPClosed:
		return "closed"
	default:
		return "invalid"
	}
}

// FixedSizeBytes is the memory one session-state slot occupies in the
// fixed-size layout (§7.1: "a flow that does not require a stateful
// NF may have an empty state but still occupies 64B").
const FixedSizeBytes = 64

// Aging times (nanoseconds of virtual time). Established sessions use
// the paper's ~8 s average residence; sessions still establishing get
// a much shorter aging so SYN floods cannot pin BE memory (§7.3).
const (
	AgingEstablished = int64(8e9)
	AgingSyn         = int64(1e9)
	AgingClosed      = int64(250e6)
	AgingDefault     = int64(8e9)
)

// State is one session's state. The zero value is an uninitialized
// state (no first packet seen).
type State struct {
	// Init reports whether the state has been initialized by a first
	// packet.
	Init bool
	// FirstDir is the direction of the session's first packet — the
	// stateful-ACL state (§5.1).
	FirstDir packet.Direction
	// TCP is the connection FSM phase.
	TCP TCPState
	// Policy is the installed statistics policy — the rule-table-
	// involved state of §3.2.2. It sits beside the FSM bytes, so the
	// four fill one word and a State is 40 bytes.
	Policy tables.StatsPolicy
	// DecapIP is the recorded overlay source for stateful decap
	// (§5.2); zero when not in use.
	DecapIP packet.IPv4
	// BytesIn / BytesOut / Pkts are the flow-level statistics, only
	// maintained as Policy directs.
	BytesIn  uint64
	BytesOut uint64
	Pkts     uint64
	// LastSeen is the virtual time (ns) of the last packet.
	LastSeen int64
}

// InitFirst initializes the state from the session's first packet.
// It is idempotent: re-initializing an initialized state is a no-op,
// preserving the true first-packet direction.
func (s *State) InitFirst(dir packet.Direction, now int64) {
	if s.Init {
		return
	}
	s.Init = true
	s.FirstDir = dir
	s.LastSeen = now
}

// Touch advances the TCP FSM and statistics for one packet.
// dirFromInitiator reports whether the packet travels in the same
// direction as the session's first packet.
func (s *State) Touch(dir packet.Direction, flags packet.TCPFlags, payloadLen int, now int64) {
	s.InitFirst(dir, now)
	s.LastSeen = now
	fromInitiator := dir == s.FirstDir

	switch {
	case flags.Has(packet.FlagRST):
		s.TCP = TCPClosed
	case flags.Has(packet.FlagSYN) && flags.Has(packet.FlagACK):
		if s.TCP == TCPSynSent {
			s.TCP = TCPSynRecv
		}
	case flags.Has(packet.FlagSYN):
		if s.TCP == TCPNone {
			s.TCP = TCPSynSent
		}
	case flags.Has(packet.FlagFIN):
		switch s.TCP {
		case TCPEstablished:
			s.TCP = TCPFinWait
		case TCPFinWait:
			s.TCP = TCPClosed
		}
	case flags.Has(packet.FlagACK):
		if s.TCP == TCPSynRecv && fromInitiator {
			s.TCP = TCPEstablished
		}
	}

	// Statistics per installed policy.
	if s.Policy&tables.StatsPackets != 0 {
		s.Pkts++
	}
	if dir == packet.DirRX && s.Policy&tables.StatsBytesIn != 0 {
		s.BytesIn += uint64(payloadLen)
	}
	if dir == packet.DirTX && s.Policy&tables.StatsBytesOut != 0 {
		s.BytesOut += uint64(payloadLen)
	}
}

// Aging returns how long this state may sit idle before eviction.
func (s *State) Aging() int64 {
	switch s.TCP {
	case TCPSynSent, TCPSynRecv:
		return AgingSyn
	case TCPEstablished, TCPFinWait:
		return AgingEstablished
	case TCPClosed:
		return AgingClosed
	default:
		return AgingDefault
	}
}

// Expired reports whether the state should be evicted at virtual time
// now.
func (s *State) Expired(now int64) bool {
	return now-s.LastSeen > s.Aging()
}

// Variable-length encoding: a one-byte presence bitmap followed by
// only the fields that differ from their zero values. The common
// case (stateful ACL only: init flag + first direction + FSM phase)
// costs 2 bytes; heavily instrumented sessions cost up to ~31.
const (
	encFirstDir = 1 << iota
	encTCP
	encDecap
	encPolicy
	encStats
	encLastSeen
)

// Encode serializes the state in variable-length form — the blob TX
// packets carry from BE to FE.
func (s *State) Encode() []byte {
	return s.AppendWire(make([]byte, 0, 8))
}

// WireLen returns the encoded length; with AppendWire it satisfies
// packet.HeaderView, letting same-process hops carry state as a
// zero-copy view instead of a blob.
func (s *State) WireLen() int { return s.EncodedSize() }

// AppendWire appends the variable-length encoding to dst and returns
// it. The bytes are exactly Encode()'s — wire mode materializes views
// through this and must stay blob-identical.
func (s *State) AppendWire(dst []byte) []byte {
	if !s.Init {
		return append(dst, 0)
	}
	base := len(dst)
	bitmap := byte(encFirstDir)
	b := append(dst, 0)
	b = append(b, byte(s.FirstDir))
	if s.TCP != TCPNone {
		bitmap |= encTCP
		b = append(b, byte(s.TCP))
	}
	if s.DecapIP != 0 {
		bitmap |= encDecap
		b = binary.BigEndian.AppendUint32(b, uint32(s.DecapIP))
	}
	if s.Policy != 0 {
		bitmap |= encPolicy
		b = append(b, byte(s.Policy))
	}
	if s.BytesIn|s.BytesOut|s.Pkts != 0 {
		bitmap |= encStats
		b = binary.BigEndian.AppendUint64(b, s.BytesIn)
		b = binary.BigEndian.AppendUint64(b, s.BytesOut)
		b = binary.BigEndian.AppendUint64(b, s.Pkts)
	}
	if s.LastSeen != 0 {
		bitmap |= encLastSeen
		b = binary.BigEndian.AppendUint64(b, uint64(s.LastSeen))
	}
	b[base] = bitmap
	return b
}

// EncodedSize returns len(Encode()) without allocating; Fig 15's
// state-size census uses it.
func (s *State) EncodedSize() int {
	if !s.Init {
		return 1
	}
	n := 2
	if s.TCP != TCPNone {
		n++
	}
	if s.DecapIP != 0 {
		n += 4
	}
	if s.Policy != 0 {
		n++
	}
	if s.BytesIn|s.BytesOut|s.Pkts != 0 {
		n += 24
	}
	if s.LastSeen != 0 {
		n += 8
	}
	return n
}

// ErrBadState reports a malformed state blob.
var ErrBadState = errors.New("state: malformed blob")

// Decode parses a blob produced by Encode.
func Decode(b []byte) (State, error) {
	var s State
	if len(b) == 0 {
		return s, ErrBadState
	}
	bitmap := b[0]
	if bitmap == 0 {
		if len(b) != 1 {
			return s, ErrBadState
		}
		return s, nil
	}
	if bitmap&encFirstDir == 0 {
		return s, ErrBadState
	}
	s.Init = true
	off := 1
	need := func(n int) bool { return len(b) >= off+n }
	if !need(1) {
		return s, ErrBadState
	}
	s.FirstDir = packet.Direction(b[off])
	off++
	if bitmap&encTCP != 0 {
		if !need(1) {
			return s, ErrBadState
		}
		s.TCP = TCPState(b[off])
		off++
	}
	if bitmap&encDecap != 0 {
		if !need(4) {
			return s, ErrBadState
		}
		s.DecapIP = packet.IPv4(binary.BigEndian.Uint32(b[off:]))
		off += 4
	}
	if bitmap&encPolicy != 0 {
		if !need(1) {
			return s, ErrBadState
		}
		s.Policy = tables.StatsPolicy(b[off])
		off++
	}
	if bitmap&encStats != 0 {
		if !need(24) {
			return s, ErrBadState
		}
		s.BytesIn = binary.BigEndian.Uint64(b[off:])
		s.BytesOut = binary.BigEndian.Uint64(b[off+8:])
		s.Pkts = binary.BigEndian.Uint64(b[off+16:])
		off += 24
	}
	if bitmap&encLastSeen != 0 {
		if !need(8) {
			return s, ErrBadState
		}
		s.LastSeen = int64(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	if off != len(b) {
		return s, ErrBadState
	}
	return s, nil
}
