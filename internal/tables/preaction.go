// Package tables implements the vSwitch slow path's rule tables: ACL
// (priority rules with prefix and port-range matching), longest-prefix
// route, QoS, NAT, VXLAN routing, policy routing, mirror, flow-log,
// statistics policy, and the vNIC-server mapping table. A per-vNIC
// RuleSet bundles them and produces the bidirectional pre-actions that
// the fast path caches (§2.1 of the paper).
//
// Pre-actions are "preliminary" because stateful NFs must still
// combine them with session state to obtain the final action; the
// encoding here is what Nezha carries in the packet header from FE to
// BE on the RX path (§3.1).
package tables

import (
	"encoding/binary"
	"errors"

	"nezha/internal/packet"
)

// Verdict is an ACL decision.
type Verdict uint8

// Verdicts. The zero value means no ACL matched; the default policy
// applies at RuleSet level.
const (
	VerdictAllow Verdict = iota + 1
	VerdictDeny
)

func (v Verdict) String() string {
	switch v {
	case VerdictAllow:
		return "allow"
	case VerdictDeny:
		return "deny"
	default:
		return "none"
	}
}

// StatsPolicy is a bitmask of which flow statistics to record; it is
// the canonical "rule table involved" state of §3.2.2 — the state to
// install at the BE is only known after a statistics-policy table
// lookup at the FE.
type StatsPolicy uint8

// Statistics policy bits.
const (
	StatsBytesIn StatsPolicy = 1 << iota
	StatsBytesOut
	StatsPackets
	StatsFlowLog
)

// PreAction is the result of a full slow-path rule table walk for one
// direction of a flow.
type PreAction struct {
	// ACL is the access decision before considering session state.
	ACL Verdict
	// NextHop is the underlay address of the server hosting the peer
	// (from vNIC-server mapping / VXLAN routing); 0 means deliver to
	// the local VM.
	NextHop packet.IPv4
	// PeerVNIC is the vNIC the flow's other end terminates at (from
	// the overlay route table).
	PeerVNIC uint32
	// EncapVNI is the VXLAN network identifier for re-encapsulation.
	EncapVNI uint32
	// QoSClass selects the rate-limiting class.
	QoSClass uint8
	// RateBps is the enforced rate for the class (0 = unlimited).
	RateBps uint64
	// NAT, NATIP, NATPort describe an address rewrite, if any.
	NAT     bool
	NATIP   packet.IPv4
	NATPort uint16
	// Mirror requests traffic mirroring (advanced feature).
	Mirror bool
	// FlowLog requests flow logging (advanced feature).
	FlowLog bool
	// Stats is the statistics policy for this direction.
	Stats StatsPolicy
}

// PreActions records both directions of a session, as the paper's
// cached flows do ("Cached flows (bidirectional)", Fig 1).
type PreActions struct {
	TX PreAction
	RX PreAction
}

// ForDir returns the pre-action for direction d.
func (pa *PreActions) ForDir(d packet.Direction) PreAction {
	if d == packet.DirTX {
		return pa.TX
	}
	return pa.RX
}

const preActionWire = 1 + 4 + 4 + 4 + 1 + 8 + 1 + 4 + 2 + 1 + 1 // per direction; flags packed

// Encode serializes both directions into the blob carried in the
// Nezha header on the RX path.
func (pa *PreActions) Encode() []byte {
	return pa.AppendWire(make([]byte, 0, 2*preActionWire))
}

// WireLen returns the encoded length; with AppendWire it satisfies
// packet.HeaderView, letting same-process FE→BE hops carry
// pre-actions as a zero-copy view instead of a blob.
func (pa *PreActions) WireLen() int { return 2 * preActionWire }

// AppendWire appends the encoding to dst and returns it; the bytes
// are exactly Encode()'s.
func (pa *PreActions) AppendWire(dst []byte) []byte {
	dst = encodeOne(dst, &pa.TX)
	dst = encodeOne(dst, &pa.RX)
	return dst
}

func encodeOne(b []byte, a *PreAction) []byte {
	b = append(b, byte(a.ACL))
	b = binary.BigEndian.AppendUint32(b, uint32(a.NextHop))
	b = binary.BigEndian.AppendUint32(b, a.PeerVNIC)
	b = binary.BigEndian.AppendUint32(b, a.EncapVNI)
	b = append(b, a.QoSClass)
	b = binary.BigEndian.AppendUint64(b, a.RateBps)
	flags := byte(0)
	if a.NAT {
		flags |= 1
	}
	if a.Mirror {
		flags |= 2
	}
	if a.FlowLog {
		flags |= 4
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint32(b, uint32(a.NATIP))
	b = binary.BigEndian.AppendUint16(b, a.NATPort)
	b = append(b, byte(a.Stats))
	b = append(b, 0) // reserved
	return b
}

// ErrBadPreActions reports a malformed pre-action blob.
var ErrBadPreActions = errors.New("tables: malformed pre-action blob")

// DecodePreActions parses a blob produced by Encode.
func DecodePreActions(b []byte) (PreActions, error) {
	var pa PreActions
	if len(b) != 2*preActionWire {
		return pa, ErrBadPreActions
	}
	decodeOne(b[:preActionWire], &pa.TX)
	decodeOne(b[preActionWire:], &pa.RX)
	return pa, nil
}

func decodeOne(b []byte, a *PreAction) {
	a.ACL = Verdict(b[0])
	a.NextHop = packet.IPv4(binary.BigEndian.Uint32(b[1:]))
	a.PeerVNIC = binary.BigEndian.Uint32(b[5:])
	a.EncapVNI = binary.BigEndian.Uint32(b[9:])
	a.QoSClass = b[13]
	a.RateBps = binary.BigEndian.Uint64(b[14:])
	flags := b[22]
	a.NAT = flags&1 != 0
	a.Mirror = flags&2 != 0
	a.FlowLog = flags&4 != 0
	a.NATIP = packet.IPv4(binary.BigEndian.Uint32(b[23:]))
	a.NATPort = binary.BigEndian.Uint16(b[27:])
	a.Stats = StatsPolicy(b[29])
}
