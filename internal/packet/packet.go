// Package packet defines the packet model shared by the whole system:
// the inner five-tuple and session keys (fixed-size and hashable, so
// they can be map keys without allocation), TCP flags, the overlay /
// underlay addressing, and the NSH-like Nezha header that carries
// state (TX), pre-actions (RX), and notify messages between the vNIC
// backend and frontends (§3.2 of the paper, RFC 8300 in spirit).
//
// A wire format is provided (Marshal/Unmarshal) so tests can prove
// everything a packet carries survives serialization; the simulator's
// hot path passes *Packet values directly and only charges the wire
// size to the links.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// Proto is an IP protocol number. Only TCP and UDP appear in the
// workloads; ICMP is used by health probes.
type Proto uint8

// Protocol numbers (IANA).
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// IPv4 is an IPv4 address in host byte order. The simulator uses
// plain uint32 addresses; String renders dotted quad for logs.
type IPv4 uint32

func (ip IPv4) String() string {
	var b [len("255.255.255.255")]byte
	return string(ip.AppendTo(b[:0]))
}

// AppendTo appends the dotted-quad form of ip to b.
func (ip IPv4) AppendTo(b []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(ip>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// MakeIP builds an IPv4 from four octets.
func MakeIP(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// TCPFlags is the subset of TCP flags the session FSM cares about.
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagACK
)

// Has reports whether all bits in f2 are set.
func (f TCPFlags) Has(f2 TCPFlags) bool { return f&f2 == f2 }

func (f TCPFlags) String() string {
	s := ""
	if f.Has(FlagSYN) {
		s += "S"
	}
	if f.Has(FlagACK) {
		s += "A"
	}
	if f.Has(FlagFIN) {
		s += "F"
	}
	if f.Has(FlagRST) {
		s += "R"
	}
	if s == "" {
		s = "-"
	}
	return s
}

// Direction is the packet direction relative to the vNIC under
// consideration: TX leaves the VM, RX arrives at the VM.
type Direction uint8

// Directions.
const (
	DirTX Direction = iota
	DirRX
)

func (d Direction) String() string {
	if d == DirTX {
		return "TX"
	}
	return "RX"
}

// FiveTuple identifies a unidirectional flow. It is a comparable
// value type: usable as a map key, allocation-free to copy and hash
// (the gopacket Endpoint/Flow idiom).
type FiveTuple struct {
	SrcIP   IPv4
	DstIP   IPv4
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Reverse returns the tuple of the opposite direction.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: ft.DstIP, DstIP: ft.SrcIP,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

// Normalize returns a canonical ordering of the tuple such that both
// directions of a session normalize to the same value, plus whether
// the receiver swapped the endpoints. Sessions are recorded once with
// bidirectional flows in a single entry (§2.1), so the session table
// keys on the normalized form.
func (ft FiveTuple) Normalize() (FiveTuple, bool) {
	if ft.SrcIP > ft.DstIP || (ft.SrcIP == ft.DstIP && ft.SrcPort > ft.DstPort) {
		return ft.Reverse(), true
	}
	return ft, false
}

// Hash returns a 64-bit hash of the tuple (FNV-1a over the packed
// bytes). Nezha's FE selection is Hash(5-tuple) mod #FEs (§3.2.3).
// The hash is direction-sensitive; a SessionKey hashes the normalized
// tuple, which is equal for both directions of a session.
func (ft FiveTuple) Hash() uint64 {
	var b [13]byte
	binary.BigEndian.PutUint32(b[0:], uint32(ft.SrcIP))
	binary.BigEndian.PutUint32(b[4:], uint32(ft.DstIP))
	binary.BigEndian.PutUint16(b[8:], ft.SrcPort)
	binary.BigEndian.PutUint16(b[10:], ft.DstPort)
	b[12] = byte(ft.Proto)
	return fnv1a(b[:])
}

func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	// Finalize (murmur3 fmix64): FNV's low bits are weakly mixed for
	// short, structured inputs, and FE selection takes hash mod #FEs.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (ft FiveTuple) String() string {
	var b [len("255.255.255.255:65535->255.255.255.255:65535/proto(255)")]byte
	return string(ft.AppendTo(b[:0]))
}

// AppendTo appends ft's String form, src:port->dst:port/proto, to b.
func (ft FiveTuple) AppendTo(b []byte) []byte {
	b = append(ft.SrcIP.AppendTo(b), ':')
	b = append(strconv.AppendUint(b, uint64(ft.SrcPort), 10), "->"...)
	b = append(ft.DstIP.AppendTo(b), ':')
	b = append(strconv.AppendUint(b, uint64(ft.DstPort), 10), '/')
	return append(b, ft.Proto.String()...)
}

// SessionKey identifies a session table entry: the vNIC whose
// pipeline the packet traverses, the VPC ID, and the normalized
// five-tuple. Cached flows record the VPC ID to distinguish tenants
// reusing the same 5-tuples (§2.1); the vNIC scopes entries to their
// per-vNIC tables, so an FE instance co-located with an unrelated
// local vNIC of the same tenant never shares entries with it.
type SessionKey struct {
	VNIC  uint32
	VPC   uint32
	Tuple FiveTuple // normalized
}

// SessionKeyOf builds the key for a packet's tuple through vnic in
// vpc, returning also whether the tuple was swapped during
// normalization.
func SessionKeyOf(vnic, vpc uint32, ft FiveTuple) (SessionKey, bool) {
	n, swapped := ft.Normalize()
	return SessionKey{VNIC: vnic, VPC: vpc, Tuple: n}, swapped
}

// Key-hash mixing constants: the normalized tuple hash is XOR-folded
// with the VPC and vNIC scopes. Packet.SessionKeyHashed relies on this
// structure to reuse one cached tuple hash across vNIC rewrites.
const (
	hashVPCMix  = 0x9e3779b97f4a7c15
	hashVNICMix = 0xbf58476d1ce4e5b9
)

// Hash returns a 64-bit hash of the key.
func (k SessionKey) Hash() uint64 {
	return k.Tuple.Hash() ^ (uint64(k.VPC) * hashVPCMix) ^ (uint64(k.VNIC) * hashVNICMix)
}

// PathKind classifies which datapath handled a packet's session
// lookup at its most recent vswitch hop: the per-vNIC session-cache
// fast path, the rule-table slow path, or the Nezha-offloaded path
// (looked up at a sharing FE, delivered via the BE). The SLO latency
// ledger keys its histograms on this.
type PathKind uint8

// Datapath classes for PathKind.
const (
	PathFast PathKind = iota
	PathSlow
	PathOffloaded
	// NumPaths bounds PathKind for array-indexed telemetry.
	NumPaths
)

func (k PathKind) String() string {
	switch k {
	case PathFast:
		return "fast"
	case PathSlow:
		return "slow"
	case PathOffloaded:
		return "offloaded"
	default:
		return fmt.Sprintf("path(%d)", uint8(k))
	}
}

// NezhaType discriminates what the Nezha outer header carries.
type NezhaType uint8

// Nezha header kinds (§3.2.2).
const (
	// NezhaNone: no Nezha header present.
	NezhaNone NezhaType = iota
	// NezhaCarryState: TX packet BE→FE, carrying the local state so
	// the FE can compute the final action.
	NezhaCarryState
	// NezhaCarryPreActions: RX packet FE→BE, carrying the pre-actions
	// (and any info needed for state init, e.g. the original overlay
	// source IP for stateful decap).
	NezhaCarryPreActions
	// NezhaNotify: designated notify packet FE→BE instructing the BE
	// to initialize/update rule-table-involved state.
	NezhaNotify
)

func (t NezhaType) String() string {
	switch t {
	case NezhaNone:
		return "none"
	case NezhaCarryState:
		return "carry-state"
	case NezhaCarryPreActions:
		return "carry-preactions"
	case NezhaNotify:
		return "notify"
	default:
		return fmt.Sprintf("nezha(%d)", uint8(t))
	}
}

// HeaderView is a zero-copy alternative to a metadata blob: a typed
// value (session state, pre-actions) that knows its own wire encoding
// but is only serialized if the packet actually crosses a wire-mode
// fabric. Same-process hops hand the view through untouched, skipping
// the Marshal/Unmarshal round-trip entirely. Views are pooled by
// their owner (internal/vswitch); AppendWire must produce exactly the
// bytes the equivalent blob would contain, so wire mode and Clone can
// materialize a view transparently.
type HeaderView interface {
	// WireLen returns the encoded length in bytes.
	WireLen() int
	// AppendWire appends the encoding to dst and returns it.
	AppendWire(dst []byte) []byte
}

// PooledView is a HeaderView its owner recycles. The header holding it
// belongs to one packet (Clone materializes blobs), so when the header
// leaves that packet — StripNezha, or Release on any terminal path
// (drop, fabric loss, chaos drop, the wire-mode original) — the packet
// hands the view back through Recycle. The view must not be read
// afterwards.
type PooledView interface {
	HeaderView
	Recycle()
}

// recycle returns h's pooled view, if it holds one, to its owner.
func (h *NezhaHeader) recycle() {
	if v, ok := h.StateView.(PooledView); ok {
		v.Recycle()
	} else if v, ok := h.PreView.(PooledView); ok {
		v.Recycle()
	}
}

// NezhaHeader is the NSH-like metadata header Nezha adds between the
// underlay and the overlay packet. State and pre-actions travel as
// opaque blobs — or, on same-process hops, as zero-copy views; the
// blob takes precedence when both are set. internal/state and
// internal/vswitch own the encodings.
type NezhaHeader struct {
	Type NezhaType
	// VNIC identifies the offloaded vNIC the metadata belongs to.
	VNIC uint32
	// Dir is the packet direction relative to the offloaded vNIC.
	Dir Direction
	// StateBlob carries encoded session state (TX, or notify).
	StateBlob []byte
	// PreActionBlob carries encoded bidirectional pre-actions (RX).
	PreActionBlob []byte
	// StateView carries session state as a zero-copy view (used when
	// StateBlob is nil). Wire-mode sends materialize it via Marshal;
	// receivers on the same process consume the typed value directly.
	StateView HeaderView
	// PreView carries pre-actions as a zero-copy view (used when
	// PreActionBlob is nil).
	PreView HeaderView
	// OrigOuterSrc preserves the overlay source address the FE would
	// otherwise overwrite, needed for stateful decap state init at
	// the BE (§3.2.2 "rule table not involved").
	OrigOuterSrc IPv4
}

// stateWireLen and preWireLen return the encoded lengths of the two
// metadata sections, blob or view.
func (h *NezhaHeader) stateWireLen() int {
	if h.StateBlob == nil && h.StateView != nil {
		return h.StateView.WireLen()
	}
	return len(h.StateBlob)
}

func (h *NezhaHeader) preWireLen() int {
	if h.PreActionBlob == nil && h.PreView != nil {
		return h.PreView.WireLen()
	}
	return len(h.PreActionBlob)
}

// WireSize returns the header's encoded size in bytes.
func (h *NezhaHeader) WireSize() int {
	if h == nil || h.Type == NezhaNone {
		return 0
	}
	return 1 + 4 + 1 + 4 + 2 + h.stateWireLen() + 2 + h.preWireLen()
}

// Packet is one simulated packet. The struct carries both underlay
// (outer) and overlay (inner) addressing plus the optional Nezha
// header. SizeBytes is the wire size charged to links and to
// per-packet DMA cost; it is maintained by the encap helpers.
type Packet struct {
	// ID is a unique identifier assigned by the workload generator,
	// used for latency tracking and loss accounting.
	ID uint64

	// Underlay addressing: the physical servers' addresses. Zero
	// OuterDst means the packet has not been encapsulated yet.
	OuterSrc IPv4
	OuterDst IPv4

	// VPC is the tenant overlay network ID (VXLAN VNI).
	VPC uint32

	// VNIC is the destination/source vNIC this packet belongs to
	// within the VPC (the paper's per-vNIC rule table scoping).
	VNIC uint32

	// Tuple is the inner five-tuple.
	Tuple FiveTuple

	// Dir is the direction relative to the vNIC above.
	Dir Direction

	// Flags holds TCP flags when Tuple.Proto == ProtoTCP.
	Flags TCPFlags

	// Nezha is the optional load-sharing metadata header.
	Nezha *NezhaHeader

	// PayloadLen is the application payload length in bytes.
	PayloadLen int

	// SizeBytes is the total wire size (headers + payload).
	SizeBytes int

	// SentAt records the virtual time the packet entered the system
	// (nanoseconds); the latency experiments read it on delivery.
	SentAt int64

	// Hops counts link traversals, to verify the "only one extra hop"
	// property (§3.2.1).
	Hops int

	// poolState tracks the free-list lifecycle; only the simdebug
	// build writes it (see pool.go).
	poolState uint8

	// Path records which datapath class handled the packet's most
	// recent session lookup (fast/slow/offloaded). It is scratch state
	// for the SLO latency ledger — not marshaled, not folded into any
	// digest, zeroed on pool recycle — and is overwritten by each
	// vswitch hop, so the value read at a terminal point reflects the
	// terminal switch's own classification.
	Path PathKind

	// Hash memos. The datapath hashes a packet's tuple up to three
	// times per hop (session lookup, FE selection, learner ECMP), and
	// both ends of a forward share the same inner tuple — so the
	// direction-sensitive and normalized-tuple hashes are computed once
	// and served from here. Any write to Tuple after construction must
	// call InvalidateHashes; getBlank's full zeroing resets the memos
	// along with everything else. memoHash also holds the flight
	// tracer's verdict on the packet's ID (see SampleMemo).
	memoTupleHash uint64
	memoNormHash  uint64
	memoHash      uint8
}

const (
	memoTupleValid uint8 = 1 << iota
	memoNormValid
	memoSampleKnown
	memoSampled
)

// Header sizes used for SizeBytes accounting.
const (
	baseHeaderBytes  = 14 + 20 + 20    // ethernet + IPv4 + TCP
	underlayOverhead = 14 + 20 + 8 + 8 // outer eth + outer IP + UDP + VXLAN
)

// New creates a packet with the wire size computed from payloadLen.
// The datapath prefers Get, which recycles structs through the pool.
func New(id uint64, vpc, vnic uint32, ft FiveTuple, dir Direction, flags TCPFlags, payloadLen int) *Packet {
	p := &Packet{
		ID: id, VPC: vpc, VNIC: vnic, Tuple: ft, Dir: dir, Flags: flags,
		PayloadLen: payloadLen,
		SizeBytes:  baseHeaderBytes + payloadLen,
	}
	poolMarkLive(p)
	return p
}

// Encap sets the underlay addresses (VXLAN-style) and charges the
// underlay overhead once.
func (p *Packet) Encap(src, dst IPv4) {
	if p.OuterDst == 0 && p.OuterSrc == 0 {
		p.SizeBytes += underlayOverhead
	}
	p.OuterSrc, p.OuterDst = src, dst
}

// AttachNezha adds (or replaces) the Nezha header, adjusting the wire
// size.
func (p *Packet) AttachNezha(h *NezhaHeader) {
	p.SizeBytes -= p.Nezha.WireSize()
	p.Nezha = h
	p.SizeBytes += h.WireSize()
}

// StripNezha removes the Nezha header, adjusting the wire size, and
// returns its pooled view, if any, to the view's owner. The size is
// read first, through the view, which is still live then.
func (p *Packet) StripNezha() {
	h := p.Nezha
	if h == nil {
		return
	}
	p.SizeBytes -= h.WireSize()
	p.Nezha = nil
	h.recycle()
}

// SessionKey returns the packet's session key and whether its tuple
// was swapped by normalization.
func (p *Packet) SessionKey() (SessionKey, bool) {
	return SessionKeyOf(p.VNIC, p.VPC, p.Tuple)
}

// TupleHash returns Tuple.Hash() served from the per-packet memo.
func (p *Packet) TupleHash() uint64 {
	if p.memoHash&memoTupleValid == 0 {
		p.memoTupleHash = p.Tuple.Hash()
		p.memoHash |= memoTupleValid
	}
	return p.memoTupleHash
}

// SessionKeyHashed returns SessionKey() plus the key's hash, serving
// the normalized-tuple hash from the per-packet memo. The memo
// survives the peer-vNIC rewrite at forwarding — VNIC and VPC fold in
// with two multiplies — so the TX and RX ends of a forward share one
// tuple hash instead of hashing 13 bytes twice.
func (p *Packet) SessionKeyHashed() (SessionKey, uint64, bool) {
	k, swapped := SessionKeyOf(p.VNIC, p.VPC, p.Tuple)
	if p.memoHash&memoNormValid == 0 {
		if !swapped {
			// Unswapped tuple: the normalized tuple IS the tuple, so one
			// fnv pass fills both memos.
			if p.memoHash&memoTupleValid == 0 {
				p.memoTupleHash = p.Tuple.Hash()
				p.memoHash |= memoTupleValid
			}
			p.memoNormHash = p.memoTupleHash
		} else {
			p.memoNormHash = k.Tuple.Hash()
		}
		p.memoHash |= memoNormValid
	}
	h := p.memoNormHash ^ (uint64(k.VPC) * hashVPCMix) ^ (uint64(k.VNIC) * hashVNICMix)
	return k, h, swapped
}

// InvalidateHashes drops the hash memos. Every mutation of Tuple on a
// live packet (e.g. the NAT rewrite) must call it.
func (p *Packet) InvalidateHashes() { p.memoHash &^= memoTupleValid | memoNormValid }

// SampleMemo returns the sampling verdict SetSampleMemo stored, and
// whether one is stored. The verdict is a function of the packet's ID,
// which no rewrite changes.
func (p *Packet) SampleMemo() (sampled, ok bool) {
	return p.memoHash&memoSampled != 0, p.memoHash&memoSampleKnown != 0
}

// SetSampleMemo stores the packet's sampling verdict.
func (p *Packet) SetSampleMemo(sampled bool) {
	p.memoHash |= memoSampleKnown
	if sampled {
		p.memoHash |= memoSampled
	}
}

// Clone returns a pooled deep copy (blobs included). Notify packets
// are generated by cloning headers off a transit packet, which must
// not alias the original's blobs. Zero-copy views are materialized
// into blobs — the view's pooled backing belongs to the original's
// lifecycle, never the clone's. The clone's lifecycle is independent
// of p's.
func (p *Packet) Clone() *Packet {
	q := getBlank()
	st := q.poolState
	*q = *p
	q.poolState = st
	if p.Nezha != nil {
		h := *p.Nezha
		if h.StateBlob == nil && h.StateView != nil {
			h.StateBlob = h.StateView.AppendWire(nil)
		} else {
			h.StateBlob = append([]byte(nil), p.Nezha.StateBlob...)
		}
		if h.PreActionBlob == nil && h.PreView != nil {
			h.PreActionBlob = h.PreView.AppendWire(nil)
		} else {
			h.PreActionBlob = append([]byte(nil), p.Nezha.PreActionBlob...)
		}
		h.StateView, h.PreView = nil, nil
		q.Nezha = &h
	}
	return q
}

func (p *Packet) String() string {
	nz := ""
	if p.Nezha != nil {
		nz = " nezha=" + p.Nezha.Type.String()
	}
	return fmt.Sprintf("pkt{id=%d vpc=%d vnic=%d %s %s %s%s}", p.ID, p.VPC, p.VNIC, p.Dir, p.Tuple, p.Flags, nz)
}

// Wire format:
//
//	magic(2) ver(1) flagsPresent(1)
//	id(8) outerSrc(4) outerDst(4) vpc(4) vnic(4)
//	tuple: srcIP(4) dstIP(4) srcPort(2) dstPort(2) proto(1)
//	dir(1) tcpflags(1) payloadLen(4) sentAt(8) hops(2)
//	[nezha: type(1) vnic(4) dir(1) origOuterSrc(4)
//	        stateLen(2) state... preLen(2) pre...]
const (
	wireMagic   = 0x4e5a // "NZ"
	wireVersion = 1
)

var (
	// ErrTruncated reports a buffer too short for the declared fields.
	ErrTruncated = errors.New("packet: truncated")
	// ErrBadMagic reports a buffer that is not a Nezha sim packet.
	ErrBadMagic = errors.New("packet: bad magic")
	// ErrBadVersion reports an unsupported wire version.
	ErrBadVersion = errors.New("packet: unsupported version")
	// ErrBadHeader reports an invalid Nezha header encoding.
	ErrBadHeader = errors.New("packet: invalid nezha header")
)

// Marshal encodes the packet into a self-describing byte slice. The
// buffer comes from a scratch pool; callers that are done with it may
// recycle it with PutBuf (the fabric does, right after decode), and
// callers that keep it simply let the GC have it.
func (p *Packet) Marshal() []byte {
	hasNezha := byte(0)
	if p.Nezha != nil && p.Nezha.Type != NezhaNone {
		hasNezha = 1
	}
	n := 2 + 1 + 1 + 8 + 4 + 4 + 4 + 4 + 13 + 1 + 1 + 4 + 8 + 2
	if hasNezha == 1 {
		n += 1 + 4 + 1 + 4 + 2 + p.Nezha.stateWireLen() + 2 + p.Nezha.preWireLen()
	}
	b := getBuf(n)
	b = binary.BigEndian.AppendUint16(b, wireMagic)
	b = append(b, wireVersion, hasNezha)
	b = binary.BigEndian.AppendUint64(b, p.ID)
	b = binary.BigEndian.AppendUint32(b, uint32(p.OuterSrc))
	b = binary.BigEndian.AppendUint32(b, uint32(p.OuterDst))
	b = binary.BigEndian.AppendUint32(b, p.VPC)
	b = binary.BigEndian.AppendUint32(b, p.VNIC)
	b = binary.BigEndian.AppendUint32(b, uint32(p.Tuple.SrcIP))
	b = binary.BigEndian.AppendUint32(b, uint32(p.Tuple.DstIP))
	b = binary.BigEndian.AppendUint16(b, p.Tuple.SrcPort)
	b = binary.BigEndian.AppendUint16(b, p.Tuple.DstPort)
	b = append(b, byte(p.Tuple.Proto), byte(p.Dir), byte(p.Flags))
	b = binary.BigEndian.AppendUint32(b, uint32(p.PayloadLen))
	b = binary.BigEndian.AppendUint64(b, uint64(p.SentAt))
	b = binary.BigEndian.AppendUint16(b, uint16(p.Hops))
	if hasNezha == 1 {
		h := p.Nezha
		b = append(b, byte(h.Type))
		b = binary.BigEndian.AppendUint32(b, h.VNIC)
		b = append(b, byte(h.Dir))
		b = binary.BigEndian.AppendUint32(b, uint32(h.OrigOuterSrc))
		b = binary.BigEndian.AppendUint16(b, uint16(h.stateWireLen()))
		if h.StateBlob == nil && h.StateView != nil {
			b = h.StateView.AppendWire(b)
		} else {
			b = append(b, h.StateBlob...)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(h.preWireLen()))
		if h.PreActionBlob == nil && h.PreView != nil {
			b = h.PreView.AppendWire(b)
		} else {
			b = append(b, h.PreActionBlob...)
		}
	}
	return b
}

// Unmarshal decodes a packet previously produced by Marshal. The
// returned packet's SizeBytes is recomputed from its contents.
func Unmarshal(b []byte) (*Packet, error) {
	const fixed = 2 + 1 + 1 + 8 + 4 + 4 + 4 + 4 + 13 + 1 + 1 + 4 + 8 + 2
	if len(b) < fixed {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(b) != wireMagic {
		return nil, ErrBadMagic
	}
	if b[2] != wireVersion {
		return nil, ErrBadVersion
	}
	hasNezha := b[3]
	p := getBlank()
	off := 4
	p.ID = binary.BigEndian.Uint64(b[off:])
	off += 8
	p.OuterSrc = IPv4(binary.BigEndian.Uint32(b[off:]))
	off += 4
	p.OuterDst = IPv4(binary.BigEndian.Uint32(b[off:]))
	off += 4
	p.VPC = binary.BigEndian.Uint32(b[off:])
	off += 4
	p.VNIC = binary.BigEndian.Uint32(b[off:])
	off += 4
	p.Tuple.SrcIP = IPv4(binary.BigEndian.Uint32(b[off:]))
	off += 4
	p.Tuple.DstIP = IPv4(binary.BigEndian.Uint32(b[off:]))
	off += 4
	p.Tuple.SrcPort = binary.BigEndian.Uint16(b[off:])
	off += 2
	p.Tuple.DstPort = binary.BigEndian.Uint16(b[off:])
	off += 2
	p.Tuple.Proto = Proto(b[off])
	off++
	p.Dir = Direction(b[off])
	off++
	p.Flags = TCPFlags(b[off])
	off++
	p.PayloadLen = int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	p.SentAt = int64(binary.BigEndian.Uint64(b[off:]))
	off += 8
	p.Hops = int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if hasNezha == 1 {
		if len(b) < off+1+4+1+4+2 {
			return nil, ErrTruncated
		}
		h := &NezhaHeader{}
		h.Type = NezhaType(b[off])
		off++
		if h.Type == NezhaNone {
			// A header flagged present must carry a real type, or the
			// encoding would not round-trip.
			p.Release()
			return nil, ErrBadHeader
		}
		h.VNIC = binary.BigEndian.Uint32(b[off:])
		off += 4
		h.Dir = Direction(b[off])
		off++
		h.OrigOuterSrc = IPv4(binary.BigEndian.Uint32(b[off:]))
		off += 4
		sl := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if len(b) < off+sl+2 {
			p.Release()
			return nil, ErrTruncated
		}
		if sl > 0 {
			h.StateBlob = append([]byte(nil), b[off:off+sl]...)
		}
		off += sl
		pl := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if len(b) < off+pl {
			p.Release()
			return nil, ErrTruncated
		}
		if pl > 0 {
			h.PreActionBlob = append([]byte(nil), b[off:off+pl]...)
		}
		p.Nezha = h
	}
	p.SizeBytes = baseHeaderBytes + p.PayloadLen
	if p.OuterSrc != 0 || p.OuterDst != 0 {
		p.SizeBytes += underlayOverhead
	}
	p.SizeBytes += p.Nezha.WireSize()
	return p, nil
}
