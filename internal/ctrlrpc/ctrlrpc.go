// Package ctrlrpc is the transactional control-plane transport: every
// controller mutation (InstallFE, SetFEs, OffloadStart, gateway
// updates, ...) travels as a fabric packet to the target vSwitch's
// management agent and must be acknowledged back. Because requests and
// acks ride the same fabric as data traffic, chaos loss, jitter, and
// partitions apply to config pushes exactly as the paper's §4.2
// workflow must survive them.
//
// Delivery semantics are at-least-once with idempotent receivers: a
// request that is not acked within its per-attempt timeout is
// retransmitted with exponential backoff and jitter, up to a bounded
// attempt budget, after which the call fails at the caller. Agents
// deduplicate by request ID, so a retry whose predecessor was applied
// (but whose ack was lost) re-acks without re-applying. Every config
// payload carries the vNIC's monotonically increasing epoch; the
// vSwitch and gateway reject pushes older than their installed config,
// so stale or reordered retries can never regress newer state.
//
// Modeling note: like the fabric's wire mode, only packet identity and
// timing ride the wire. Request bodies (rule-table pointers are not
// serializable) and verdicts are kept in per-transport side registries
// keyed by request ID; the fabric decides whether and when a message
// arrives, the registry says what it meant.
package ctrlrpc

import (
	"errors"
	"fmt"

	"nezha/internal/fabric"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

// Op enumerates control-plane request types.
type Op int

// Control operations.
const (
	OpInstallFE Op = iota
	OpRemoveFE
	OpSetFEs
	OpOffloadStart
	OpOffloadAbort
	OpOffloadFinalize
	OpFallbackStart
	OpFallbackFinalize
	OpGatewaySet
	// OpQueryVNIC asks a vSwitch agent for its installed state for one
	// vNIC (home-side FE-set epoch + offload flag, hosted FE-instance
	// epoch). OpQueryGateway asks the gateway agent for a vNIC's entry
	// (epoch + address list). Both are read-only: recovery reconciles
	// the journal against them without mutating anything.
	OpQueryVNIC
	OpQueryGateway
)

func (o Op) String() string {
	switch o {
	case OpInstallFE:
		return "install-fe"
	case OpRemoveFE:
		return "remove-fe"
	case OpSetFEs:
		return "set-fes"
	case OpOffloadStart:
		return "offload-start"
	case OpOffloadAbort:
		return "offload-abort"
	case OpOffloadFinalize:
		return "offload-finalize"
	case OpFallbackStart:
		return "fallback-start"
	case OpFallbackFinalize:
		return "fallback-finalize"
	case OpGatewaySet:
		return "gateway-set"
	case OpQueryVNIC:
		return "query-vnic"
	case OpQueryGateway:
		return "query-gateway"
	default:
		return "unknown"
	}
}

// Request is one control-plane mutation. Which fields matter depends
// on Op; Epoch versions every config-bearing operation.
type Request struct {
	ID    uint64
	Op    Op
	VNIC  uint32
	Epoch uint64
	// FEs is the FE address list (OpSetFEs, OpOffloadStart,
	// OpGatewaySet).
	FEs []packet.IPv4
	// Rules carries rule tables (OpInstallFE, OpFallbackStart).
	Rules *tables.RuleSet
	// BE is the backend location an FE instance forwards to
	// (OpInstallFE).
	BE packet.IPv4
	// Decap marks stateful decapsulation for the FE instance.
	Decap bool
	// ApplyDelay models the local config-programming time at the
	// receiver (rule-table writes are the §4.2 lognormal push delay);
	// the ack is sent only after the apply completes.
	ApplyDelay sim.Time
}

// wireBytes approximates the request's on-wire payload size, so config
// pushes charge realistic fabric bandwidth (rule tables dominate).
func (r *Request) wireBytes() int {
	n := 64 + 4*len(r.FEs)
	if r.Rules != nil {
		n += r.Rules.SizeBytes()
	}
	return n
}

// ErrTimeout reports that a call exhausted its attempt budget without
// an ack.
var ErrTimeout = errors.New("ctrlrpc: request timed out")

// Reply carries a query response. Like request bodies, replies ride
// the per-transport side registry keyed by request ID; the ack packet
// decides whether and when the reply arrives.
type Reply struct {
	// Epoch is the receiver's installed config epoch for the vNIC: the
	// gateway entry's epoch (OpQueryGateway) or the home vSwitch's
	// FE-set epoch (OpQueryVNIC).
	Epoch uint64
	// Addrs is the gateway entry's address list (OpQueryGateway).
	Addrs []packet.IPv4
	// Resident / Offloaded describe the vNIC at its home vSwitch.
	Resident  bool
	Offloaded bool
	// HasFE / FEEpoch describe a hosted FE instance at the queried
	// vSwitch (OpQueryVNIC).
	HasFE   bool
	FEEpoch uint64
}

// The acked-request transport's retry policy.
const (
	// callTimeout is the per-attempt ack deadline: it covers the p99
	// lognormal rule push plus fabric RTT.
	callTimeout = 500 * sim.Millisecond
	// maxAttempts bounds retransmissions.
	maxAttempts = 4
	// backoff is the base retransmit spacing, doubled per attempt and
	// capped at maxBackoff. Each wait is jittered uniformly in
	// [0.5, 1.5)x to avoid retry synchronization.
	backoff    = 200 * sim.Millisecond
	maxBackoff = sim.Second
)

// Stats counts transport activity.
type Stats struct {
	Sent    uint64 // request packets sent (including retransmits)
	Retries uint64 // retransmitted attempts
	Acked   uint64 // calls completed OK
	Nacked  uint64 // calls completed with a receiver error
	Expired uint64 // calls that exhausted the attempt budget
	DupAcks uint64 // acks for already-completed calls
	// Abandoned counts in-flight calls forgotten by a controller crash;
	// DownDrops counts acks discarded while the transport was down.
	Abandoned uint64
	DownDrops uint64
}

type call struct {
	req   *Request
	to    packet.IPv4
	done  func(error)
	doneQ func(*Reply, error)
}

// Transport is the controller-side RPC client. It owns a fabric
// address; acks are packets delivered back to it.
type Transport struct {
	loop *sim.Loop
	fab  *fabric.Fabric
	rng  *sim.Rand
	addr packet.IPv4

	nextID   uint64
	pending  map[uint64]*call
	verdicts map[uint64]error
	replies  map[uint64]*Reply
	// down models the owning process being dead: arriving acks are
	// discarded, exactly as packets to a crashed host would be.
	down bool

	// ob, when set by EnableObs, records retry/expiry events.
	ob *obs.Obs

	Stats Stats
}

// NewTransport builds a transport at fabric address addr and registers
// it on the fabric. rng must be a dedicated deterministic stream
// (backoff jitter draws from it).
func NewTransport(loop *sim.Loop, fab *fabric.Fabric, rng *sim.Rand, addr packet.IPv4) *Transport {
	t := &Transport{
		loop:     loop,
		fab:      fab,
		rng:      rng,
		addr:     addr,
		pending:  make(map[uint64]*call),
		verdicts: make(map[uint64]error),
		replies:  make(map[uint64]*Reply),
	}
	fab.Register(addr, -1, t.handleAck)
	return t
}

// Addr returns the transport's fabric address.
func (t *Transport) Addr() packet.IPv4 { return t.addr }

// Call sends req to the agent at `to` and invokes done exactly once:
// with nil when the agent acked success, with the agent's error on a
// nack, or with ErrTimeout after maxAttempts unacked attempts. done
// may be nil for best-effort calls.
func (t *Transport) Call(to packet.IPv4, req *Request, done func(error)) {
	t.nextID++
	req.ID = t.nextID
	if done == nil {
		done = func(error) {}
	}
	cl := &call{req: req, to: to, done: done}
	t.pending[req.ID] = cl
	t.attempt(cl, 1)
}

// Query sends a read-only request and invokes done exactly once with
// the agent's Reply (nil on error). Same delivery semantics as Call.
func (t *Transport) Query(to packet.IPv4, req *Request, done func(*Reply, error)) {
	t.nextID++
	req.ID = t.nextID
	if done == nil {
		done = func(*Reply, error) {}
	}
	cl := &call{req: req, to: to, doneQ: done}
	t.pending[req.ID] = cl
	t.attempt(cl, 1)
}

// SetDown flips the transport's liveness. Going down abandons every
// in-flight call — their done callbacks never fire, exactly as a
// process crash forgets its continuations — and discards acks until
// the transport comes back up.
func (t *Transport) SetDown(down bool) {
	t.down = down
	if down {
		t.Stats.Abandoned += uint64(len(t.pending))
		t.pending = make(map[uint64]*call)
		t.verdicts = make(map[uint64]error)
		t.replies = make(map[uint64]*Reply)
	}
}

// Down reports whether the transport is down.
func (t *Transport) Down() bool { return t.down }

func (t *Transport) attempt(cl *call, n int) {
	if t.pending[cl.req.ID] != cl {
		return // completed while a retry was queued
	}
	t.Stats.Sent++
	if n > 1 {
		t.Stats.Retries++
		t.ob.Event(t.loop.Now(), "rpc-retry", cl.to, cl.req.VNIC, "op=%v id=%d attempt=%d", cl.req.Op, cl.req.ID, n)
	}
	p := packet.Get(cl.req.ID, 0, 0, packet.FiveTuple{
		SrcIP: t.addr, DstIP: cl.to,
		SrcPort: ctrlClientPort, DstPort: vswitch.CtrlPort,
		Proto: packet.ProtoUDP,
	}, packet.DirTX, 0, cl.req.wireBytes())
	p.SentAt = int64(t.loop.Now())
	p.Encap(t.addr, cl.to)
	t.fab.Send(t.addr, cl.to, p)
	t.loop.Schedule(callTimeout, func() {
		if t.pending[cl.req.ID] != cl {
			return
		}
		if n >= maxAttempts {
			delete(t.pending, cl.req.ID)
			delete(t.verdicts, cl.req.ID)
			delete(t.replies, cl.req.ID)
			t.Stats.Expired++
			t.ob.Event(t.loop.Now(), "rpc-timeout", cl.to, cl.req.VNIC, "op=%v id=%d attempts=%d", cl.req.Op, cl.req.ID, n)
			err := fmt.Errorf("%w: %v to %v after %d attempts", ErrTimeout, cl.req.Op, cl.to, n)
			if cl.doneQ != nil {
				cl.doneQ(nil, err)
			} else {
				cl.done(err)
			}
			return
		}
		back := backoff << uint(n-1)
		if back > maxBackoff {
			back = maxBackoff
		}
		back = sim.Time(float64(back) * (0.5 + t.rng.Float64()))
		t.loop.Schedule(back, func() { t.attempt(cl, n+1) })
	})
}

// ctrlClientPort is the transport's source port for requests.
const ctrlClientPort = 40002

// Body looks up the request body for an in-flight request ID (the
// agent side of the out-of-band payload registry). The reply-to
// address is the transport's own.
func (t *Transport) Body(id uint64) (*Request, packet.IPv4, bool) {
	cl, ok := t.pending[id]
	if !ok {
		return nil, 0, false
	}
	return cl.req, t.addr, true
}

// Verdict records the agent's apply result for a request, consumed
// when the ack packet is delivered. Re-acks of an applied duplicate
// overwrite with the same value.
func (t *Transport) Verdict(id uint64, err error) {
	if _, ok := t.pending[id]; ok {
		t.verdicts[id] = err
	}
}

// SetReply records a query's response alongside its verdict.
func (t *Transport) SetReply(id uint64, rep *Reply) {
	if _, ok := t.pending[id]; ok {
		t.replies[id] = rep
	}
}

// handleAck completes the pending call an arriving ack packet names.
// The transport is the ack's terminal consumer: it releases the packet
// once it has read the request ID.
func (t *Transport) handleAck(p *packet.Packet) {
	id := p.ID
	p.Release()
	if t.down {
		t.Stats.DownDrops++
		return
	}
	cl, ok := t.pending[id]
	if !ok {
		t.Stats.DupAcks++
		return
	}
	res := t.verdicts[id]
	rep := t.replies[id]
	delete(t.pending, id)
	delete(t.verdicts, id)
	delete(t.replies, id)
	if res == nil {
		t.Stats.Acked++
	} else {
		t.Stats.Nacked++
	}
	if cl.doneQ != nil {
		cl.doneQ(rep, res)
	} else {
		cl.done(res)
	}
}
