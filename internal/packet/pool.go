package packet

import "sync"

// Pool for Packet structs. The datapath allocates packets by the
// million; pooling them removes the dominant allocation from the hot
// path. Ownership rule (see DESIGN.md §10): a packet has exactly one
// owner at a time, and whoever terminally consumes it — drop,
// deliver, absorb, or lose on the wire — calls Release. Holding a
// *Packet after releasing it is a bug; build with -tags simdebug to
// turn double releases and use-after-release into panics.
//
// The simulation loop is single-threaded; the pool is a sync.Pool
// (rather than a plain slice) because `go test` runs parallel tests
// in one process and they share it. sync.Pool's per-P caches make the
// single-threaded fast path a few nanoseconds — measurably cheaper
// than the mutex free-list it replaced — while staying race-safe.

const (
	poolStateNew  uint8 = iota // from New/&Packet{}, never pooled
	poolStateLive              // handed out by Get (or recycled via Release)
	poolStateFree              // sitting on the free list
)

// Freshly allocated pool packets are pre-marked free so the simdebug
// get-side guard sees the same lifecycle as a recycled one.
var pktPool = sync.Pool{New: func() any { return &Packet{poolState: poolStateFree} }}

// Get returns a pooled packet initialized exactly like New. Callers
// that finish a pooled packet must hand it to Release (directly or by
// passing ownership down the datapath, whose drop/deliver paths
// release it).
func Get(id uint64, vpc, vnic uint32, ft FiveTuple, dir Direction, flags TCPFlags, payloadLen int) *Packet {
	p := getBlank()
	p.ID, p.VPC, p.VNIC, p.Tuple, p.Dir, p.Flags = id, vpc, vnic, ft, dir, flags
	p.PayloadLen = payloadLen
	p.SizeBytes = baseHeaderBytes + payloadLen
	return p
}

// GetStamped is Get plus an explicit birth-timestamp stamp. Pool
// recycling zeroes SentAt along with everything else, so every
// constructor site feeding the datapath must re-stamp the packet for
// the SLO latency ledger to read a real birth time at the terminal
// hop; this variant makes the stamp impossible to forget.
func GetStamped(sentAt int64, id uint64, vpc, vnic uint32, ft FiveTuple, dir Direction, flags TCPFlags, payloadLen int) *Packet {
	p := Get(id, vpc, vnic, ft, dir, flags, payloadLen)
	p.SentAt = sentAt
	return p
}

// getBlank pops a fully zeroed packet off the pool (or allocates one)
// and marks it live.
func getBlank() *Packet {
	p := pktPool.Get().(*Packet)
	poolCheckGet(p)
	*p = Packet{}
	poolMarkLive(p)
	return p
}

// Release returns p to the free list. p must not be touched afterward.
// Releasing a packet built by New (rather than Get) is allowed — it
// simply joins the pool. Correctness never depends on Release being
// called: an un-released packet is garbage-collected like any other
// value, so raw handlers outside the datapath may keep packets
// indefinitely.
func (p *Packet) Release() {
	poolCheckRelease(p)
	poolMarkFree(p)
	// A header still attached ends with its packet: its pooled view goes
	// home. And the pool is process-wide and outlives any one simulation,
	// so a parked packet must not keep its header — and through a pooled
	// view, the vSwitch and world that view belongs to — reachable.
	if h := p.Nezha; h != nil {
		p.Nezha = nil
		h.recycle()
	}
	pktPool.Put(p)
}

// CheckLive panics under -tags simdebug if p has been released; it
// compiles to a no-op otherwise. Datapath entry points call it so
// use-after-release surfaces at the point of misuse.
func (p *Packet) CheckLive() { poolCheckLive(p) }

// --- wire-buffer pool ------------------------------------------------

// Marshal's output buffers cycle through the same pool: the fabric
// marshals on send and frees the buffer right after decode on
// delivery. Buffers that escape to callers that never PutBuf are
// simply collected by the GC.

var bufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// getBuf returns a zero-length buffer with capacity >= n.
func getBuf(n int) []byte {
	bufPool.mu.Lock()
	var b []byte
	if ln := len(bufPool.free); ln > 0 {
		b = bufPool.free[ln-1]
		bufPool.free[ln-1] = nil
		bufPool.free = bufPool.free[:ln-1]
	}
	bufPool.mu.Unlock()
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// PutBuf recycles a buffer produced by Marshal. The caller must not
// use b afterward.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	bufPool.mu.Lock()
	bufPool.free = append(bufPool.free, b)
	bufPool.mu.Unlock()
}
