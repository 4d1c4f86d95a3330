//go:build simdebug

package packet

// Debug-build pool guards (-tags simdebug): pool lifecycle violations
// panic at the point of misuse instead of corrupting a recycled
// packet three owners later.

import "sync/atomic"

// livePooled counts packets Get or New handed out and Release has not
// taken back. Tests in one process share the pool, so it is atomic.
var livePooled atomic.Int64

// LivePooled reports how many packets are live: handed out by Get or
// New and not yet released. A drained world's count, less what its
// fabric still carries, is the packets some consumer failed to release.
func LivePooled() int64 { return livePooled.Load() }

func poolMarkLive(p *Packet) {
	p.poolState = poolStateLive
	livePooled.Add(1)
}

func poolMarkFree(p *Packet) {
	if p.poolState == poolStateLive {
		livePooled.Add(-1)
	}
	p.poolState = poolStateFree
}

func poolCheckGet(p *Packet) {
	if p.poolState != poolStateFree {
		panic("packet: pool corruption: free-list entry not marked free")
	}
}

func poolCheckRelease(p *Packet) {
	if p.poolState == poolStateFree {
		panic("packet: double release")
	}
}

func poolCheckLive(p *Packet) {
	if p.poolState == poolStateFree {
		panic("packet: use after release")
	}
}
