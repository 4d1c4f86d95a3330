// Package baseline implements the comparators the paper positions
// Nezha against (Table 2, §8): a Sirius-style dedicated DPU pool with
// primary-backup in-line state replication and bucket-based load
// balancing, and the Table 5 deployment cost model (Sailfish vs
// Nezha). The monolithic "local-only" baseline
// needs no code — it is a Nezha cluster with offloading disabled.
package baseline

import (
	"nezha/internal/nic"
	"nezha/internal/sim"
)

// SiriusConfig sizes a Sirius-style pool.
type SiriusConfig struct {
	// Cards is the number of DPUs in the shared pool.
	Cards int
	// CoreHz and Cores size each DPU (Pensando-class: beefier than a
	// server SmartNIC).
	Cores  int
	CoreHz uint64
}

// The pool's costs mirror the scaled simulation units used by the
// benches: per-connection cost identical to an FE's slow path so the
// comparison isolates the replication and state-placement design.
// Cards queue at most nic.DefaultMaxQueueDelay.
const (
	// siriusConnCycles is the slow-path cost of a new connection on a
	// card.
	siriusConnCycles = 135_000
	// siriusReplicateCycles is the cost of absorbing an in-line
	// replica of a state change on the secondary (ping-pong: the
	// secondary re-runs state install in-line).
	siriusReplicateCycles = 135_000
	// siriusBuckets is the fixed hash-bucket count flows map onto.
	siriusBuckets = 64
)

// DefaultSiriusConfig sizes a pool of cards with the nic package's
// calibrated cores.
func DefaultSiriusConfig(cards int) SiriusConfig {
	return SiriusConfig{Cards: cards, Cores: nic.DefaultCores, CoreHz: nic.DefaultCoreHz}
}

// SiriusPool models the Sirius datapath at connection granularity:
// each new connection is processed on its bucket's primary card and
// replicated in-line to the paired secondary before it is considered
// established — which is why "the NF capacity halves" for CPS (§1).
type SiriusPool struct {
	loop  *sim.Loop
	cards []*nic.CPU
	// bucket -> card index; the pair (i, i+1 mod N) is primary and
	// secondary.
	buckets []int
	// flowsPerBucket tracks live flows for the state-transfer
	// accounting on bucket moves.
	flowsPerBucket []int

	// Counters.
	Established    uint64
	Dropped        uint64
	Replications   uint64
	StateTransfers uint64
}

// NewSiriusPool builds the pool.
func NewSiriusPool(loop *sim.Loop, cfg SiriusConfig) *SiriusPool {
	if cfg.Cards < 2 {
		cfg.Cards = 2
	}
	p := &SiriusPool{
		loop:           loop,
		buckets:        make([]int, siriusBuckets),
		flowsPerBucket: make([]int, siriusBuckets),
	}
	for i := 0; i < cfg.Cards; i++ {
		p.cards = append(p.cards, nic.NewCPU(loop, cfg.Cores, cfg.CoreHz, nic.DefaultMaxQueueDelay))
	}
	for b := range p.buckets {
		p.buckets[b] = b % cfg.Cards
	}
	return p
}

// Cards exposes the card CPUs (for utilization meters).
func (p *SiriusPool) Cards() []*nic.CPU { return p.cards }

// NewConnection processes one connection setup: slow path on the
// primary, then in-line replication on the secondary. The replica
// rides the datapath between the paired cards with priority, so it is
// never dropped at admission — its cost is what halves the pool's CPS
// capacity. done fires when both halves complete.
func (p *SiriusPool) NewConnection(flowHash uint64, done func(ok bool)) {
	b := int(flowHash % uint64(len(p.buckets)))
	primary := p.cards[p.buckets[b]]
	secondary := p.cards[(p.buckets[b]+1)%len(p.cards)]
	primary.Submit(siriusConnCycles, func(ok bool, _ sim.Time) {
		if !ok {
			p.Dropped++
			if done != nil {
				done(false)
			}
			return
		}
		// Ping-pong the state change to the secondary in-line.
		p.Replications++
		secondary.SubmitPriority(siriusReplicateCycles, func(_ sim.Time) {
			p.Established++
			p.flowsPerBucket[b]++
			if done != nil {
				done(true)
			}
		})
	})
}

// FlowDone retires a flow from its bucket.
func (p *SiriusPool) FlowDone(flowHash uint64) {
	b := int(flowHash % uint64(len(p.buckets)))
	if p.flowsPerBucket[b] > 0 {
		p.flowsPerBucket[b]--
	}
}

// MoveBucket reassigns a bucket to a new card (load balancing). New
// flows land on the new card immediately; flows still live on the old
// card are the long-lived ones whose state must eventually transfer
// (§8) — counted here.
func (p *SiriusPool) MoveBucket(bucket, newCard int) {
	if bucket < 0 || bucket >= len(p.buckets) || newCard < 0 || newCard >= len(p.cards) {
		return
	}
	if p.buckets[bucket] == newCard {
		return
	}
	p.StateTransfers += uint64(p.flowsPerBucket[bucket])
	p.buckets[bucket] = newCard
}

// NezhaPoolView models the same pool of cards operated Nezha-style:
// stateless FEs with the single state copy elsewhere, so a connection
// costs one card one slow path and nothing else — the ablation
// partner for the replication halving.
type NezhaPoolView struct {
	loop  *sim.Loop
	cards []*nic.CPU

	Established uint64
	Dropped     uint64
}

// NewNezhaPoolView builds the comparison pool with identical cards.
func NewNezhaPoolView(loop *sim.Loop, cfg SiriusConfig) *NezhaPoolView {
	v := &NezhaPoolView{loop: loop}
	for i := 0; i < cfg.Cards; i++ {
		v.cards = append(v.cards, nic.NewCPU(loop, cfg.Cores, cfg.CoreHz, nic.DefaultMaxQueueDelay))
	}
	return v
}

// NewConnection processes one connection setup on the hashed card.
func (v *NezhaPoolView) NewConnection(flowHash uint64, done func(ok bool)) {
	card := v.cards[flowHash%uint64(len(v.cards))]
	card.Submit(siriusConnCycles, func(ok bool, _ sim.Time) {
		if ok {
			v.Established++
		} else {
			v.Dropped++
		}
		if done != nil {
			done(ok)
		}
	})
}
