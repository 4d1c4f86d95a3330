package vswitch

import (
	"slices"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// Appendix C.1: the centralized monitor checks vSwitch health but not
// BE–FE link connectivity, so BEs additionally ping their own FEs at
// a (lower) frequency and report unreachable ones. Pings go to the
// same flow-direct probe port; the pong's reversed tuple (source port
// == ProbePort) is intercepted at the BE.

// mutualPort is the BE-side source port for mutual pings; pongs come
// back with it as the destination port.
const mutualPort = 40001

type mutualPing struct {
	vs     *VSwitch
	on     bool
	misses int
	onDown func(fe packet.IPv4)
	ticker sim.Ticker
	// peers is each FE's round state, made by the first round that has
	// a target.
	peers   map[packet.IPv4]peerWatch
	targets []packet.IPv4 // round's scratch
}

// peerWatch is one FE's state across rounds.
type peerWatch struct {
	pending  bool // pinged this round, no pong yet
	reported bool // onDown fired; cleared by the next pong
	missed   int  // consecutive unanswered rounds
}

// StartMutualPing begins periodic pinging of every FE configured on
// this BE's offloaded vNICs. After `misses` consecutive unanswered
// rounds, onDown fires once per FE address — the controller then
// removes that FE from this BE's pools only (a link problem, not an
// FE crash).
func (vs *VSwitch) StartMutualPing(interval sim.Time, misses int, onDown func(fe packet.IPv4)) {
	vs.StopMutualPing()
	vs.mutual = mutualPing{vs: vs, on: true, misses: misses, onDown: onDown, targets: vs.mutual.targets[:0]}
	vs.loop.EveryTask(&vs.mutual.ticker, interval, &vs.mutual)
}

// StopMutualPing halts the BE-side connectivity checks.
func (vs *VSwitch) StopMutualPing() {
	if vs.mutual.on {
		vs.mutual.ticker.Stop()
		vs.mutual.on = false
	}
}

// Run is one ping round, on the ticker.
func (m *mutualPing) Run() {
	vs := m.vs
	if vs.crashed {
		return
	}
	// Settle the previous round. Targets are visited in address order:
	// miss declarations and probe sends must not depend on map
	// iteration, or the determinism contract (and the chaos trace
	// digests) breaks. The round owns m.targets: onDown cannot re-enter
	// it.
	targets := m.targets[:0]
	vs.vnics.Each(func(vn *vnicState) {
		if vn.offloaded {
			targets = append(targets, vn.fes...)
		}
	})
	slices.Sort(targets)
	targets = slices.Compact(targets)
	m.targets = targets
	if m.peers == nil && len(targets) > 0 {
		m.peers = make(map[packet.IPv4]peerWatch)
	}
	for _, fe := range targets {
		if w := m.peers[fe]; w.pending {
			w.missed++
			fire := w.missed >= m.misses && !w.reported
			w.reported = w.reported || fire
			m.peers[fe] = w
			if fire && m.onDown != nil {
				m.onDown(fe)
			}
		}
	}
	// New round.
	for fe, w := range m.peers {
		if w.pending {
			w.pending = false
			m.peers[fe] = w
		}
	}
	for _, fe := range targets {
		w := m.peers[fe]
		w.pending = true
		m.peers[fe] = w
		probe := packet.Get(0, 0, 0, packet.FiveTuple{
			SrcIP: packet.IPv4(vs.cfg.Addr), DstIP: packet.IPv4(fe),
			SrcPort: mutualPort, DstPort: ProbePort, Proto: packet.ProtoUDP,
		}, packet.DirTX, 0, 0)
		probe.Encap(vs.cfg.Addr, fe)
		vs.fab.Send(vs.cfg.Addr, fe, probe)
	}
}

// handleMutualPong clears the pending mark for the answering FE and
// its miss count, and re-allows reports for it. The pong is absorbed
// (and released) here.
func (vs *VSwitch) handleMutualPong(p *packet.Packet) {
	vs.Stats.Absorbed++
	fe := p.OuterSrc
	p.Release()
	m := &vs.mutual
	if !m.on || m.peers == nil {
		return
	}
	m.peers[fe] = peerWatch{}
}
