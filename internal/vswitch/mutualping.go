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
	interval sim.Time
	misses   int
	onDown   func(fe packet.IPv4)
	ticker   *sim.Ticker
	pending  map[packet.IPv4]bool
	missed   map[packet.IPv4]int
	reported map[packet.IPv4]bool
	targets  []packet.IPv4 // mutualRound's scratch
}

// StartMutualPing begins periodic pinging of every FE configured on
// this BE's offloaded vNICs. After `misses` consecutive unanswered
// rounds, onDown fires once per FE address — the controller then
// removes that FE from this BE's pools only (a link problem, not an
// FE crash).
func (vs *VSwitch) StartMutualPing(interval sim.Time, misses int, onDown func(fe packet.IPv4)) {
	vs.StopMutualPing()
	m := &mutualPing{
		interval: interval,
		misses:   misses,
		onDown:   onDown,
		pending:  make(map[packet.IPv4]bool),
		missed:   make(map[packet.IPv4]int),
		reported: make(map[packet.IPv4]bool),
	}
	vs.mutual = m
	m.ticker = vs.loop.Every(interval, func() { vs.mutualRound() })
}

// StopMutualPing halts the BE-side connectivity checks.
func (vs *VSwitch) StopMutualPing() {
	if vs.mutual != nil {
		vs.mutual.ticker.Stop()
		vs.mutual = nil
	}
}

func (vs *VSwitch) mutualRound() {
	if vs.crashed || vs.mutual == nil {
		return
	}
	m := vs.mutual
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
	for _, fe := range targets {
		if m.pending[fe] {
			m.missed[fe]++
			if m.missed[fe] >= m.misses && !m.reported[fe] {
				m.reported[fe] = true
				if m.onDown != nil {
					m.onDown(fe)
				}
			}
		}
	}
	// New round.
	clear(m.pending)
	for _, fe := range targets {
		m.pending[fe] = true
		probe := packet.Get(0, 0, 0, packet.FiveTuple{
			SrcIP: packet.IPv4(vs.cfg.Addr), DstIP: packet.IPv4(fe),
			SrcPort: mutualPort, DstPort: ProbePort, Proto: packet.ProtoUDP,
		}, packet.DirTX, 0, 0)
		probe.Encap(vs.cfg.Addr, fe)
		vs.fab.Send(vs.cfg.Addr, fe, probe)
	}
}

// handleMutualPong clears the pending mark for the answering FE. The
// pong is absorbed (and released) here.
func (vs *VSwitch) handleMutualPong(p *packet.Packet) {
	vs.Stats.Absorbed++
	fe := p.OuterSrc
	p.Release()
	m := vs.mutual
	if m == nil {
		return
	}
	delete(m.pending, fe)
	m.missed[fe] = 0
	if m.reported[fe] {
		// Connectivity restored; allow future reports.
		delete(m.reported, fe)
	}
}
