//go:build simdebug

package fabric

import (
	"testing"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// Ownership on loss (DESIGN.md §10): a packet Send loses is released to
// the pool exactly once, at every loss site; a delivered one is the
// handler's. The simdebug pool guards make both observable: releasing
// an already-released packet panics, so a double release inside the
// fabric fails the send itself, and the test's own second Release
// panics precisely when the fabric released once.

func released(p *packet.Packet) (yes bool) {
	defer func() { yes = recover() != nil }()
	p.Release()
	return false
}

// shortView claims more wire bytes than it writes, so the frame Marshal
// produces fails to decode.
type shortView struct{}

func (shortView) WireLen() int                 { return 8 }
func (shortView) AppendWire(dst []byte) []byte { return append(dst, 1) }

func TestSendReleasesLostPacketsOnce(t *testing.T) {
	src, dst, gone := ip(1, 0, 0, 1), ip(1, 0, 0, 2), ip(1, 0, 0, 9)
	cases := []struct {
		name  string
		to    packet.IPv4
		setup func(*sim.Loop, *Fabric, *packet.Packet)
		lost  uint64 // Lost delta; chaos drops count in ChaosLost instead
	}{
		{"unknown destination", gone, nil, 1},
		{"partitioned at send", dst, func(_ *sim.Loop, f *Fabric, _ *packet.Packet) { f.Partition(src, dst) }, 1},
		{"fault-injector drop", dst, func(_ *sim.Loop, f *Fabric, _ *packet.Packet) {
			f.SetFaultInjector(func(_, _ packet.IPv4, _ *packet.Packet) FaultVerdict { return FaultVerdict{Drop: true} })
		}, 0},
		{"destination gone in flight", dst, func(l *sim.Loop, f *Fabric, _ *packet.Packet) {
			l.Schedule(1, func() { f.Unregister(dst) })
		}, 1},
		{"partition raised in flight", dst, func(l *sim.Loop, f *Fabric, _ *packet.Packet) {
			l.Schedule(1, func() { f.Partition(src, dst) })
		}, 1},
		{"wire-mode decode error", dst, func(_ *sim.Loop, f *Fabric, p *packet.Packet) {
			f.SetWireMode(true)
			p.AttachNezha(&packet.NezhaHeader{Type: packet.NezhaCarryState, StateView: shortView{}})
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loop := sim.NewLoop(1)
			f := New(loop)
			f.Register(src, 0, nil)
			f.Register(dst, 0, func(*packet.Packet) { t.Error("lost packet was delivered") })
			p := mkPkt(1)
			if tc.setup != nil {
				tc.setup(loop, f, p)
			}
			f.Send(src, tc.to, p)
			loop.RunAll()
			if f.Lost != tc.lost || f.ChaosLost != 1-tc.lost || f.Delivered != 0 || f.InFlight() != 0 {
				t.Fatalf("ledger: lost=%d chaos=%d delivered=%d in-flight=%d", f.Lost, f.ChaosLost, f.Delivered, f.InFlight())
			}
			if !released(p) {
				t.Fatal("lost packet was not released by the fabric")
			}
		})
	}
}

func TestSendDoesNotReleaseDeliveredPacket(t *testing.T) {
	loop := sim.NewLoop(1)
	f := New(loop)
	src, dst := ip(1, 0, 0, 1), ip(1, 0, 0, 2)
	var got *packet.Packet
	f.Register(src, 0, nil)
	f.Register(dst, 0, func(p *packet.Packet) { got = p })
	p := mkPkt(1)
	f.Send(src, dst, p)
	loop.RunAll()
	if got != p {
		t.Fatal("packet not delivered")
	}
	got.CheckLive() // panics under simdebug had the fabric released it
	if released(p) {
		t.Fatal("delivered packet had already been released")
	}
}
