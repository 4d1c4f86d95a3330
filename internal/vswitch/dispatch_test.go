package vswitch

import (
	"fmt"
	"reflect"
	"testing"

	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// These tests pin the underlay dispatch order — which class an arriving
// fabric packet falls into, and so which role's work it gets — and that
// the grouping of a fabric burst into runs never changes an outcome.

// Underlay packet classes, one per dispatch branch.
const (
	ulProbe uint8 = iota
	ulPong
	ulCtrl
	ulCarryState     // TX relay BE→FE, vNIC 2
	ulCarryPre       // RX relay FE→BE, vNIC 2
	ulNotify         // notify FE→BE, vNIC 2
	ulMalformed      // CarryState whose state blob does not decode
	ulPlainToServer  // plain RX for vNIC 2
	ulPlainToClient  // plain RX for vNIC 1
	ulPlainToUnknown // plain RX for a vNIC nobody knows
	numULClasses
)

// dispatchWorld is newWorld with vNIC 1 resident at A and vNIC 2
// offloaded past the final stage: B is its BE without rule tables,
// fes[0] hosts its one FE.
func dispatchWorld(t *testing.T) *world {
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	return w
}

// underlayPacket builds one packet of class cls as it would arrive at
// vs from the fabric. sport varies the flow.
func underlayPacket(vs *VSwitch, cls uint8, id uint64, sport uint16) *packet.Packet {
	toServer := tuple(sport)
	toClient := toServer.Reverse()
	flowDirect := func(port uint16) *packet.Packet {
		ft := packet.FiveTuple{SrcIP: vmIP1, DstIP: vmIP2, SrcPort: sport, DstPort: port, Proto: packet.ProtoUDP}
		p := packet.New(id, 0, 0, ft, packet.DirTX, 0, 0)
		// The probe's pong goes to an unregistered address and is lost.
		p.Encap(packet.MakeIP(192, 168, 9, 9), vs.Addr())
		return p
	}
	switch cls {
	case ulProbe:
		return flowDirect(ProbePort)
	case ulPong:
		return flowDirect(mutualPort)
	case ulCtrl:
		return flowDirect(CtrlPort)
	case ulCarryState:
		p := packet.New(id, vpcID, serverVNIC, toClient, packet.DirTX, packet.FlagACK, 100)
		vs.attachStateView(p, serverVNIC, packet.DirTX, state.State{})
		return p
	case ulCarryPre:
		p := packet.New(id, vpcID, serverVNIC, toServer, packet.DirRX, packet.FlagACK, 100)
		vs.attachPreView(p, serverVNIC, tables.PreActions{}, addrA)
		return p
	case ulNotify:
		p := packet.New(id, vpcID, serverVNIC, toClient, packet.DirTX, 0, 0)
		vs.attachStateView(p, serverVNIC, packet.DirTX, state.State{})
		p.Nezha.Type = packet.NezhaNotify
		return p
	case ulMalformed:
		p := packet.New(id, vpcID, serverVNIC, toClient, packet.DirTX, packet.FlagACK, 100)
		p.AttachNezha(&packet.NezhaHeader{Type: packet.NezhaCarryState, VNIC: serverVNIC, Dir: packet.DirTX, StateBlob: []byte{0, 0}})
		return p
	case ulPlainToServer:
		return packet.New(id, vpcID, serverVNIC, toServer, packet.DirRX, packet.FlagACK, 100)
	case ulPlainToClient:
		return packet.New(id, vpcID, clientVNIC, toClient, packet.DirRX, packet.FlagACK, 100)
	default:
		return packet.New(id, vpcID, 99, toServer, packet.DirRX, packet.FlagACK, 100)
	}
}

// counterDelta is after − before, field by field.
func counterDelta(before, after Counters) Counters {
	b, a := reflect.ValueOf(before), reflect.ValueOf(&after).Elem()
	for i := 0; i < a.NumField(); i++ {
		f := a.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(f.Index(j).Uint() - b.Field(i).Index(j).Uint())
			}
			continue
		}
		f.SetUint(f.Uint() - b.Field(i).Uint())
	}
	return after
}

// TestUnderlayDispatch sends one packet of every underlay class to the
// switch the row names and checks that switch's counter deltas, drop
// reason included, once the packet's work has run.
func TestUnderlayDispatch(t *testing.T) {
	const noDrop = DropReason(-1)
	rows := []struct {
		name  string
		at    string // "A", "B" or "FE"
		cls   uint8
		crash bool
		drop  DropReason
		want  Counters // FromNet and the drop bucket are implied
	}{
		{name: "probe", at: "A", cls: ulProbe, drop: noDrop, want: Counters{ProbesSeen: 1, Absorbed: 1}},
		{name: "pong", at: "A", cls: ulPong, drop: noDrop, want: Counters{Absorbed: 1}},
		{name: "ctrl", at: "A", cls: ulCtrl, drop: noDrop, want: Counters{Absorbed: 1}},
		{name: "carry-state to hosted FE", at: "FE", cls: ulCarryState, drop: noDrop, want: Counters{SlowPath: 1, Sent: 1}},
		{name: "carry-state to unhosted FE", at: "A", cls: ulCarryState, drop: DropNoRules},
		{name: "carry-preactions to known vNIC", at: "B", cls: ulCarryPre, drop: noDrop, want: Counters{Delivered: 1}},
		{name: "carry-preactions to unknown vNIC", at: "FE", cls: ulCarryPre, drop: DropNoRoute},
		{name: "notify to known vNIC", at: "B", cls: ulNotify, drop: noDrop, want: Counters{NotifyRecv: 1, Absorbed: 1}},
		{name: "notify to unknown vNIC", at: "FE", cls: ulNotify, drop: DropNoRoute},
		{name: "malformed nezha blob", at: "FE", cls: ulMalformed, drop: DropMalformed},
		{name: "plain RX to hosted FE", at: "FE", cls: ulPlainToServer, drop: noDrop, want: Counters{SlowPath: 1, Sent: 1}},
		{name: "plain RX to local vNIC", at: "A", cls: ulPlainToClient, drop: noDrop, want: Counters{SlowPath: 1, Delivered: 1}},
		{name: "plain RX to final-stage vNIC", at: "B", cls: ulPlainToServer, drop: DropNoRules},
		{name: "plain RX to unknown vNIC", at: "A", cls: ulPlainToUnknown, drop: DropNoRoute},
		{name: "crashed switch", at: "A", cls: ulPlainToClient, crash: true, drop: DropCrashed},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			w := dispatchWorld(t)
			vs := map[string]*VSwitch{"A": w.A, "B": w.B, "FE": w.fes[0]}[r.at]
			if r.crash {
				vs.Crash()
			}
			before := vs.Stats
			vs.HandleUnderlay(underlayPacket(vs, r.cls, 1, 1000))
			w.loop.RunAll()
			want := r.want
			want.FromNet = 1
			if r.drop != noDrop {
				want.Drops[r.drop] = 1
			}
			if got := counterDelta(before, vs.Stats); got != want {
				t.Fatalf("counter deltas at %s:\ngot  %+v\nwant %+v", r.at, got, want)
			}
		})
	}
}

// TestNezhaRunsBatch pins that a fabric burst of Nezha-typed packets
// moves as one run: three FE-TX, BE-RX or notify packets submit one CPU
// burst (a pooled burstRun afterwards) and fire fewer loop events than
// the same three delivered one by one.
func TestNezhaRunsBatch(t *testing.T) {
	for _, r := range []struct {
		name string
		at   string
		cls  uint8
	}{
		{"FE-TX", "FE", ulCarryState},
		{"BE-RX", "B", ulCarryPre},
		{"BE notify", "B", ulNotify},
	} {
		var fired [2]uint64
		for i, burst := range []bool{false, true} {
			w := dispatchWorld(t)
			vs := map[string]*VSwitch{"B": w.B, "FE": w.fes[0]}[r.at]
			var ps []*packet.Packet
			for k := 0; k < 3; k++ {
				ps = append(ps, underlayPacket(vs, r.cls, uint64(k+1), 1000+uint16(k)))
			}
			if burst {
				vs.HandleUnderlayBurst(ps)
			} else {
				for _, p := range ps {
					vs.HandleUnderlay(p)
				}
			}
			w.loop.RunAll()
			fired[i] = w.loop.Fired()
			if burst && vs.runs.Idle() == 0 {
				t.Errorf("%s: a burst of three submitted no CPU burst", r.name)
			}
		}
		if fired[1] >= fired[0] {
			t.Errorf("%s: burst fired %d loop events, one by one %d", r.name, fired[1], fired[0])
		}
	}
}

// underlayOutcome runs one fabric burst, built from data, into a fresh
// dispatchWorld — as one HandleUnderlayBurst call, or packet by packet
// through HandleUnderlay — and snapshots every counter, the deliveries
// and the attribution totals. data[0] picks the receiving switch and
// whether it is crashed; each later byte is one packet: its class and
// its flow.
func underlayOutcome(t *testing.T, data []byte, burst bool) burstOutcome {
	w := dispatchWorld(t)
	pr := prof.New()
	pr.SetClock(w.loop.Now)
	for _, vs := range []*VSwitch{w.A, w.B, w.fes[0]} {
		vs.EnableProf(pr)
	}
	var out burstOutcome
	w.A.SetDelivery(func(_ uint32, p *packet.Packet, lat sim.Time) {
		out.log = append(out.log, fmt.Sprintf("A:%d@%d", p.ID, lat))
		p.Release()
	})
	w.B.SetDelivery(func(_ uint32, p *packet.Packet, lat sim.Time) {
		out.log = append(out.log, fmt.Sprintf("B:%d@%d", p.ID, lat))
		p.Release()
	})
	vs := []*VSwitch{w.A, w.B, w.fes[0]}[data[0]%3]
	if data[0]/3%8 == 7 {
		vs.Crash()
	}
	var ps []*packet.Packet
	for i, b := range data[1:] {
		ps = append(ps, underlayPacket(vs, b%numULClasses, uint64(i+1), 1000+uint16(b/numULClasses%4)))
	}
	if burst {
		vs.HandleUnderlayBurst(ps)
	} else {
		for _, p := range ps {
			vs.HandleUnderlay(p)
		}
	}
	w.loop.RunAll()
	out.statsA, out.statsB = w.A.Stats, w.B.Stats
	out.statsFEs = []Counters{w.fes[0].Stats}
	out.sends, out.deliv, out.lost, out.bytes = w.fab.Sends, w.fab.Delivered, w.fab.Lost, w.fab.BytesSent
	out.samples = pr.Samples()
	return out
}

// FuzzUnderlayRuns delivers a random mixed burst to twin worlds, once
// as one burst and once packet by packet: however the burst splits
// into runs, every outcome must match.
func FuzzUnderlayRuns(f *testing.F) {
	f.Add([]byte{0, ulPlainToClient, ulPlainToClient, ulProbe, ulPlainToClient + numULClasses})
	f.Add([]byte{1, ulCarryPre, ulCarryPre, ulNotify, ulNotify, ulCarryPre, ulMalformed, ulPlainToServer})
	f.Add([]byte{2, ulCarryState, ulCarryState, ulCarryState + numULClasses, ulPlainToServer, ulPlainToServer, ulCtrl, ulCarryState})
	f.Add([]byte{2, ulNotify, ulCarryPre, ulMalformed, ulCarryState, ulPlainToUnknown, ulPong})
	f.Add([]byte{21, ulPlainToClient, ulCarryState, ulProbe})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 65 {
			return
		}
		one, burst := underlayOutcome(t, data, false), underlayOutcome(t, data, true)
		if !reflect.DeepEqual(one, burst) {
			t.Fatalf("burst %v: per-packet and burst delivery diverge:\nper-packet %+v\nburst      %+v", data, one, burst)
		}
	})
}
