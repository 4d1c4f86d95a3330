package vswitch

import (
	"bytes"
	"testing"

	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

func viewTestState() state.State {
	var st state.State
	st.Policy = tables.StatsPackets | tables.StatsBytesOut
	st.Touch(packet.DirTX, packet.FlagSYN, 40, 1000)
	st.Touch(packet.DirRX, packet.FlagSYN|packet.FlagACK, 40, 1500)
	st.DecapIP = packet.MakeIP(10, 3, 0, 9)
	return st
}

func viewTestPre() tables.PreActions {
	return tables.PreActions{
		TX: tables.PreAction{ACL: tables.VerdictAllow, PeerVNIC: 42},
		RX: tables.PreAction{ACL: tables.VerdictAllow, Stats: tables.StatsFlowLog},
	}
}

func viewTestPacket(id uint64) *packet.Packet {
	p := packet.New(id, vpcID, clientVNIC, tuple(4242), packet.DirTX, packet.FlagACK, 128)
	p.Encap(addrA, addrB)
	return p
}

// TestViewMatchesBlobEncoding pins the zero-copy contract: a packet
// carrying a header view must report the same SizeBytes and marshal to
// the exact bytes of the legacy blob-carrying packet, and the carried
// values must round-trip identically through both representations.
func TestViewMatchesBlobEncoding(t *testing.T) {
	w := newWorld(t, 0, nil)
	st := viewTestState()
	pre := viewTestPre()

	// State carriage: view vs blob.
	pv, pb := viewTestPacket(1), viewTestPacket(1)
	w.A.attachStateView(pv, clientVNIC, packet.DirTX, st)
	pb.AttachNezha(&packet.NezhaHeader{
		Type: packet.NezhaCarryState, VNIC: clientVNIC, Dir: packet.DirTX,
		StateBlob: st.Encode(),
	})
	if pv.SizeBytes != pb.SizeBytes {
		t.Fatalf("state view SizeBytes = %d, blob = %d", pv.SizeBytes, pb.SizeBytes)
	}
	if got, want := pv.Marshal(), pb.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("state view marshal diverges from blob:\nview %x\nblob %x", got, want)
	}
	gotSt, err := nezhaState(pv.Nezha)
	if err != nil {
		t.Fatal(err)
	}
	wantSt, err := nezhaState(pb.Nezha)
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != wantSt {
		t.Fatalf("state via view %+v != via blob %+v", gotSt, wantSt)
	}

	// Pre-action carriage: view vs blob.
	qv, qb := viewTestPacket(2), viewTestPacket(2)
	w.A.attachPreView(qv, serverVNIC, pre, addrA)
	qb.AttachNezha(&packet.NezhaHeader{
		Type: packet.NezhaCarryPreActions, VNIC: serverVNIC, Dir: packet.DirRX,
		PreActionBlob: pre.Encode(), OrigOuterSrc: addrA,
	})
	if qv.SizeBytes != qb.SizeBytes {
		t.Fatalf("pre view SizeBytes = %d, blob = %d", qv.SizeBytes, qb.SizeBytes)
	}
	if got, want := qv.Marshal(), qb.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("pre view marshal diverges from blob:\nview %x\nblob %x", got, want)
	}
	gotPre, err := nezhaPre(qv.Nezha)
	if err != nil {
		t.Fatal(err)
	}
	if gotPre != pre {
		t.Fatalf("pre via view %+v != attached %+v", gotPre, pre)
	}

	// A wire round-trip of the view-carrying packet decodes to blobs
	// with the same values — wire-mode fabrics never see the view.
	rt, err := packet.Unmarshal(pv.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Nezha == nil || rt.Nezha.StateBlob == nil {
		t.Fatal("round-tripped packet lost its state carriage")
	}
	rtSt, err := nezhaState(rt.Nezha)
	if err != nil {
		t.Fatal(err)
	}
	if rtSt != st {
		t.Fatalf("state after wire round-trip %+v != original %+v", rtSt, st)
	}
}

// TestViewSnapshotSemantics pins that attach copies the state by value:
// mutating the sender's state after attach must not change what the
// consumer reads (the legacy blob path encoded at attach time).
func TestViewSnapshotSemantics(t *testing.T) {
	w := newWorld(t, 0, nil)
	st := viewTestState()
	p := viewTestPacket(3)
	w.A.attachStateView(p, clientVNIC, packet.DirTX, st)
	st.Touch(packet.DirTX, packet.FlagFIN|packet.FlagACK, 0, 2000) // sender keeps mutating
	got, err := nezhaState(p.Nezha)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeen == st.LastSeen && st.LastSeen == 2000 {
		t.Fatal("view leaked the sender's post-attach mutation")
	}
}

// TestViewBoxRecycles pins the pool mechanics: StripNezha returns the
// box to the freelist and the next attach reuses it, and a Clone made
// while the view is attached materializes an independent blob that
// survives the recycle.
func TestViewBoxRecycles(t *testing.T) {
	w := newWorld(t, 0, nil)
	st := viewTestState()

	p := viewTestPacket(4)
	w.A.attachStateView(p, clientVNIC, packet.DirTX, st)
	box := p.Nezha.StateView.(*viewBox)
	cl := p.Clone()
	p.StripNezha()
	if p.Nezha != nil {
		t.Fatal("StripNezha left the header attached")
	}

	q := viewTestPacket(5)
	w.A.attachStateView(q, clientVNIC, packet.DirRX, st)
	if q.Nezha.StateView.(*viewBox) != box {
		t.Fatal("freelist did not reuse the recycled box")
	}

	// The clone took a blob snapshot, so the recycle cannot corrupt it.
	if cl.Nezha == nil || cl.Nezha.StateBlob == nil {
		t.Fatal("Clone of a view-carrying packet must materialize a blob")
	}
	clSt, err := nezhaState(cl.Nezha)
	if err != nil {
		t.Fatal(err)
	}
	if clSt != st {
		t.Fatalf("cloned state %+v != original %+v", clSt, st)
	}
}

type nopTask struct{}

func (nopTask) Run() {}

// overloadedBE returns a world with the server vNIC offloaded (B is its
// BE) and every core of B busy for a simulated second, so the next
// packet B submits waits past the queueing bound and is dropped. The
// loop must not run, or the cores free up.
func overloadedBE(t *testing.T) *world {
	t.Helper()
	w := newWorld(t, 1, nil)
	w.installLocal(t, false)
	w.offloadServer(t, false, true)
	for i := 0; i < w.B.cpu.Cores(); i++ {
		if _, ok := w.B.cpu.SubmitTask(nic.DefaultCoreHz, nopTask{}); !ok {
			t.Fatal("idle core refused work")
		}
	}
	return w
}

// beOverloadSend hands B one server packet: planBeTX attaches a state
// view for the FE, and the CPU admission drops it as overload.
func (w *world) beOverloadSend() {
	pktID++
	w.B.FromVM(packet.GetStamped(int64(w.loop.Now()), pktID, vpcID, serverVNIC, tuple(1000).Reverse(), packet.DirTX, packet.FlagACK, 100))
}
