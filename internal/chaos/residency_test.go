package chaos

import (
	"fmt"
	"strings"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/flowcache"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/state"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

// referenceResidency is the single-copy-state-residency check as first
// written: one key → holder map over every stateful session of every
// switch, built from empty on each sweep. It is the oracle the
// map-free sweep in invariants.go is compared against.
func referenceResidency(sys System) error {
	holders := make(map[packet.SessionKey]packet.IPv4)
	for _, vs := range sys.Switches {
		var err error
		tab := vs.Sessions()
		tab.Range(func(e *flowcache.Entry) bool {
			if !e.HasState() {
				return true
			}
			key := tab.Key(e)
			if !vs.HasVNIC(key.VNIC) {
				err = fmt.Errorf("session state for vNIC %d held at %v, where the vNIC is not resident (FE holding state)",
					key.VNIC, vs.Addr())
				return false
			}
			if first, dup := holders[key]; dup {
				err = fmt.Errorf("session state for vNIC %d duplicated: copies at %v and %v", key.VNIC, first, vs.Addr())
				return false
			}
			holders[key] = vs.Addr()
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// residencyDifferential runs the registered sweep at every check and
// the reference at every oracleEvery-th check and at any check where
// the sweep reports an error, and breaks when their verdicts differ
// (nil vs error, or different text). The reference rebuilds its map
// from empty each time, so running it at every check cost half the
// soak's CPU.
type residencyDifferential struct {
	sys    System
	impl   Invariant // kept across sweeps, as the registered one is
	checks int
}

// oracleEvery is the reference's sampling period in checks.
const oracleEvery = 8

func registerResidencyDifferential(e *Engine) {
	e.Register(&residencyDifferential{sys: e.sys, impl: StateResidency(e.sys)})
}

func (d *residencyDifferential) Name() string { return "residency-differential" }

func (d *residencyDifferential) Check(now sim.Time) error {
	got := d.impl.Check(now)
	if d.checks++; got == nil && d.checks%oracleEvery != 0 {
		return nil
	}
	if want := referenceResidency(d.sys); fmt.Sprint(want) != fmt.Sprint(got) {
		return fmt.Errorf("reference says %v, sweep says %v", want, got)
	}
	return nil
}

// residencyRig is n bare vSwitches on one fabric — the invariant only
// reads System.Switches.
func residencyRig(n int) System {
	loop := sim.NewLoop(1)
	fab := fabric.New(loop)
	gw := fabric.NewGateway(loop)
	sys := System{Loop: loop, Fab: fab, GW: gw}
	for i := 0; i < n; i++ {
		sys.Switches = append(sys.Switches, vswitch.New(loop, fab, gw, vswitch.Config{Addr: packet.MakeIP(10, 1, 0, byte(i+1))}))
	}
	return sys
}

func residencyKey(vnic uint32, sport uint16) packet.SessionKey {
	key, _ := packet.SessionKeyOf(vnic, 7, packet.FiveTuple{
		SrcIP: packet.MakeIP(10, 0, 1, 1), DstIP: packet.MakeIP(10, 0, 2, 1),
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP,
	})
	return key
}

// holdState makes vs hold session state for key, as a BE does.
func holdState(t *testing.T, vs *vswitch.VSwitch, key packet.SessionKey) {
	t.Helper()
	e, err := vs.Sessions().GetOrCreate(key, key.VNIC, 0)
	if err != nil {
		t.Fatal(err)
	}
	var st state.State
	st.InitFirst(packet.DirTX, 0)
	if err := vs.Sessions().SetState(e, st); err != nil {
		t.Fatal(err)
	}
}

// cachePre makes vs hold only cached pre-actions for key, as an FE does.
func cachePre(t *testing.T, vs *vswitch.VSwitch, key packet.SessionKey) {
	t.Helper()
	e, err := vs.Sessions().GetOrCreate(key, key.VNIC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.Sessions().SetPre(e, tables.PreActions{}, 1); err != nil {
		t.Fatal(err)
	}
}

// checkBoth runs the invariant (twice, so a reused map is exercised) and
// the reference, requires identical verdicts, and returns the error.
func checkBoth(t *testing.T, sys System) error {
	t.Helper()
	inv := StateResidency(sys)
	want := referenceResidency(sys)
	for pass := 0; pass < 2; pass++ {
		if got := inv.Check(0); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pass %d: sweep says %v, reference says %v", pass, got, want)
		}
	}
	return want
}

func TestResidencyHealthyWorldHolds(t *testing.T) {
	sys := residencyRig(3)
	be, fe := sys.Switches[0], sys.Switches[1]
	if err := be.AddVNIC(tables.NewRuleSet(5, 7), false); err != nil {
		t.Fatal(err)
	}
	if err := fe.InstallFE(tables.NewRuleSet(5, 7), be.Addr(), false); err != nil {
		t.Fatal(err)
	}
	for sport := uint16(1); sport <= 64; sport++ {
		holdState(t, be, residencyKey(5, sport))
		cachePre(t, fe, residencyKey(5, sport)) // same keys, stateless: allowed
	}
	if err := checkBoth(t, sys); err != nil {
		t.Fatalf("healthy world violates: %v", err)
	}
}

// An FE made to hold state for a vNIC it only fronts is the first error
// the invariant exists for.
func TestResidencyCatchesFEHoldingState(t *testing.T) {
	sys := residencyRig(3)
	be, fe := sys.Switches[0], sys.Switches[2]
	if err := be.AddVNIC(tables.NewRuleSet(5, 7), false); err != nil {
		t.Fatal(err)
	}
	if err := fe.InstallFE(tables.NewRuleSet(5, 7), be.Addr(), false); err != nil {
		t.Fatal(err)
	}
	holdState(t, be, residencyKey(5, 1))
	holdState(t, fe, residencyKey(5, 2))
	err := checkBoth(t, sys)
	want := fmt.Sprintf("session state for vNIC 5 held at %v, where the vNIC is not resident (FE holding state)", fe.Addr())
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}

// One vNIC resident on two switches with the same session stateful on
// both is the only way a duplicate gets past the home check.
func TestResidencyCatchesDuplicateState(t *testing.T) {
	sys := residencyRig(3)
	a, b := sys.Switches[0], sys.Switches[2]
	for _, vs := range []*vswitch.VSwitch{a, b} {
		if err := vs.AddVNIC(tables.NewRuleSet(5, 7), false); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct sessions of the doubly resident vNIC are not duplicates…
	holdState(t, a, residencyKey(5, 1))
	holdState(t, b, residencyKey(5, 2))
	if err := checkBoth(t, sys); err != nil {
		t.Fatalf("distinct sessions flagged: %v", err)
	}
	// …the same session on both is.
	holdState(t, b, residencyKey(5, 1))
	err := checkBoth(t, sys)
	want := fmt.Sprintf("session state for vNIC 5 duplicated: copies at %v and %v", a.Addr(), b.Addr())
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}

// With both faults present the first one in sweep order wins, in both
// implementations.
func TestResidencyFirstErrorOrderMatchesReference(t *testing.T) {
	sys := residencyRig(3)
	a, fe, b := sys.Switches[0], sys.Switches[1], sys.Switches[2]
	for _, vs := range []*vswitch.VSwitch{a, b} {
		if err := vs.AddVNIC(tables.NewRuleSet(5, 7), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddVNIC(tables.NewRuleSet(6, 7), false); err != nil {
		t.Fatal(err)
	}
	for sport := uint16(1); sport <= 32; sport++ { // interleave two vNICs' entries on a
		holdState(t, a, residencyKey(5, sport))
		holdState(t, a, residencyKey(6, sport))
	}
	holdState(t, b, residencyKey(5, 7))  // duplicate, found when the sweep reaches b
	holdState(t, fe, residencyKey(6, 9)) // FE holding state, found first: fe precedes b
	if err := checkBoth(t, sys); err == nil || !strings.Contains(err.Error(), "FE holding state") {
		t.Fatalf("got %v, want the FE-holding-state error first", err)
	}
}
