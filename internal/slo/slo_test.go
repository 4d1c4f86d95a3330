package slo

import (
	"testing"

	"nezha/internal/packet"
)

// The burn evaluator fires when a window's violating fraction exceeds
// the threshold × 1% budget, tracks consecutive windows, and resets
// on a healthy window.
func TestBurnEvaluator(t *testing.T) {
	var events []BurnEvent
	tr := NewTracker(Config{
		Objective:     1000, // 1µs
		BurnWindow:    1000,
		BurnThreshold: 2,
		DecayEvery:    -1,
		OnBurn:        func(now int64, ev BurnEvent) { events = append(events, ev) },
	})
	key, hash := testKey(0)

	// Window 1: 100 packets, 10 violations → burn 10 >= 2.
	now := int64(0)
	for i := 0; i < 100; i++ {
		lat := int64(100)
		if i < 10 {
			lat = 5000
		}
		tr.RecordDeliver(now, 1, packet.PathFast, packet.DirRX, lat, hash, key, 100)
		now++
	}
	// Cross the window boundary.
	tr.RecordDeliver(1001, 1, packet.PathFast, packet.DirRX, 100, hash, key, 100)
	if len(events) != 1 {
		t.Fatalf("got %d burn events, want 1", len(events))
	}
	if ev := events[0]; ev.VNIC != 1 || ev.Burn < 9 || ev.Consecutive != 1 {
		t.Fatalf("unexpected event %+v", ev)
	}

	// Window 2: all healthy → streak resets.
	for i := 0; i < 100; i++ {
		tr.RecordDeliver(1001+int64(i), 1, packet.PathFast, packet.DirRX, 100, hash, key, 100)
	}
	tr.RecordDeliver(2500, 1, packet.PathFast, packet.DirRX, 100, hash, key, 100)
	if len(events) != 1 {
		t.Fatalf("healthy window fired a burn event: %+v", events)
	}
	if streak := tr.ledger[1].burnPeak; streak != 1 {
		t.Fatalf("max streak = %d, want 1", streak)
	}
	if tr.BurnEvents() != 1 {
		t.Fatalf("burn events = %d", tr.BurnEvents())
	}
}

// BurningAtLeast reports the lowest-id vNIC whose current streak
// reaches the limit, judging only the current streak (a healthy window
// resets it), and allocates nothing.
func TestBurningAtLeast(t *testing.T) {
	tr := NewTracker(Config{Objective: 1000, BurnWindow: 1000, BurnThreshold: 2, DecayEvery: -1})
	key, hash := testKey(0)
	// Windows 0..3. vNICs 9 and 5 burn in windows 1-3, vNIC 2 in every
	// window but 2; vNIC 30 is always healthy, and its record at each
	// window's start closes the window before it.
	burns := map[uint32][4]bool{9: {false, true, true, true}, 5: {false, true, true, true}, 2: {true, true, false, true}}
	for w := int64(0); w <= 4; w++ {
		now := w * 1000
		tr.RecordDeliver(now, 30, packet.PathFast, packet.DirRX, 100, hash, key, 100)
		if w == 4 {
			break
		}
		for _, vnic := range []uint32{9, 5, 2} {
			now++
			if burns[vnic][w] {
				tr.RecordDrop(now, vnic, 0)
			} else {
				tr.RecordDeliver(now, vnic, packet.PathFast, packet.DirRX, 100, hash, key, 100)
			}
		}
	}
	for _, c := range []struct {
		limit  int
		vnic   uint32
		streak int
		ok     bool
	}{{1, 2, 1, true}, {2, 5, 3, true}, {3, 5, 3, true}, {4, 0, 0, false}} {
		vnic, streak, ok := tr.BurningAtLeast(c.limit)
		if vnic != c.vnic || streak != c.streak || ok != c.ok {
			t.Errorf("BurningAtLeast(%d) = (%d, %d, %v), want (%d, %d, %v)", c.limit, vnic, streak, ok, c.vnic, c.streak, c.ok)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.BurningAtLeast(3) }); allocs != 0 {
		t.Errorf("BurningAtLeast: %.1f allocs per call, want 0", allocs)
	}
}

// Drops count as violations and carry their cause into the view.
func TestDropsAreViolations(t *testing.T) {
	tr := NewTracker(Config{DecayEvery: -1})
	tr.SetCauseNames([]string{"overload", "acl"})
	key, hash := testKey(3)
	for i := 0; i < 9; i++ {
		tr.RecordDeliver(int64(i), 7, packet.PathSlow, packet.DirTX, 100, hash, key, 64)
	}
	tr.RecordDrop(9, 7, 0)
	tr.RecordDrop(10, 7, 1)

	total, viol, drops, _, _ := tr.VNICStats(7)
	if total != 11 || viol != 2 || drops != 2 {
		t.Fatalf("stats = total %d viol %d drops %d, want 11/2/2", total, viol, drops)
	}
	v := tr.View()
	if len(v.VNICs) != 1 {
		t.Fatalf("view vnics = %d", len(v.VNICs))
	}
	vv := v.VNICs[0]
	if vv.DropCauses["overload"] != 1 || vv.DropCauses["acl"] != 1 {
		t.Fatalf("drop causes = %v", vv.DropCauses)
	}
	if len(vv.Paths) != 1 || vv.Paths[0].Path != "slow" || vv.Paths[0].Dir != "tx" {
		t.Fatalf("paths = %+v", vv.Paths)
	}
}

// Worst picks the vNIC with the highest cumulative p99.
func TestWorst(t *testing.T) {
	tr := NewTracker(Config{DecayEvery: -1})
	key, hash := testKey(5)
	for i := 0; i < 100; i++ {
		tr.RecordDeliver(int64(i), 1, packet.PathFast, packet.DirRX, 1000, hash, key, 64)
		tr.RecordDeliver(int64(i), 2, packet.PathFast, packet.DirRX, 900_000, hash, key, 64)
	}
	vnic, p99, ok := tr.Worst()
	if !ok || vnic != 2 {
		t.Fatalf("worst = vnic %d ok %v, want vnic 2", vnic, ok)
	}
	if BucketOf(p99) != BucketOf(900_000) {
		t.Fatalf("worst p99 = %d, want within bucket of 900000", p99)
	}
}
