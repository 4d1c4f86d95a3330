package prof

import (
	"testing"

	"nezha/internal/sim"
)

// TestSeriesReaderWindowsAreDeltas drives cumulative charges through
// two reads and checks each window reports only what accrued since the
// previous one, with zero-delta entries dropped.
func TestSeriesReaderWindowsAreDeltas(t *testing.T) {
	p := New()
	n := p.Node("10.1.0.1", 2)
	v := n.Slot(7, RoleLocal)
	r := NewSeriesReader(p)

	v.Charge(DirTX, StageSlowpath, 1000)
	v.Charge(DirRX, StageSessionInstall, 250)
	v.MemAlloc(CauseSessionTable, 4096)

	w1 := r.Read(500 * sim.Millisecond)
	if w1.T0 != 0 || w1.T1 != 500*sim.Millisecond {
		t.Fatalf("window bounds %v..%v, want 0..500ms", w1.T0, w1.T1)
	}
	if len(w1.VNICs) != 1 {
		t.Fatalf("got %d vnic series, want 1: %+v", len(w1.VNICs), w1.VNICs)
	}
	s := w1.VNICs[0]
	if s.Node != "10.1.0.1" || s.VNIC != 7 || s.Role != RoleLocal {
		t.Fatalf("series identity %+v", s)
	}
	if s.RuleCycles != 1000 || s.SessCycles != 250 {
		t.Fatalf("first window cycles rule=%d sess=%d, want 1000/250", s.RuleCycles, s.SessCycles)
	}
	if s.TableBytes != 4096 {
		t.Fatalf("first window bytes %d, want 4096", s.TableBytes)
	}
	if reloc := s.RuleCycles + s.SessCycles; reloc != 1250 {
		t.Fatalf("relocatable cycles %d, want 1250", reloc)
	}

	// Second window: only the delta.
	v.Charge(DirTX, StageSlowpath, 300)
	w2 := r.Read(sim.Second)
	if w2.T0 != 500*sim.Millisecond || w2.T1 != sim.Second {
		t.Fatalf("second window bounds %v..%v", w2.T0, w2.T1)
	}
	if len(w2.VNICs) != 1 || w2.VNICs[0].RuleCycles != 300 || w2.VNICs[0].SessCycles != 0 {
		t.Fatalf("second window %+v, want rule delta 300", w2.VNICs)
	}

	// Third window: no cycles accrued — the series keeps reporting the
	// live table residency (a level, not a delta) with zero cycle
	// deltas.
	w3 := r.Read(1500 * sim.Millisecond)
	if len(w3.VNICs) != 1 {
		t.Fatalf("idle window lost the live-bytes series: %+v", w3.VNICs)
	}
	if s := w3.VNICs[0]; s.RuleCycles+s.SessCycles != 0 || s.TableBytes != 4096 {
		t.Fatalf("idle window %+v, want zero cycles and 4096 live bytes", s)
	}

	// Free the bytes: with zero cycles and zero residency the vNIC
	// drops out entirely.
	v.MemFree(CauseSessionTable, 4096)
	w4 := r.Read(2 * sim.Second)
	if len(w4.VNICs) != 0 {
		t.Fatalf("fully idle window still has series: %+v", w4.VNICs)
	}
}

// TestSeriesReaderPrimeBaselinesMidRun covers the recovery path: the
// profiler survives a controller crash with its accumulators intact,
// so a rebuilt reader must Prime before its first Read or that window
// would report cumulative-since-boot totals. Primed deltas are exact —
// only what accrued after the prime — and can never underflow.
func TestSeriesReaderPrimeBaselinesMidRun(t *testing.T) {
	p := New()
	v := p.Node("be", 2).Slot(9, RoleLocal)

	// Pre-crash history: an old reader drained 1000 cycles, then 700
	// more accrued that nobody drained before the crash.
	v.Charge(DirTX, StageSlowpath, 1000)
	NewSeriesReader(p).Read(500 * sim.Millisecond)
	v.Charge(DirTX, StageSlowpath, 700)

	// Control: an un-primed newborn reader reports the full cumulative
	// total — exactly the corruption Prime exists to prevent.
	naive := NewSeriesReader(p)
	if w := naive.Read(sim.Second); len(w.VNICs) != 1 || w.VNICs[0].RuleCycles != 1700 {
		t.Fatalf("un-primed control window %+v, want cumulative 1700", w.VNICs)
	}

	// Recovery: a fresh reader primed at t=1s sees only post-prime work.
	r := NewSeriesReader(p)
	r.Prime(sim.Second)
	v.Charge(DirTX, StageSlowpath, 300)
	v.Charge(DirRX, StageSessionInstall, 50)
	w := r.Read(1500 * sim.Millisecond)
	if w.T0 != sim.Second || w.T1 != 1500*sim.Millisecond {
		t.Fatalf("primed window bounds %v..%v, want 1s..1.5s", w.T0, w.T1)
	}
	if len(w.VNICs) != 1 {
		t.Fatalf("primed window series %+v, want 1", w.VNICs)
	}
	if s := w.VNICs[0]; s.RuleCycles != 300 || s.SessCycles != 50 {
		// An underflowed uint64 delta would land here as a huge number.
		t.Fatalf("primed deltas rule=%d sess=%d, want exactly 300/50", s.RuleCycles, s.SessCycles)
	}

	// An idle follow-up window reports nothing — zero, not negative.
	if w := r.Read(2 * sim.Second); len(w.VNICs) != 0 {
		t.Fatalf("idle primed window leaked series: %+v", w.VNICs)
	}
}

// TestPrimeDoesNotDrain pins the contract Prime must honor: it
// consumes no attribution, so a rebuilt reader priming mid-run leaves
// every other reader's next window intact.
func TestPrimeDoesNotDrain(t *testing.T) {
	p := New()
	v := p.Node("n", 1).Slot(1, RoleLocal)
	v.Charge(DirTX, StageSlowpath, 10)
	r := NewSeriesReader(p)
	r.Read(sim.Second)
	v.Charge(DirTX, StageSlowpath, 20)
	r2 := NewSeriesReader(p)
	r2.Prime(2 * sim.Second)
	if w := r.Read(3 * sim.Second); len(w.VNICs) != 1 || w.VNICs[0].RuleCycles != 20 {
		t.Fatalf("window after another reader's Prime %+v, want the 20 cycles charged since the last Read", w.VNICs)
	}
	if w := r2.Read(3 * sim.Second); len(w.VNICs) != 0 {
		t.Fatalf("primed reader's first window %+v, want nothing charged since the prime", w.VNICs)
	}
}

// TestSeriesReaderReportsNodeUtil feeds a synthetic busy timeline and
// checks the window carries the node's mean core utilization.
func TestSeriesReaderReportsNodeUtil(t *testing.T) {
	p := New()
	n := p.Node("n", 2)
	busy := []sim.Time{0, 0}
	n.SetCoreBusy(func(out []sim.Time) []sim.Time { return append(out, busy...) })
	r := NewSeriesReader(p)
	// The first advance only establishes the cumulative-busy baseline.
	r.Read(50 * sim.Millisecond)
	// One core fully busy, one idle over the next 100 ms.
	busy[0] = 100 * sim.Millisecond
	w := r.Read(150 * sim.Millisecond)
	if len(w.Nodes) != 1 {
		t.Fatalf("got %d node series, want 1", len(w.Nodes))
	}
	got := w.Nodes[0].Util
	if got < 0.45 || got > 0.55 {
		t.Fatalf("node util %.3f, want ~0.5", got)
	}
}
