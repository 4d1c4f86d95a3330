package baseline

import (
	"math"
	"testing"

	"nezha/internal/sim"
)

// offer pushes n connection setups at the given rate through fn.
func offer(loop *sim.Loop, n int, rate float64, fn func(hash uint64)) {
	gap := sim.Time(float64(sim.Second) / rate)
	for i := 0; i < n; i++ {
		i := i
		loop.Schedule(gap*sim.Time(i), func() { fn(uint64(i)*2654435761 + 12345) })
	}
}

func TestSiriusReplicationHalvesCPS(t *testing.T) {
	// Same cards, same per-connection cost; Sirius replicates in-line,
	// Nezha does not. Under saturating load the established-connection
	// ratio must approach 2x (§1: "the NF capacity halves").
	cfg := DefaultSiriusConfig(4)

	loopS := sim.NewLoop(1)
	sirius := NewSiriusPool(loopS, cfg)
	offer(loopS, 200000, 2_000_000, func(h uint64) { sirius.NewConnection(h, nil) })
	loopS.RunAll()
	sElapsed := loopS.Now().Seconds()

	loopN := sim.NewLoop(1)
	nez := NewNezhaPoolView(loopN, cfg)
	offer(loopN, 200000, 2_000_000, func(h uint64) { nez.NewConnection(h, nil) })
	loopN.RunAll()
	nElapsed := loopN.Now().Seconds()

	sCPS := float64(sirius.Established) / sElapsed
	nCPS := float64(nez.Established) / nElapsed
	ratio := nCPS / sCPS
	if math.Abs(ratio-2.0) > 0.3 {
		t.Fatalf("Nezha/Sirius CPS ratio = %.2f (S=%.0f N=%.0f), want ≈2.0", ratio, sCPS, nCPS)
	}
	if sirius.Replications != sirius.Established {
		t.Fatalf("every established connection must replicate: %d vs %d",
			sirius.Replications, sirius.Established)
	}
}

func TestSiriusLowLoadNoPenalty(t *testing.T) {
	// Below saturation, replication costs capacity, not goodput.
	cfg := DefaultSiriusConfig(4)
	loop := sim.NewLoop(2)
	p := NewSiriusPool(loop, cfg)
	ok := 0
	offer(loop, 1000, 10_000, func(h uint64) {
		p.NewConnection(h, func(accepted bool) {
			if accepted {
				ok++
			}
		})
	})
	loop.RunAll()
	if ok != 1000 {
		t.Fatalf("low-load drops: %d/1000", ok)
	}
}

func TestSiriusBucketMoveCountsTransfers(t *testing.T) {
	cfg := DefaultSiriusConfig(4)
	loop := sim.NewLoop(3)
	p := NewSiriusPool(loop, cfg)
	// Establish 100 flows in bucket 0 (hashes ≡ 0 mod 64).
	for i := 0; i < 100; i++ {
		p.NewConnection(uint64(i*64), nil)
	}
	loop.RunAll()
	// Retire 30 of them.
	for i := 0; i < 30; i++ {
		p.FlowDone(uint64(i * 64))
	}
	p.MoveBucket(0, 3)
	if p.StateTransfers != 70 {
		t.Fatalf("state transfers = %d, want 70 (only live long flows move)", p.StateTransfers)
	}
	// Moving to the same card is a no-op.
	before := p.StateTransfers
	p.MoveBucket(0, 3)
	if p.StateTransfers != before {
		t.Fatal("no-op move counted transfers")
	}
	// Out-of-range arguments are ignored.
	p.MoveBucket(-1, 0)
	p.MoveBucket(0, 99)
	if p.StateTransfers != before {
		t.Fatal("invalid moves counted transfers")
	}
}

func TestSiriusMinimumCards(t *testing.T) {
	loop := sim.NewLoop(4)
	p := NewSiriusPool(loop, SiriusConfig{Cards: 1, Cores: 1, CoreHz: 1e9})
	if len(p.Cards()) != 2 {
		t.Fatal("pool must have at least a primary/secondary pair")
	}
}

func TestCostModelTable5(t *testing.T) {
	s, n := SailfishCost(), NezhaCost()
	if s.TotalPM() != 168 || n.TotalPM() != 15 {
		t.Fatalf("totals = %v / %v, want 168 / 15", s.TotalPM(), n.TotalPM())
	}
	// Paper: Nezha needs only ~10% of the development effort.
	r := DevEffortRatio()
	if r < 0.05 || r > 0.15 {
		t.Fatalf("effort ratio = %.3f, want ≈0.10", r)
	}
	if !s.NewDevices || n.NewDevices {
		t.Fatal("device flags wrong")
	}
	if n.ScaleOutMaxDays >= s.ScaleOutMinDays {
		t.Fatal("Nezha scale-out should beat Sailfish's best case")
	}
}
