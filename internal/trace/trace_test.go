package trace

import (
	"math"
	"testing"
)

func TestCPUUtilizationCalibration(t *testing.T) {
	r := NewRegion(1, 200000)
	h := r.CPUUtilization()
	// Paper: avg ≈5%, P90 ≈15%, P99 ≈41%, P999 ≈68%, P9999 ≈90%.
	checks := []struct {
		name      string
		got, want float64
		tol       float64 // relative
	}{
		{"avg", h.Mean(), 5, 0.4},
		{"p90", h.Quantile(0.9), 15, 0.4},
		{"p99", h.Quantile(0.99), 41, 0.35},
		{"p999", h.Quantile(0.999), 68, 0.3},
		{"p9999", h.Quantile(0.9999), 90, 0.15},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want)/c.want > c.tol {
			t.Errorf("CPU %s = %.1f%%, want ≈%.0f%%", c.name, c.got, c.want)
		}
	}
	if h.Quantile(1) > 100 {
		t.Fatal("utilization above 100%")
	}
}

func TestMemUtilizationCalibration(t *testing.T) {
	r := NewRegion(2, 200000)
	h := r.MemUtilization()
	// Paper: avg ≈1.5%, P90 ≈15%, P99 ≈34%, P999 ≈93%, P9999 ≈96%.
	if math.Abs(h.Mean()-1.5)/1.5 > 0.6 {
		t.Errorf("mem avg = %.2f%%, want ≈1.5%%", h.Mean())
	}
	if h.Quantile(0.9999) < 80 || h.Quantile(0.9999) > 100 {
		t.Errorf("mem p9999 = %.1f%%, want ≈96%%", h.Quantile(0.9999))
	}
	// The skew ratio is the headline: P9999 tens of times the mean.
	if h.Quantile(0.9999)/h.Mean() < 20 {
		t.Errorf("mem skew P9999/avg = %.1f, want >> 20 (paper: 64x)", h.Quantile(0.9999)/h.Mean())
	}
}

func TestCPUSkewRatio(t *testing.T) {
	r := NewRegion(3, 200000)
	h := r.CPUUtilization()
	// Paper: P9999 about 20x the average.
	ratio := h.Quantile(0.9999) / h.Mean()
	if ratio < 10 || ratio > 40 {
		t.Errorf("CPU skew P9999/avg = %.1f, want ≈20", ratio)
	}
}

func TestHighCPSVMs(t *testing.T) {
	r := NewRegion(4, 0)
	pairs := r.HighCPSVMs(5000)
	under60 := 0
	for _, p := range pairs {
		if p.VSwitchCPU < 0.95 {
			t.Fatalf("vSwitch CPU %v < 95%%", p.VSwitchCPU)
		}
		if p.VMCPU < 0 || p.VMCPU > 1 {
			t.Fatalf("VM CPU out of range: %v", p.VMCPU)
		}
		if p.VMCPU < 0.60 {
			under60++
		}
	}
	frac := float64(under60) / float64(len(pairs))
	// Paper: 90% of high-CPS VMs below 60% CPU.
	if frac < 0.80 || frac > 0.98 {
		t.Errorf("VMs under 60%% CPU = %.1f%%, want ≈90%%", frac*100)
	}
}

func TestHotspotDistribution(t *testing.T) {
	r := NewRegion(5, 0)
	d := r.HotspotDistribution(100000)
	total := d[OverloadCPS] + d[OverloadConcurrentFlows] + d[OverloadVNICs]
	if total != 100000 {
		t.Fatal("samples lost")
	}
	cps := float64(d[OverloadCPS]) / float64(total)
	flows := float64(d[OverloadConcurrentFlows]) / float64(total)
	vnics := float64(d[OverloadVNICs]) / float64(total)
	if math.Abs(cps-0.61) > 0.02 || math.Abs(flows-0.30) > 0.02 || math.Abs(vnics-0.09) > 0.02 {
		t.Errorf("shares = %.2f/%.2f/%.2f, want 0.61/0.30/0.09", cps, flows, vnics)
	}
}

func TestOverloadCauseStrings(t *testing.T) {
	if OverloadCPS.String() != "CPS" || OverloadConcurrentFlows.String() != "#flows" || OverloadVNICs.String() != "#vNICs" {
		t.Fatal("cause names wrong")
	}
}

func TestUsageDistributionSkew(t *testing.T) {
	r := NewRegion(6, 0)
	for kind := 0; kind < 3; kind++ {
		h := r.UsageDistribution(kind, 300000)
		p50, p9999 := h.Quantile(0.5), h.Quantile(0.9999)
		if p9999 <= 0 {
			t.Fatalf("kind %d: zero tail", kind)
		}
		ratio := p50 / p9999
		// Table 1: P50 is a fraction of a percent of P9999.
		if ratio > 0.05 {
			t.Errorf("kind %d: P50/P9999 = %.4f, want < 0.05 (paper ≈0.005-0.008)", kind, ratio)
		}
		// And the distribution must be monotone in percentile.
		if !(h.Quantile(0.9) >= p50 && h.Quantile(0.99) >= h.Quantile(0.9) && h.Quantile(0.999) >= h.Quantile(0.99)) {
			t.Fatalf("kind %d: percentiles not monotone", kind)
		}
	}
}

func TestStateSizes(t *testing.T) {
	r := NewRegion(7, 0)
	h := r.StateSizes(200000)
	// Paper Fig 15: average state size 5–8 B.
	if h.Mean() < 4 || h.Mean() > 9 {
		t.Errorf("avg state size = %.1f B, want 5-8 B", h.Mean())
	}
	if h.Quantile(1) >= 64 {
		t.Errorf("state size %v ≥ fixed slot 64 B", h.Quantile(1))
	}
}

func TestMigrationDowntimeGrowsWithMemory(t *testing.T) {
	r := NewRegion(8, 0)
	small := 0.0
	big := 0.0
	for i := 0; i < 200; i++ {
		small += r.MigrationDowntime(4, 16).DowntimeMS
		big += r.MigrationDowntime(104, 1024).DowntimeMS
	}
	small /= 200
	big /= 200
	if big < 4*small {
		t.Errorf("downtime 1TB VM = %.0f ms vs 16GB = %.0f ms; want strong growth", big, small)
	}
	// Paper: ~1 TB VMs take tens of minutes total.
	total := 0.0
	for i := 0; i < 200; i++ {
		total += r.MigrationDowntime(104, 1024).TotalSec
	}
	total /= 200
	if total < 600 || total > 3600 {
		t.Errorf("1TB migration total = %.0f s, want tens of minutes", total)
	}
}

func TestRegionDeterminism(t *testing.T) {
	a := NewRegion(42, 1000)
	b := NewRegion(42, 1000)
	for i := 0; i < 100; i++ {
		if a.VSwitchCPU() != b.VSwitchCPU() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDefaultN(t *testing.T) {
	r := NewRegion(1, 0)
	if r.N != 10000 {
		t.Fatalf("default N = %d", r.N)
	}
}
