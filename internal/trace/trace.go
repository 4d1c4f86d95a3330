// Package trace synthesizes region-scale telemetry matching the
// distribution summaries the paper reports from production: vSwitch
// CPU/memory utilization across O(10K) servers (Fig 4), the CPU gap
// between high-CPS VMs and their vSwitches (Fig 2), the overload
// cause mix (Fig 3), the normalized per-VM usage distribution
// (Table 1), average state sizes (Fig 15), and VM migration downtime
// versus VM size (Fig A1).
//
// The generators are calibrated against the published percentiles —
// e.g. Fig 4's CPU utilization (avg ≈5%, P90 ≈15%, P99 ≈41%,
// P999 ≈68%, P9999 ≈90%) — using mixtures of a lognormal body and a
// heavy Pareto tail, the standard shape for multi-tenant load skew.
package trace

import (
	"nezha/internal/sim"
	"nezha/internal/slo"
)

// Region is a synthetic telemetry snapshot.
type Region struct {
	rng *sim.Rand
	// N is the number of vSwitches (paper: O(10K)).
	N int
}

// NewRegion builds a generator for n vSwitches.
func NewRegion(seed int64, n int) *Region {
	if n <= 0 {
		n = 10000
	}
	return &Region{rng: sim.NewRand(seed), N: n}
}

// clamp01 bounds a utilization sample.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// mixTail draws from a lognormal body with probability 1-pTail and a
// Pareto tail otherwise, clamped to [0, cap].
func (r *Region) mixTail(mu, sigma, pTail, xmin, alpha, max float64) float64 {
	var v float64
	if r.rng.Float64() < pTail {
		v = r.rng.Pareto(xmin, alpha)
	} else {
		v = r.rng.LogNormal(mu, sigma)
	}
	if v > max {
		v = max
	}
	return v
}

// VSwitchCPU samples one vSwitch's CPU utilization (Fig 4a).
// Calibration targets: avg ≈ 0.05, P90 ≈ 0.15, P99 ≈ 0.41,
// P999 ≈ 0.68, P9999 ≈ 0.90, max ≈ 0.98.
func (r *Region) VSwitchCPU() float64 {
	return clamp01(r.mixTail(-3.45, 0.95, 0.02, 0.35, 4.6, 0.98))
}

// VSwitchMem samples one vSwitch's memory utilization (Fig 4b).
// Targets: avg ≈ 0.015, P90 ≈ 0.15, P99 ≈ 0.34, P999 ≈ 0.93,
// P9999 ≈ 0.96.
func (r *Region) VSwitchMem() float64 {
	return clamp01(r.mixTail(-5.2, 1.25, 0.0045, 0.5, 1.05, 0.96))
}

// CPUUtilization generates the full Fig 4a CDF.
func (r *Region) CPUUtilization() *slo.Samples {
	h := new(slo.Samples)
	for i := 0; i < r.N; i++ {
		h.Observe(r.VSwitchCPU() * 100)
	}
	return h
}

// MemUtilization generates the full Fig 4b CDF.
func (r *Region) MemUtilization() *slo.Samples {
	h := new(slo.Samples)
	for i := 0; i < r.N; i++ {
		h.Observe(r.VSwitchMem() * 100)
	}
	return h
}

// HighCPSPair is one Fig 2 sample: a high-CPS VM's own CPU
// utilization and its vSwitch's.
type HighCPSPair struct {
	VMCPU      float64
	VSwitchCPU float64
}

// HighCPSVMs samples n high-CPS tenants (Fig 2): their vSwitches run
// at >95% CPU while 90% of the VMs sit under 60% — the VM has far
// more headroom than the SmartNIC serving it.
func (r *Region) HighCPSVMs(n int) []HighCPSPair {
	out := make([]HighCPSPair, n)
	for i := range out {
		vs := 0.95 + 0.05*r.rng.Float64()
		vm := r.rng.LogNormal(-1.15, 0.55) // median ~0.32, P90 ~0.60
		out[i] = HighCPSPair{VMCPU: clamp01(vm), VSwitchCPU: clamp01(vs)}
	}
	return out
}

// OverloadCause is a Fig 3 category.
type OverloadCause int

// Overload causes, with the paper's region shares.
const (
	OverloadCPS OverloadCause = iota
	OverloadConcurrentFlows
	OverloadVNICs
)

func (c OverloadCause) String() string {
	switch c {
	case OverloadCPS:
		return "CPS"
	case OverloadConcurrentFlows:
		return "#flows"
	case OverloadVNICs:
		return "#vNICs"
	default:
		return "?"
	}
}

// overloadShares are the Fig 3 / Appendix A.1 proportions.
var overloadShares = [3]float64{0.61, 0.30, 0.09}

// OverloadCauseSample draws one hotspot's cause.
func (r *Region) OverloadCauseSample() OverloadCause {
	u := r.rng.Float64()
	switch {
	case u < overloadShares[0]:
		return OverloadCPS
	case u < overloadShares[0]+overloadShares[1]:
		return OverloadConcurrentFlows
	default:
		return OverloadVNICs
	}
}

// HotspotDistribution tallies n hotspots by cause (Fig 3).
func (r *Region) HotspotDistribution(n int) map[OverloadCause]int {
	out := make(map[OverloadCause]int)
	for i := 0; i < n; i++ {
		out[r.OverloadCauseSample()]++
	}
	return out
}

// UsageDistribution generates one service-usage metric across n VMs
// with the Table 1 skew: P50 ≈ 0.5–0.8% of the P9999 VM's usage.
// kind selects the calibration (0=CPS, 1=#flows, 2=#vNICs).
func (r *Region) UsageDistribution(kind, n int) *slo.Samples {
	h := new(slo.Samples)
	// Lognormal bodies with per-metric spread chosen so the
	// P50/P9999 ratio lands near Table 1's 0.53% / 0.78% / 0.65%,
	// and the P999/P9999 ratio near 18% / 29% / 55%.
	if kind == 2 {
		// #vNICs is two-regime: almost all VMs need a handful of
		// vNICs, while a small cluster of middlebox-style tenants
		// needs orders of magnitude more — which is why Table 1's
		// #vNICs column has BOTH a tiny P50 (0.65% of P9999) and a
		// flat extreme tail (P999 = 55% of P9999).
		for i := 0; i < n; i++ {
			var v float64
			if r.rng.Float64() < 0.002 {
				v = 150 + 150*r.rng.Float64()
			} else {
				v = 2 * r.rng.LogNormal(0, 1.0)
			}
			h.Observe(v)
		}
		return h
	}
	var sigma float64
	switch kind {
	case 0:
		sigma = 0.95
	default:
		sigma = 0.92
	}
	for i := 0; i < n; i++ {
		v := r.rng.LogNormal(0, sigma)
		// A sparse ultra-heavy tail: a few tenants dominate.
		if r.rng.Float64() < 0.002 {
			v *= r.rng.Pareto(8, 1.3)
		}
		h.Observe(v)
	}
	return h
}

// StateSizes samples per-flow state sizes in bytes (Fig 15): most
// flows keep almost no state; the average lands in the 5–8 B band
// while the fixed slot is 64 B.
func (r *Region) StateSizes(n int) *slo.Samples {
	h := new(slo.Samples)
	for i := 0; i < n; i++ {
		u := r.rng.Float64()
		var v float64
		switch {
		case u < 0.35: // stateless NFs: empty state
			v = 1
		case u < 0.80: // first-dir + FSM
			v = 2 + float64(r.rng.Intn(4))
		case u < 0.95: // + decap IP or policy
			v = 7 + float64(r.rng.Intn(8))
		default: // fully instrumented
			v = 24 + float64(r.rng.Intn(40))
		}
		h.Observe(v)
	}
	return h
}

// MigrationSample is one Fig A1 data point.
type MigrationSample struct {
	VCPUs      int
	MemGB      int
	DowntimeMS float64
	TotalSec   float64
}

// MigrationDowntime models VM live-migration cost growing with the
// purchased resources (Fig A1): dirty-page copying scales with
// memory; downtime has a floor plus a memory-proportional term.
func (r *Region) MigrationDowntime(vcpus, memGB int) MigrationSample {
	base := 80.0 // ms floor: pause, device handover
	perGB := 1.9 // ms per GB at the final stop-and-copy
	jitter := r.rng.LogNormal(0, 0.25)
	down := (base + perGB*float64(memGB)) * jitter
	total := (20 + 0.9*float64(memGB)) * r.rng.LogNormal(0, 0.2)
	return MigrationSample{
		VCPUs: vcpus, MemGB: memGB,
		DowntimeMS: down, TotalSec: total,
	}
}
