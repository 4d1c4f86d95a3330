package baseline

import "math"

// This file scores the policy engine (internal/policy)
// against two reference points:
//
//   - the offline oracle: given the full load trace in hindsight, the
//     smallest FE pool per window that keeps every FE at or below the
//     target utilization — the plan a clairvoyant operator would have
//     run. The policy can only extrapolate forward, so its gap to the
//     oracle measures the cost of not knowing the future.
//   - a Sirius-style static pool: cards provisioned for the observed
//     peak and doubled for primary-backup replication (§1: "the NF
//     capacity halves"), the no-elasticity comparison.

// OracleConfig mirrors the sizing half of policy.Config so both
// planners answer "how many FEs for this load" identically; only the
// information they see differs.
type OracleConfig struct {
	// FECapacityHz is one FE's relocatable-cycle budget per second.
	FECapacityHz float64
	// TargetUtil is the per-FE utilization ceiling.
	TargetUtil float64
	// MinFEs and MaxFEs clamp the plan to the same bounds the policy
	// honors.
	MinFEs, MaxFEs int
}

// PoolFor returns the smallest pool that serves load (relocatable
// cycles/s) at or below TargetUtil per FE, clamped to [MinFEs, MaxFEs].
func (c OracleConfig) PoolFor(load float64) int {
	per := c.FECapacityHz * c.TargetUtil
	n := 1
	if per > 0 && load > 0 {
		n = int(math.Ceil(load / per))
	}
	if n < c.MinFEs {
		n = c.MinFEs
	}
	if c.MaxFEs > 0 && n > c.MaxFEs {
		n = c.MaxFEs
	}
	return n
}

// OraclePlan maps a recorded per-window load trace to the hindsight
// pool plan.
func (c OracleConfig) OraclePlan(loads []float64) []int {
	plan := make([]int, len(loads))
	for i, l := range loads {
		plan[i] = c.PoolFor(l)
	}
	return plan
}

// OracleScore is the policy-vs-oracle comparison over one run.
type OracleScore struct {
	// MeanGapPct is mean |policy-oracle|/oracle over all windows with a
	// nonzero oracle pool — includes ramp lag, so it is the pessimistic
	// number.
	MeanGapPct float64
	// ConvergedGapPct is the same gap restricted to windows where the
	// oracle plan has been stable for StableRun consecutive windows:
	// the demand is steady and the policy has had time to converge, so
	// residual gap is genuine sizing error, not reaction latency.
	ConvergedGapPct float64
	// ConvergedWindows counts the windows ConvergedGapPct averaged
	// over.
	ConvergedWindows int
}

// StableRun is how many consecutive identical oracle windows qualify a
// window as "converged" for ConvergedGapPct.
const StableRun = 4

// ScoreAgainstOracle compares the policy's per-window pool trace to
// the oracle plan for the same load trace. The slices must be
// index-aligned (one entry per policy interval).
func (c OracleConfig) ScoreAgainstOracle(policyPools []int, loads []float64) OracleScore {
	oracle := c.OraclePlan(loads)
	n := len(oracle)
	if len(policyPools) < n {
		n = len(policyPools)
	}
	var s OracleScore
	var sum float64
	var cnt int
	var csum float64
	run := 0
	for i := 0; i < n; i++ {
		if oracle[i] <= 0 {
			run = 0
			continue
		}
		gap := math.Abs(float64(policyPools[i]-oracle[i])) / float64(oracle[i])
		sum += gap
		cnt++
		if i > 0 && oracle[i] == oracle[i-1] {
			run++
		} else {
			run = 1
		}
		if run >= StableRun {
			csum += gap
			s.ConvergedWindows++
		}
	}
	if cnt > 0 {
		s.MeanGapPct = 100 * sum / float64(cnt)
	}
	if s.ConvergedWindows > 0 {
		s.ConvergedGapPct = 100 * csum / float64(s.ConvergedWindows)
	}
	return s
}

// SiriusStaticCards sizes the Sirius comparator for the same trace:
// enough cards for the peak load at the target utilization, then
// doubled because every state change is replicated in-line to a
// paired secondary. This is the pool a non-elastic design holds for
// the whole day to survive the peak.
func (c OracleConfig) SiriusStaticCards(loads []float64) int {
	peak := 0.0
	for _, l := range loads {
		if l > peak {
			peak = l
		}
	}
	n := c.PoolFor(peak)
	return 2 * n
}
