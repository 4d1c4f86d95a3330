package nic

import (
	"math"
	"testing"

	"nezha/internal/sim"
)

// The CPU primitive against queueing theory. Every vSwitch's latency
// and capacity figure is built on CPU's placement: each submission
// goes to the earliest-free core, which for Poisson arrivals is the
// FCFS M/G/c queue. Its mean wait has closed forms — Erlang C for
// exponential service on c cores, Pollaczek–Khinchine for deterministic
// service on one — so a seeded run must land on them. The tolerance is
// the run's own batch-means confidence interval, not a chosen
// percentage: the wait sequence is cut into queueBatches consecutive
// batches, whose means are close to independent when a batch spans
// many busy periods, and the model must fall within tQueue standard
// errors of their mean.

const (
	queueService = 10_000 // mean service time, ns (cycles at 1 GHz)
	queueWarm    = 20_000 // first arrivals dropped: the run starts empty
	queueBatches = 30
	// tQueue is Student's t at 0.995 for queueBatches-1 = 29 degrees of
	// freedom: a two-sided 99 % interval.
	tQueue = 2.756
)

// erlangC is the M/M/c mean wait: the probability of waiting, by the
// Erlang C formula at offered load a = λ/μ, over the rate c·μ − λ at
// which a waiting queue drains.
func erlangC(c int, rho, service float64) float64 {
	a := rho * float64(c)
	term, sum := 1.0, 0.0 // a^k/k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	top := term / (1 - rho) // a^c/c! · c/(c−a)
	pWait := top / (sum + top)
	return pWait * service / (float64(c) * (1 - rho))
}

// pkDeterministic is the M/D/1 mean wait by Pollaczek–Khinchine:
// λ·E[S²] / (2(1−ρ)) with E[S²] = S².
func pkDeterministic(rho, service float64) float64 {
	return rho * service / (2 * (1 - rho))
}

// queueRun feeds a fresh c-core CPU Poisson arrivals at load rho
// (exponential or fixed service of mean queueService) through
// SubmitTask, and returns the batch means of the waits of the arrivals
// after warm-up.
func queueRun(seed int64, cores int, rho float64, expService bool, arrivals int) []float64 {
	loop := sim.NewLoop(seed)
	cpu := NewCPU(loop, cores, 1_000_000_000, 1000*sim.Second) // no admission drops
	rng := loop.Rand()
	gap := queueService / (rho * float64(cores)) // mean interarrival, ns
	var at float64
	per := arrivals / queueBatches
	means := make([]float64, 0, queueBatches)
	var sum float64
	for i := 0; i < queueWarm+arrivals; i++ {
		at += rng.ExpFloat64() * gap
		loop.Run(sim.Time(at))
		cycles := uint64(queueService)
		if expService {
			cycles = uint64(math.Round(rng.ExpFloat64() * queueService))
		}
		delay, ok := cpu.SubmitTask(cycles, nopTask{})
		if !ok {
			panic("queue model: admission dropped work")
		}
		if i < queueWarm {
			continue
		}
		sum += float64(delay - cpu.ServiceTime(cycles))
		if n := i - queueWarm + 1; n%per == 0 {
			means = append(means, sum/float64(per))
			sum = 0
		}
	}
	return means
}

// meanCI returns the mean of the batch means and the half-width of its
// tQueue confidence interval.
func meanCI(means []float64) (mean, half float64) {
	for _, m := range means {
		mean += m
	}
	mean /= float64(len(means))
	var ss float64
	for _, m := range means {
		ss += (m - mean) * (m - mean)
	}
	sd := math.Sqrt(ss / float64(len(means)-1))
	return mean, tQueue * sd / math.Sqrt(float64(len(means)))
}

type nopTask struct{}

func (nopTask) Run() {}

// TestCPUMatchesQueueTheory checks the mean wait of M/M/c at c = 1, 2
// and 8 and of M/D/1, each at ρ = 0.7 and 0.9, against the closed form.
// Near saturation the waits are long-correlated, so ρ = 0.9 runs three
// times the arrivals. A half-width over a fifth of the model would make
// the check say little, so that fails too: the interval must be tight
// enough to tell a wrong queue (latest-free placement, a core lost,
// service charged twice) from the right one.
func TestCPUMatchesQueueTheory(t *testing.T) {
	type tc struct {
		name  string
		cores int
		exp   bool
		model func(rho float64) float64
	}
	mmc := func(c int) func(float64) float64 {
		return func(rho float64) float64 { return erlangC(c, rho, queueService) }
	}
	cases := []tc{
		{"M/M/1", 1, true, mmc(1)},
		{"M/M/2", 2, true, mmc(2)},
		{"M/M/8", 8, true, mmc(8)},
		{"M/D/1", 1, false, func(rho float64) float64 { return pkDeterministic(rho, queueService) }},
	}
	for i, c := range cases {
		for j, load := range []struct {
			rho      float64
			arrivals int
		}{{0.7, 200_000}, {0.9, 600_000}} {
			rho := load.rho
			means := queueRun(int64(1+2*i+j), c.cores, rho, c.exp, load.arrivals)
			got, half := meanCI(means)
			want := c.model(rho)
			t.Logf("%s ρ=%.1f: mean wait %.0f ns ± %.0f (99%%), model %.0f ns", c.name, rho, got, half, want)
			if math.Abs(got-want) > half {
				t.Errorf("%s at ρ=%.1f: mean wait %.0f ns, model %.0f ns, outside the run's 99%% interval ±%.0f",
					c.name, rho, got, want, half)
			}
			if half > want/5 {
				t.Errorf("%s at ρ=%.1f: interval ±%.0f ns is over a fifth of the model's %.0f ns; the run is too short to check anything",
					c.name, rho, half, want)
			}
		}
	}
}
