package sim

import "math"

// Rand is a small, fast, deterministic random source (splitmix64 +
// xoshiro256**). It exists so simulation results do not depend on the
// Go runtime's global random state or on math/rand version changes.
type Rand struct {
	s [4]uint64
}

// NewRand returns a source seeded from seed via splitmix64.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	x := uint64(seed)
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative random int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float with mean 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a normally distributed float (mean 0, stddev 1)
// using the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 0 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Pareto returns a Pareto-distributed sample with the given minimum
// value and shape alpha. Heavy-tailed workload sizes and utilization
// skews in the synthetic region use this.
func (r *Rand) Pareto(xmin, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xmin / math.Pow(u, 1/alpha)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Zipfian is a cached Zipf sampler.
type Zipfian struct {
	rng *Rand
	cdf []float64
}

// NewZipf builds a sampler over ranks [0, n) with exponent s.
func NewZipf(rng *Rand, n int, s float64) *Zipfian {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipfian{rng: rng, cdf: cdf}
}

// Next draws a rank; rank 0 is the most popular.
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Shuffle permutes the first n indices using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
