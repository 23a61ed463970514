// Package rng provides a small, fully deterministic pseudo-random number
// generator used by every stochastic component in the repository (data
// synthesis, weight initialisation, attack random starts, measurement noise,
// GMM restarts, experiment resampling).
//
// The generator is xoshiro256**, seeded through SplitMix64 so that any uint64
// seed — including 0 — yields a well-mixed state. Unlike math/rand, the
// sequence produced here is under our control and therefore stable across Go
// releases, which keeps every experiment in EXPERIMENTS.md bit-reproducible.
package rng

import "math"

// Rand is a deterministic source of pseudo-random values. It is NOT safe for
// concurrent use; derive independent streams with Split instead of sharing.
type Rand struct {
	s [4]uint64
	// cached second normal variate from the Box-Muller transform
	hasGauss bool
	gauss    float64
}

// splitmix64 advances *x and returns the next SplitMix64 output. It is used
// only for seeding and stream splitting.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds give
// independent-looking streams; equal seeds give identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// Reseed reinitialises r in place from the given seed, exactly as if it had
// been freshly created with New(seed). It lets long-lived components reuse a
// single generator value across deterministic restarts without allocating.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	r.hasGauss = false
	r.gauss = 0
}

// Split derives a new independent generator from r, keyed by label. Splitting
// with distinct labels yields decorrelated streams, so components can be
// seeded hierarchically (e.g. per-image noise streams) without coordination.
// Split advances r; use Fork when the receiver must stay untouched.
func (r *Rand) Split(label uint64) *Rand {
	seed := r.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	return New(seed)
}

// Fork derives a new independent generator keyed by label WITHOUT advancing
// the receiver: the result is a pure function of (r's current state, label).
// Distinct labels give decorrelated streams, so concurrent workers can each
// fork the same base generator by item index and produce output that does not
// depend on scheduling order.
func (r *Rand) Fork(label uint64) *Rand {
	tmp := *r // copy the state so the receiver is left untouched
	tmp.hasGauss = false
	return tmp.Split(label)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style rejection-free bound is overkill here; modulo bias is
	// negligible for the n used in this repo (n << 2^32), but we still use
	// the high bits for quality.
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *Rand) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices in place using the provided swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// FillNormal fills dst with independent Normal(mean, std) variates.
func (r *Rand) FillNormal(dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = r.Normal(mean, std)
	}
}

// FillUniform fills dst with independent uniform variates in [lo, hi).
func (r *Rand) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = lo + (hi-lo)*r.Float64()
	}
}

// Choice returns a random index in [0, len(weights)) drawn proportionally to
// the non-negative weights. If all weights are zero it returns a uniform
// index.
func (r *Rand) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}
