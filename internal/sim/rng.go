package sim

import "math"

// RNG is a small, fast, deterministic random source (xorshift64*). Kindle
// needs reproducible runs — the same seed must produce the same trace, the
// same migrations and the same cycle counts — so we avoid math/rand's global
// state and version-dependent streams.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. A zero seed is remapped to a fixed non-zero
// constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a value in [0, n). It panics when n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf draws ranks in [0, n) following a Zipfian distribution with exponent
// theta, the access skew used by YCSB workloads. It uses the classic
// Gray et al. quick-zipf construction with precomputed constants.
type Zipf struct {
	rng   *RNG
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	rank1 float64 // 1 + 0.5^theta: draws with u*zetan below it are rank 1
}

// NewZipf builds a Zipfian sampler over [0, n) with exponent theta
// (YCSB default 0.99). Set-up sums n powers; rng may be nil for a table
// that is only sampled through WithRNG copies.
func NewZipf(rng *RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("sim: NewZipf with zero n")
	}
	z := &Zipf{rng: rng, n: n}
	z.zetan = zetaStatic(n, theta)
	zeta2 := zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.rank1 = 1.0 + pow(0.5, theta)
	return z
}

// WithRNG returns a sampler with z's distribution drawing from rng, so
// samplers over the same (n, theta) share one set-up.
func (z *Zipf) WithRNG(rng *RNG) *Zipf {
	c := *z
	c.rng = rng
	return &c
}

// Next returns the next sample in [0, n); rank 0 is the hottest item.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	return uint64(float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha))
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / pow(float64(i), theta)
	}
	return sum
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
