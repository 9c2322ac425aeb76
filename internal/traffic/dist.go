package traffic

import (
	"math"

	"kindle/internal/sim"
)

// keyStride is the byte distance between adjacent keys: one cache line, so
// distinct keys are distinct lines and the Zipfian hot set concentrates at
// the front of the tenant's area.
const keyStride = 64

// deriveSeed gives tenant i an RNG stream independent of every other
// tenant's and of the root seed's raw value (splitmix64 finalizer over a
// golden-ratio stride). Adding a tenant therefore never perturbs the
// streams of existing ones.
func deriveSeed(seed uint64, i int) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// arrivalSampler draws inter-arrival (open loop) or think-time (closed
// loop) gaps in cycles.
type arrivalSampler struct {
	kind ArrivalKind
	mean float64 // cycles between arrivals
	rng  *sim.RNG
}

func newArrivalSampler(spec Spec, rng *sim.RNG) arrivalSampler {
	// Rate is ops per simulated second; the virtual clock runs at
	// sim.CyclesPerNano GHz.
	return arrivalSampler{
		kind: spec.Arrival,
		mean: float64(sim.FromNanos(1e9)) / spec.Rate,
		rng:  rng,
	}
}

// next returns the gap to the next arrival, at least one cycle.
func (a arrivalSampler) next() sim.Cycles {
	gap := a.mean
	if a.kind == ArrivalPoisson {
		// Exponential gaps via inverse transform; Float64 is in [0, 1) so
		// the log argument stays positive.
		gap = -math.Log(1-a.rng.Float64()) * a.mean
	}
	if gap < 1 {
		gap = 1
	}
	return sim.Cycles(gap)
}

// keySampler draws line-aligned byte offsets into the tenant's area.
type keySampler struct {
	zipf *sim.Zipf
	rng  *sim.RNG
	keys uint64
}

// keyCount is the number of keys in a tenant's area.
func keyCount(spec Spec) uint64 {
	if keys := spec.Footprint / keyStride; keys > 0 {
		return keys
	}
	return 1
}

// newKeySampler builds a tenant's key sampler; zipf is the engine's shared
// table for Zipfian specs (nil for uniform keys).
func newKeySampler(spec Spec, zipf *sim.Zipf, rng *sim.RNG) keySampler {
	ks := keySampler{rng: rng, keys: keyCount(spec)}
	if zipf != nil {
		ks.zipf = zipf.WithRNG(rng)
	}
	return ks
}

func (k keySampler) next() uint64 {
	var rank uint64
	if k.zipf != nil {
		rank = k.zipf.Next()
	} else {
		rank = k.rng.Uint64n(k.keys)
	}
	if rank >= k.keys { // quick-zipf can round to n at the tail
		rank = k.keys - 1
	}
	return rank * keyStride
}

// sizeSampler draws per-op byte sizes.
type sizeSampler struct {
	kind   SizeDistKind
	lo, hi uint64
	rng    *sim.RNG
}

func newSizeSampler(spec Spec, rng *sim.RNG) sizeSampler {
	return sizeSampler{kind: spec.Sizes, lo: spec.SizeLo, hi: spec.SizeHi, rng: rng}
}

func (s sizeSampler) next() uint64 {
	if s.kind == SizesFixed || s.hi <= s.lo {
		return s.lo
	}
	return s.lo + s.rng.Uint64n(s.hi-s.lo+1)
}

// mixPicker draws operation kinds from the normalized mix CDF.
type mixPicker struct {
	cdf [numOpKinds]float64
	rng *sim.RNG
}

func newMixPicker(mix [3]float64, rng *sim.RNG) mixPicker {
	p := mixPicker{rng: rng}
	total := mix[OpPoint] + mix[OpScan] + mix[OpWrite]
	var cum float64
	for i, w := range mix {
		cum += w / total
		p.cdf[i] = cum
	}
	p.cdf[numOpKinds-1] = 1 // absorb rounding
	return p
}

func (p mixPicker) next() OpKind {
	u := p.rng.Float64()
	for i, c := range p.cdf {
		if u < c {
			return OpKind(i)
		}
	}
	return numOpKinds - 1
}

// nvmTenant reports whether tenant i is NVM-backed: the fraction is spread
// evenly across tenant ids (every tenant for frac=1, every other for 0.5,
// none for 0) so the NVM population is stable as the tenant count sweeps.
func nvmTenant(i int, frac float64) bool {
	return uint64(float64(i+1)*frac) > uint64(float64(i)*frac)
}
