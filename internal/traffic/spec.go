// Package traffic is Kindle's deterministic multi-tenant synthetic-load
// engine: it spawns a fleet of gemOS processes ("tenants") and drives them
// through the kernel's round-robin scheduler under a configurable synthetic
// workload — open- or closed-loop arrival processes (Poisson or fixed
// rate), Zipfian or uniform key distributions over per-tenant address
// spaces, fixed or uniform per-op sizes and a point/scan/write operation
// mix. All tenants contend for the one simulated machine: shared DRAM/NVM
// frame pools, the NVM write buffers, cache and TLB capacity, and (when
// persistence is attached) checkpoint bandwidth.
//
// Determinism is the contract: the same Spec and seed produce byte-
// identical stats dumps run after run. Every random draw comes from seeded
// sim.RNG streams (one per tenant), every scheduling decision depends only
// on the virtual clock, and all iteration is in tenant-index order.
package traffic

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// OpKind is a synthetic operation class.
type OpKind uint8

// Operation classes of the workload mix.
const (
	// OpPoint reads 8 bytes at the keyed offset (a point lookup).
	OpPoint OpKind = iota
	// OpScan reads size bytes sequentially from the keyed offset, wrapping
	// at the end of the tenant's area (a range scan).
	OpScan
	// OpWrite writes 8 bytes at the keyed offset (an update).
	OpWrite

	numOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpPoint:
		return "point"
	case OpScan:
		return "scan"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// ArrivalKind selects the arrival (or think-time) process.
type ArrivalKind uint8

// Arrival processes.
const (
	// ArrivalPoisson draws exponential inter-arrival gaps with mean 1/Rate.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalFixed spaces arrivals exactly 1/Rate apart.
	ArrivalFixed
)

func (a ArrivalKind) String() string {
	if a == ArrivalFixed {
		return "fixed"
	}
	return "poisson"
}

// LoopKind selects open- vs closed-loop load generation.
type LoopKind uint8

// Load-generation loops.
const (
	// LoopOpen issues arrivals on schedule regardless of completions:
	// backlog builds when the machine cannot keep up (the tail-latency
	// regime of interest).
	LoopOpen LoopKind = iota
	// LoopClosed keeps at most one outstanding op per tenant; the arrival
	// process supplies the think time between completion and next issue.
	LoopClosed
)

func (l LoopKind) String() string {
	if l == LoopClosed {
		return "closed"
	}
	return "open"
}

// KeyDist selects the key (offset) distribution.
type KeyDist uint8

// Key distributions.
const (
	// KeysZipf draws keys Zipfian with exponent Theta (rank 0 hottest).
	KeysZipf KeyDist = iota
	// KeysUniform draws keys uniformly.
	KeysUniform
)

func (k KeyDist) String() string {
	if k == KeysUniform {
		return "uniform"
	}
	return "zipf"
}

// SizeDistKind selects the per-op size distribution.
type SizeDistKind uint8

// Size distributions.
const (
	// SizesFixed uses SizeLo bytes for every op.
	SizesFixed SizeDistKind = iota
	// SizesUniform draws sizes uniformly in [SizeLo, SizeHi].
	SizesUniform
)

func (s SizeDistKind) String() string {
	if s == SizesUniform {
		return "uniform"
	}
	return "fixed"
}

// Spec describes one multi-tenant traffic run. The zero value is not
// usable; start from DefaultSpec or ParseSpec.
type Spec struct {
	// Tenants is the number of concurrent gemOS processes.
	Tenants int
	// Seed roots every per-tenant RNG stream (same seed ⇒ same run).
	Seed uint64
	// Ops is the per-tenant operation budget.
	Ops int

	Arrival ArrivalKind
	Loop    LoopKind
	// Rate is the per-tenant mean arrival (open loop) or think (closed
	// loop) rate in operations per simulated second.
	Rate float64

	// Mix weights the operation classes; weights need not sum to 1.
	Mix [3]float64

	Keys KeyDist
	// Theta is the Zipfian exponent (YCSB default 0.99); ignored for
	// uniform keys.
	Theta float64

	Sizes SizeDistKind
	// SizeLo and SizeHi bound the per-op byte size (SizeHi ignored for
	// fixed sizes). Scans touch this many bytes; point/write ops clamp to
	// 8 bytes.
	SizeLo, SizeHi uint64

	// Footprint is the per-tenant address-space size in bytes (page
	// aligned up).
	Footprint uint64
	// NVMFraction is the fraction of tenants whose area is NVM-backed
	// (spread evenly across tenant ids).
	NVMFraction float64

	// Quantum is the scheduler time slice; preemption is cooperative at
	// op boundaries, so a long scan overruns its slice and is rotated out
	// at the next boundary.
	Quantum time.Duration
	// IdleTick is the cycle-group grain while the engine idles between
	// arrivals: due timers fire on boundaries IdleTick apart, and the clock
	// jumps straight between boundaries that have due events.
	IdleTick time.Duration
}

// DefaultSpec returns a small mixed workload: 4 tenants, open-loop Poisson
// arrivals, the ISSUE's scan/point/write mix, Zipfian keys.
func DefaultSpec() Spec {
	return Spec{
		Tenants:     4,
		Seed:        1,
		Ops:         256,
		Arrival:     ArrivalPoisson,
		Loop:        LoopOpen,
		Rate:        200_000,
		Mix:         [3]float64{OpPoint: 0.7, OpScan: 0.2, OpWrite: 0.1},
		Keys:        KeysZipf,
		Theta:       0.99,
		Sizes:       SizesFixed,
		SizeLo:      256,
		SizeHi:      256,
		Footprint:   256 << 10,
		NVMFraction: 0.5,
		Quantum:     time.Millisecond,
		IdleTick:    time.Microsecond,
	}
}

// ParseSpec builds a Spec from a compact flag string: semicolon-separated
// key=value fields over DefaultSpec, e.g.
//
//	mix=scan:0.2,point:0.7,write:0.1;arrival=poisson;loop=open;rate=200000;
//	keys=zipf:0.99;sizes=uniform:64-1024;ops=2000;footprint=1MiB;nvm=0.5;
//	tenants=32;seed=7;quantum=1ms;idle-tick=1us
//
// A bare mix ("scan:0.2,point:0.7,write:0.1") is accepted as shorthand for
// mix=... so the most common sweep reads naturally on the command line.
func ParseSpec(s string) (Spec, error) {
	spec := DefaultSpec()
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	if !strings.Contains(s, "=") && strings.Contains(s, ":") {
		s = "mix=" + s
	}
	for _, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("traffic: spec field %q is not key=value", field)
		}
		if err := spec.apply(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
			return spec, err
		}
	}
	return spec, spec.Validate()
}

func (s *Spec) apply(key, val string) error {
	switch key {
	case "tenants":
		return parseInt(val, &s.Tenants)
	case "seed":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("traffic: seed %q: %w", val, err)
		}
		s.Seed = v
	case "ops":
		return parseInt(val, &s.Ops)
	case "arrival":
		switch val {
		case "poisson":
			s.Arrival = ArrivalPoisson
		case "fixed":
			s.Arrival = ArrivalFixed
		default:
			return fmt.Errorf("traffic: unknown arrival process %q (poisson|fixed)", val)
		}
	case "loop":
		switch val {
		case "open":
			s.Loop = LoopOpen
		case "closed":
			s.Loop = LoopClosed
		default:
			return fmt.Errorf("traffic: unknown loop mode %q (open|closed)", val)
		}
	case "rate":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("traffic: rate %q must be a positive ops/sec", val)
		}
		s.Rate = v
	case "mix":
		mix, err := parseMix(val)
		if err != nil {
			return err
		}
		s.Mix = mix
	case "keys":
		dist, arg, _ := strings.Cut(val, ":")
		switch dist {
		case "zipf":
			s.Keys = KeysZipf
			if arg != "" {
				th, err := strconv.ParseFloat(arg, 64)
				if err != nil {
					return fmt.Errorf("traffic: zipf theta %q: %w", arg, err)
				}
				s.Theta = th
			}
		case "uniform":
			s.Keys = KeysUniform
		default:
			return fmt.Errorf("traffic: unknown key distribution %q (zipf[:theta]|uniform)", val)
		}
	case "sizes":
		dist, arg, _ := strings.Cut(val, ":")
		switch dist {
		case "fixed":
			n, err := parseBytes(arg)
			if err != nil {
				return fmt.Errorf("traffic: fixed size %q: %w", arg, err)
			}
			s.Sizes, s.SizeLo, s.SizeHi = SizesFixed, n, n
		case "uniform":
			lo, hi, ok := strings.Cut(arg, "-")
			if !ok {
				return fmt.Errorf("traffic: uniform sizes want lo-hi, got %q", arg)
			}
			l, err := parseBytes(lo)
			if err != nil {
				return fmt.Errorf("traffic: size bound %q: %w", lo, err)
			}
			h, err := parseBytes(hi)
			if err != nil {
				return fmt.Errorf("traffic: size bound %q: %w", hi, err)
			}
			s.Sizes, s.SizeLo, s.SizeHi = SizesUniform, l, h
		default:
			return fmt.Errorf("traffic: unknown size distribution %q (fixed:N|uniform:LO-HI)", val)
		}
	case "footprint":
		n, err := parseBytes(val)
		if err != nil {
			return fmt.Errorf("traffic: footprint %q: %w", val, err)
		}
		s.Footprint = n
	case "nvm":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("traffic: nvm fraction %q: %w", val, err)
		}
		s.NVMFraction = v
	case "quantum":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("traffic: quantum %q: %w", val, err)
		}
		s.Quantum = d
	case "idle-tick":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("traffic: idle-tick %q: %w", val, err)
		}
		s.IdleTick = d
	default:
		return fmt.Errorf("traffic: unknown spec field %q", key)
	}
	return nil
}

func parseInt(val string, dst *int) error {
	v, err := strconv.Atoi(val)
	if err != nil || v < 0 {
		return fmt.Errorf("traffic: %q must be a non-negative integer", val)
	}
	*dst = v
	return nil
}

// parseMix parses "scan:0.2,point:0.7,write:0.1" (any subset; omitted
// kinds weigh 0).
func parseMix(val string) ([3]float64, error) {
	var mix [3]float64
	for _, part := range strings.Split(val, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, ":")
		if !ok {
			return mix, fmt.Errorf("traffic: mix term %q is not kind:weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(wstr), 64)
		if err != nil || w < 0 {
			return mix, fmt.Errorf("traffic: mix weight %q must be a non-negative number", wstr)
		}
		switch strings.TrimSpace(name) {
		case "point":
			mix[OpPoint] = w
		case "scan":
			mix[OpScan] = w
		case "write":
			mix[OpWrite] = w
		default:
			return mix, fmt.Errorf("traffic: unknown mix kind %q (point|scan|write)", name)
		}
	}
	if mix[OpPoint]+mix[OpScan]+mix[OpWrite] <= 0 {
		return mix, fmt.Errorf("traffic: mix %q has no positive weight", val)
	}
	return mix, nil
}

// parseBytes parses a byte size with an optional KiB/MiB/GiB (or K/M/G)
// suffix.
func parseBytes(val string) (uint64, error) {
	mult := uint64(1)
	v := val
	for _, suf := range []struct {
		s string
		m uint64
	}{
		{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10},
	} {
		if strings.HasSuffix(v, suf.s) {
			mult = suf.m
			v = strings.TrimSuffix(v, suf.s)
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// Validate checks the spec's invariants.
func (s Spec) Validate() error {
	switch {
	case s.Tenants < 1:
		return fmt.Errorf("traffic: %d tenants; need at least 1", s.Tenants)
	case s.Ops < 0:
		return fmt.Errorf("traffic: negative op budget %d", s.Ops)
	case s.Rate <= 0:
		return fmt.Errorf("traffic: rate %v must be positive", s.Rate)
	case s.Mix[OpPoint] < 0 || s.Mix[OpScan] < 0 || s.Mix[OpWrite] < 0:
		return fmt.Errorf("traffic: negative mix weight")
	case s.Mix[OpPoint]+s.Mix[OpScan]+s.Mix[OpWrite] <= 0:
		return fmt.Errorf("traffic: mix has no positive weight")
	case s.Keys == KeysZipf && (s.Theta <= 0 || s.Theta >= 1):
		return fmt.Errorf("traffic: zipf theta %v must be in (0, 1)", s.Theta)
	case s.SizeLo < 1 || s.SizeHi < s.SizeLo:
		return fmt.Errorf("traffic: size range [%d, %d] invalid", s.SizeLo, s.SizeHi)
	case s.Footprint < 64:
		return fmt.Errorf("traffic: footprint %d below one key stride (64 B)", s.Footprint)
	case s.NVMFraction < 0 || s.NVMFraction > 1:
		return fmt.Errorf("traffic: nvm fraction %v must be in [0, 1]", s.NVMFraction)
	case s.Quantum <= 0:
		return fmt.Errorf("traffic: quantum %v must be positive", s.Quantum)
	case s.IdleTick <= 0:
		return fmt.Errorf("traffic: idle-tick %v must be positive", s.IdleTick)
	}
	return nil
}

// String renders the spec in ParseSpec's format (canonical field order).
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenants=%d;seed=%d;ops=%d;arrival=%s;loop=%s;rate=%g",
		s.Tenants, s.Seed, s.Ops, s.Arrival, s.Loop, s.Rate)
	fmt.Fprintf(&b, ";mix=point:%g,scan:%g,write:%g", s.Mix[OpPoint], s.Mix[OpScan], s.Mix[OpWrite])
	if s.Keys == KeysZipf {
		fmt.Fprintf(&b, ";keys=zipf:%g", s.Theta)
	} else {
		b.WriteString(";keys=uniform")
	}
	if s.Sizes == SizesFixed {
		fmt.Fprintf(&b, ";sizes=fixed:%d", s.SizeLo)
	} else {
		fmt.Fprintf(&b, ";sizes=uniform:%d-%d", s.SizeLo, s.SizeHi)
	}
	fmt.Fprintf(&b, ";footprint=%d;nvm=%g;quantum=%s;idle-tick=%s",
		s.Footprint, s.NVMFraction, s.Quantum, s.IdleTick)
	return b.String()
}
