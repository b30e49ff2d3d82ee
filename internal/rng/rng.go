// Package rng is the simulator's random source: complex AWGN, random
// phases, and an Ornstein-Uhlenbeck drift process used to model channel
// coherence time. Every consumer takes an explicit *Source so experiments
// are reproducible from a single seed.
//
// A Source reproduces math/rand's stream rather than wrapping it: New(s)
// returns, call for call and bit for bit, the values
// rand.New(rand.NewSource(s)) returns from the corresponding methods
// (Float64, Intn, NormFloat64, Int63 for Fork). It holds the additive
// lagged-Fibonacci state itself, so a draw is an array read rather than
// an interface call, and AddAWGN — the simulator's hottest consumer, two
// normals per noise sample — runs the ziggurat fast path inline.
package rng

import (
	"math"
	"math/rand"
	"sync"
)

// math/rand's generator: x[n] = x[n-rngLen] + x[n-rngTap] mod 2^64.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// Source is a deterministic random source for simulation.
//
// q is math/rand's lagged-Fibonacci register laid out in draw order, so
// it doubles as a lookahead queue: q[pos:] are the next raw draws, and
// once all rngLen are consumed one in-order pass over q (refill) advances
// the register by a whole block, leaving the next rngLen draws in q.
type Source struct {
	q   [rngLen]uint64
	pos int
}

var (
	// seeders holds reusable stdlib sources: seeding keeps math/rand's
	// own Seed, whose first rngLen draws are exactly the register a
	// freshly seeded stdlib source holds after drawing them.
	seeders = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}
	// released holds Sources handed back by Release for Fork to reseed.
	released sync.Pool
)

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.seed(seed)
	return s
}

// seed sets s to the state rand.NewSource(seed) starts in: the first
// rngLen draws fill the queue, and the stdlib register after them —
// draw k lands where the stdlib writes it — is the one refill advances.
func (s *Source) seed(seed int64) {
	src := seeders.Get().(rand.Source64)
	src.Seed(seed)
	for k := range s.q {
		s.q[k] = src.Uint64()
	}
	seeders.Put(src)
	s.pos = 0
}

// refill advances the register by rngLen draws. Draw k of the block is
// q[k] + q[k-rngTap]: for k < rngTap that term is still last block's
// entry q[k+rngLen-rngTap]; from rngTap on it is this block's, already
// updated.
func (s *Source) refill() {
	q := &s.q
	for k := 0; k < rngTap; k++ {
		q[k] += q[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		q[k] += q[k-rngTap]
	}
	s.pos = 0
}

// int63 is math/rand's Int63: the next draw without its top bit.
func (s *Source) int63() int64 {
	if s.pos == rngLen {
		s.refill()
	}
	v := s.q[s.pos]
	s.pos++
	return int64(v & rngMask)
}

// Fork returns an independent Source derived from this one, so that
// subsystems (noise per antenna, drift per path) consume disjoint streams
// without coupling their sample counts. The fork's stream is
// New(seed) for the next Int63 of s; its state is a Released Source
// reseeded in place when one is pooled.
func (s *Source) Fork() *Source {
	f, _ := released.Get().(*Source)
	if f == nil {
		f = new(Source)
	}
	f.seed(s.int63())
	return f
}

// Release hands s back for a later Fork to reuse. The caller must not
// use s afterwards.
func (s *Source) Release() { released.Put(s) }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	for {
		// float64(Int63)/2^63 can round up to 1; math/rand draws again.
		if f := float64(s.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a uniform integer in [0, n); it panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn of non-positive n")
	}
	if n <= math.MaxInt32 {
		n32 := int32(n)
		if n32&(n32-1) == 0 {
			return int(int32(s.int63()>>32) & (n32 - 1))
		}
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n32))
		v := int32(s.int63() >> 32)
		for v > max {
			v = int32(s.int63() >> 32)
		}
		return int(v % n32)
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(s.int63() & (n64 - 1))
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n64))
	v := s.int63()
	for v > max {
		v = s.int63()
	}
	return int(v % n64)
}

// Normals fills v with standard normal draws, in stream order: each is
// math/rand's NormFloat64. The ziggurat fast path — a draw inside its
// strip's rectangle, about 97% of draws — runs inline on a local copy of
// the queue position.
func (s *Source) Normals(v []float64) {
	q, pos := &s.q, s.pos
	for n := range v {
		if uint(pos) >= rngLen {
			s.refill()
			pos = 0
		}
		j := int32(q[pos] >> 31) // math/rand's int32(Uint32()): bits 31..62
		pos++
		i := j & 0x7f
		v[n] = float64(j) * float64(wn[i])
		if absInt32(j) >= kn[i] {
			s.pos = pos
			v[n] = s.normSlow(j, v[n])
			pos = s.pos
		}
	}
	s.pos = pos
}

// norm returns one standard normal draw.
func (s *Source) norm() float64 {
	var v [1]float64
	s.Normals(v[:])
	return v[0]
}

// normSlow finishes a NormFloat64 call whose first draw j (with
// x = j*wn[j&0x7f]) fell outside its strip's rectangle: the wedge or
// tail test for j, then whole further draws, exactly as math/rand.
func (s *Source) normSlow(j int32, x float64) float64 {
	for {
		i := j & 0x7f
		if i == 0 {
			// The base strip's tail beyond rn.
			for {
				x = -math.Log(s.Float64()) * (1.0 / rn)
				y := -math.Log(s.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(s.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(s.int63() >> 31)
		i = j & 0x7f
		x = float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
	}
}

// absInt32 is |j| without a branch (math.MinInt32 maps to 1<<31, as in
// math/rand).
func absInt32(j int32) uint32 {
	m := j >> 31
	return uint32((j ^ m) - m)
}

// Normal returns a Gaussian sample with the given mean and stddev.
func (s *Source) Normal(mean, std float64) float64 { return mean + std*s.norm() }

// Phase returns a uniform phase in [0, 2 pi).
func (s *Source) Phase() float64 { return 2 * math.Pi * s.Float64() }

// ComplexGaussian returns a circularly-symmetric complex Gaussian sample
// with total variance sigma2 (variance sigma2/2 per real dimension) — the
// standard AWGN model.
func (s *Source) ComplexGaussian(sigma2 float64) complex128 {
	std := math.Sqrt(sigma2 / 2)
	re := s.norm()
	return complex(std*re, std*s.norm())
}

// AWGN fills a fresh slice of n complex noise samples of total variance
// sigma2 each.
func (s *Source) AWGN(n int, sigma2 float64) []complex128 {
	out := make([]complex128, n)
	std := math.Sqrt(sigma2 / 2)
	for i := range out {
		re := s.norm()
		out[i] = complex(std*re, std*s.norm())
	}
	return out
}

// AddAWGN adds complex Gaussian noise of per-sample variance sigma2 to x in
// place.
func (s *Source) AddAWGN(x []complex128, sigma2 float64) {
	std := math.Sqrt(sigma2 / 2)
	var buf [2 * awgnChunk]float64
	for len(x) > 0 {
		c := x[:min(len(x), awgnChunk)]
		x = x[len(c):]
		v := buf[:2*len(c)]
		s.Normals(v) // real, imaginary, real, ...
		for i := range c {
			c[i] += complex(std*v[2*i], std*v[2*i+1])
		}
	}
}

// awgnChunk is how many complex samples AddAWGN draws the normals of at
// a time, into a stack buffer that stays in L1.
const awgnChunk = 256

// OU is a discrete Ornstein-Uhlenbeck process: a mean-reverting random walk
// with stationary standard deviation Sigma and correlation time Tau. The
// channel simulator uses one OU process per reflector degree of freedom so
// that reflection-path gains decorrelate over the configured coherence
// time while remaining stationary — exactly the behaviour Figure 6 probes.
type OU struct {
	Mean  float64 // long-run mean
	Sigma float64 // stationary standard deviation
	Tau   float64 // correlation time, seconds
	x     float64 // current deviation from mean
	src   *Source
}

// NewOU returns an OU process started at its stationary distribution.
func NewOU(src *Source, mean, sigma, tau float64) *OU {
	return &OU{Mean: mean, Sigma: sigma, Tau: tau, x: src.Normal(0, sigma), src: src}
}

// Value returns the current process value.
func (o *OU) Value() float64 { return o.Mean + o.x }

// Advance steps the process forward by dt seconds and returns the new
// value. The exact discretisation x' = a x + sqrt(1-a^2) sigma W with
// a = exp(-dt/tau) keeps the process stationary for any step size, so the
// simulator can jump straight from t=0 to t=1 day (Figure 6's log-spaced
// offsets) without accumulating integration error.
func (o *OU) Advance(dt float64) float64 {
	if dt < 0 {
		dt = 0
	}
	a := math.Exp(-dt / o.Tau)
	o.x = a*o.x + math.Sqrt(1-a*a)*o.src.Normal(0, o.Sigma)
	return o.Value()
}
