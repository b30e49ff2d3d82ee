package rng

import (
	"math"
	"math/rand"
	"testing"
)

// countingSource is a stdlib source that remembers the draws of the
// current reference call, so the test can tell which ziggurat path each
// NormFloat64 took.
type countingSource struct {
	rand.Source64
	draws int
	first int64
}

func (c *countingSource) Int63() int64 {
	v := c.Source64.Int63()
	if c.draws == 0 {
		c.first = v
	}
	c.draws++
	return v
}

// reference drives math/rand the way each Source method is specified to,
// and counts the normals it draws and the ziggurat paths they take.
type reference struct {
	src     *countingSource
	r       *rand.Rand
	normals int
	wedge   [128]bool // a normal whose first draw fell in strip i missed its rectangle
}

func newReference(seed int64) *reference {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return &reference{src: src, r: rand.New(src)}
}

func (ref *reference) norm() float64 {
	ref.src.draws = 0
	v := ref.r.NormFloat64()
	ref.normals++
	if ref.src.draws > 1 {
		ref.wedge[int32(ref.src.first>>31)&0x7f] = true
	}
	return v
}

// TestStreamMatchesMathRand runs every Source method, Fork and OU,
// interleaved, against math/rand.New(rand.NewSource(seed)) and requires
// bit-identical results. Over a million normals per seed reach every
// ziggurat strip's wedge test and the tail beyond rn, and cross
// thousands of block refills.
func TestStreamMatchesMathRand(t *testing.T) {
	var wedge [128]bool
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, 1 << 40} {
		s, ref := New(seed), newReference(seed)
		fail := func(op string, step int, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Helper()
				t.Fatalf("seed %d step %d %s: got %v (%#x), math/rand %v (%#x)",
					seed, step, op, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		cfail := func(op string, step int, got, want complex128) {
			fail(op+" re", step, real(got), real(want))
			fail(op+" im", step, imag(got), imag(want))
		}
		ou := NewOU(s, 3, 2, 10)
		refOU := 0 + 2*ref.norm()
		fail("NewOU", -1, ou.Value(), 3+refOU)
		for step := 0; ref.normals < 1_000_000; step++ {
			switch step % 9 {
			case 0:
				fail("Float64", step, s.Float64(), ref.r.Float64())
			case 1:
				for _, n := range []int{1, 7, 64, 1000, 1<<31 - 1, 1 << 40, 1<<40 + 3} {
					if got, want := s.Intn(n), ref.r.Intn(n); got != want {
						t.Fatalf("seed %d step %d Intn(%d) = %d, math/rand %d", seed, step, n, got, want)
					}
				}
			case 2:
				fail("Normal", step, s.Normal(-1, 0.5), -1+0.5*ref.norm())
			case 3:
				fail("Phase", step, s.Phase(), 2*math.Pi*ref.r.Float64())
			case 4:
				std := math.Sqrt(2.5 / 2)
				re := ref.norm()
				cfail("ComplexGaussian", step, s.ComplexGaussian(2.5), complex(std*re, std*ref.norm()))
			case 5:
				got := s.AWGN(37, 0.25)
				std := math.Sqrt(0.25 / 2)
				for i := range got {
					re := ref.norm()
					cfail("AWGN", step, got[i], complex(std*re, std*ref.norm()))
				}
			case 6:
				got, want := make([]complex128, 1480), make([]complex128, 1480)
				for i := range got {
					got[i] = complex(float64(i), -float64(i))
					want[i] = got[i]
				}
				s.AddAWGN(got, 4e-9)
				std := math.Sqrt(4e-9 / 2)
				for i := range want {
					re := ref.norm()
					want[i] += complex(std*re, std*ref.norm())
					cfail("AddAWGN", step, got[i], want[i])
				}
			case 7:
				a := math.Exp(-5.0 / 10)
				refOU = a*refOU + math.Sqrt(1-a*a)*(0+2*ref.norm())
				fail("OU.Advance", step, ou.Advance(5), 3+refOU)
			case 8:
				f := s.Fork()
				child := newReference(ref.r.Int63())
				got := make([]complex128, 64)
				f.AddAWGN(got, 1)
				std := math.Sqrt(0.5)
				for i := range got {
					re := child.norm()
					cfail("Fork AddAWGN", step, got[i], complex(std*re, std*child.norm()))
				}
				fail("Fork Float64", step, f.Float64(), child.r.Float64())
				f.Release() // the next Fork reseeds this state in place
			}
		}
		for i, w := range ref.wedge {
			wedge[i] = wedge[i] || w
		}
	}
	for i, w := range wedge {
		if !w {
			t.Errorf("no normal took strip %d's slow path: the test does not pin it", i)
		}
	}
}

// BenchmarkAddAWGN8x1480 prices one phy_fleet-sized capture's noise: 8
// antennas of 1480 samples, two normals per sample.
func BenchmarkAddAWGN8x1480(b *testing.B) {
	s := New(1)
	x := make([][]complex128, 8)
	for a := range x {
		x[a] = make([]complex128, 1480)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, xa := range x {
			s.AddAWGN(xa, 4e-9)
		}
	}
}

// scriptSource is a math/rand source that returns fixed raw draws.
type scriptSource struct {
	draws []uint64
	next  int
}

func (s *scriptSource) Uint64() uint64 {
	v := s.draws[s.next]
	s.next++
	return v
}
func (s *scriptSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
func (s *scriptSource) Seed(int64)   {}

// TestNormalsStripBoundaries probes the ziggurat fast-path test where a
// random stream almost never lands: for every strip and both signs, the
// first draws j of that strip (j&0x7f is the strip) nearest its kn
// threshold on either side. Each must give math/rand's value after as
// many draws.
func TestNormalsStripBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := int64(0); i < 128; i++ {
		for _, sign := range []int64{1, -1} {
			// |j| ≡ sign*i (mod 128) keeps j in strip i.
			base := int64(kn[i])&^0x7f | (sign*i)&0x7f
			for _, mag := range []int64{base - 256, base - 128, base, base + 128, base + 256} {
				j := sign * mag
				if mag < 0 || j > math.MaxInt32 || j < math.MinInt32 {
					continue
				}
				script := make([]uint64, 64)
				for k := range script {
					script[k] = r.Uint64()
				}
				script[0] = uint64(uint32(int32(j)))<<31 | script[0]&(1<<31-1) | script[0]&(1<<63)
				s := new(Source)
				copy(s.q[:], script)
				ref := &scriptSource{draws: script}
				got, want := s.norm(), rand.New(ref).NormFloat64()
				if math.Float64bits(got) != math.Float64bits(want) || s.pos != ref.next {
					t.Fatalf("strip %d j=%d: norm %v after %d draws, math/rand %v after %d", i, j, got, s.pos, want, ref.next)
				}
			}
		}
	}
}
