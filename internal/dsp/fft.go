// Package dsp provides the signal-processing primitives SecureAngle's PHY
// pipeline is built on: FFTs of arbitrary length, convolution and
// correlation, frequency-domain fractional delay, window functions, and
// phase utilities. Everything is stdlib-only and allocation-conscious on
// the hot paths (the per-packet correlation pipeline).
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Power-of-two lengths use an iterative decimation-in-time
// transform that runs the stages in fused radix-4 pairs (plus one radix-2
// stage when log2 of the length is odd); other lengths fall back to
// Bluestein's algorithm. Length 0 returns an empty slice.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT returns the inverse DFT of x, scaled by 1/N so that IFFT(FFT(x))
// round-trips.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	IFFTInPlace(out)
	return out
}

// FFTInPlace computes the forward DFT of x in place. Non-power-of-two
// lengths are handled transparently (with internal allocation).
func FFTInPlace(x []complex128) { fftInPlace(x, false) }

// IFFTInPlace computes the inverse DFT of x in place, scaled by 1/N so
// that IFFTInPlace(FFTInPlace(x)) round-trips.
func IFFTInPlace(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	fftInPlace(x, true)
	scaleReal(x, 1/float64(n))
}

// scaleReal multiplies x by the real factor s: two real multiplies per
// sample where a complex factor would take four and two adds.
func scaleReal(x []complex128, s float64) {
	for i, v := range x {
		x[i] = complex(real(v)*s, imag(v)*s)
	}
}

func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		pow2(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// maxCachedFFT bounds the transform sizes whose tables are retained. The
// packet pipeline uses a handful of sizes in the low thousands; anything
// larger builds its tables per call rather than hold megabytes live.
const maxCachedFFT = 1 << 18

// maxPlanEntries bounds the number of retained per-length plans in each
// cache (power-of-two tables, Bluestein plans). A workload whose transform
// lengths vary without limit — baseband length varies per frame — would
// otherwise accumulate plans forever; on overflow the cache is dropped
// wholesale and rebuilt from the lengths still in use, like the
// channel-response cache in internal/radio.
const maxPlanEntries = 64

// planCache is a bounded per-length cache shared by both plan kinds.
type planCache struct {
	mu sync.RWMutex
	m  map[int]any
}

func (c *planCache) load(n int) (any, bool) {
	c.mu.RLock()
	v, ok := c.m[n]
	c.mu.RUnlock()
	return v, ok
}

// store inserts a plan, evicting everything first when full, and returns
// the winning entry (an earlier concurrent builder may have stored one).
func (c *planCache) store(n int, v any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[n]; ok {
		return prev
	}
	if c.m == nil || len(c.m) >= maxPlanEntries {
		c.m = make(map[int]any)
	}
	c.m[n] = v
	return v
}

// radix2Tables holds the precomputed machinery for one power-of-two size
// n: the bit-reversal permutation; the twiddle factors of every radix-2
// stage, packed stage after stage (the stage with half-size h holds
// W_2h^k for k < h and starts at h-1); and, for each fused radix-4 pair
// whose first stage has half-size h = 4^j, the factors W_4h^3k for k < h
// the pair needs beyond those two stages (starting at (h-1)/3).
type radix2Tables struct {
	rev        []int32
	fwd, inv   []complex128
	fwd3, inv3 []complex128
}

var radix2Cache planCache

// tablesFor returns the tables for power-of-two n: cached up to
// maxCachedFFT, built afresh above it.
func tablesFor(n int) *radix2Tables {
	if n > maxCachedFFT {
		return buildTables(n)
	}
	if t, ok := radix2Cache.load(n); ok {
		return t.(*radix2Tables)
	}
	return radix2Cache.store(n, buildTables(n)).(*radix2Tables)
}

func buildTables(n int) *radix2Tables {
	logN := bits.TrailingZeros(uint(n))
	t := &radix2Tables{
		rev:  make([]int32, n),
		fwd:  make([]complex128, n-1),
		inv:  make([]complex128, n-1),
		fwd3: make([]complex128, n/3),
		inv3: make([]complex128, n/3),
	}
	for i := 0; i < n; i++ {
		t.rev[i] = int32(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	for half := 1; half < n; half <<= 1 {
		base := half - 1
		for k := 0; k < half; k++ {
			ang := math.Pi * float64(k) / float64(half)
			t.fwd[base+k] = cmplx.Rect(1, -ang)
			t.inv[base+k] = cmplx.Rect(1, ang)
		}
	}
	for h := 4; 4*h <= n; h *= 4 {
		base := (h - 1) / 3
		for k := 0; k < h; k++ {
			ang := math.Pi * float64(3*k) / float64(2*h)
			t.fwd3[base+k] = cmplx.Rect(1, -ang)
			t.inv3[base+k] = cmplx.Rect(1, ang)
		}
	}
	return t
}

// pow2 transforms power-of-two x in place, unnormalised.
func pow2(x []complex128, inverse bool) { tablesFor(len(x)).inPlace(x, inverse) }

// inPlace runs the bit-reversal permutation, then the butterfly stages.
func (t *radix2Tables) inPlace(x []complex128, inverse bool) {
	t.bitReverse(x)
	t.butterflies(x, inverse)
}

// bitReverse swaps every element with its bit-reversed index.
func (t *radix2Tables) bitReverse(x []complex128) {
	for i, j := range t.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// butterflies runs every decimation-in-time stage over bit-reversed x.
// Stages go in fused pairs: the pair whose first stage has half-size h
// combines four points h apart with the three twiddles W^k, W^2k and W^3k
// (W = W_4h) — three complex multiplies per four points per two stages,
// where two radix-2 stages take four. The rotation by W^h = -i (forward)
// or +i (inverse) between them is an exact swap of real and imaginary
// parts. The first pair (h = 1, see first4) has only trivial twiddles.
// When log2 n is odd, one radix-2 stage of half-size n/2 finishes the
// transform.
func (t *radix2Tables) butterflies(x []complex128, inverse bool) {
	if len(x) < 4 {
		t.stages(x, 1, inverse)
		return
	}
	for s := 0; s < len(x); s += 4 {
		b := x[s : s+4 : s+4]
		b[0], b[1], b[2], b[3] = first4(b[0], b[1], b[2], b[3], inverse)
	}
	t.stages(x, 4, inverse)
}

// first4 is the first fused pair of stages on four consecutive points.
func first4(v0, v1, v2, v3 complex128, inverse bool) (y0, y1, y2, y3 complex128) {
	a0, a1 := v0+v1, v0-v1
	sum, d := v2+v3, v2-v3
	r := complex(imag(d), -real(d)) // -i·d
	if inverse {
		r = -r
	}
	return a0 + sum, a1 + r, a0 - sum, a1 - r
}

// stages runs the fused pairs from first half-size h (a power of four)
// on, then the odd radix-2 stage if one is left.
func (t *radix2Tables) stages(x []complex128, h int, inverse bool) {
	n := len(x)
	tw, tw3 := t.fwd, t.fwd3
	if inverse {
		tw, tw3 = t.inv, t.inv3
	}
	for ; 4*h <= n; h *= 4 {
		radix4Pass(x, h, tw[h-1:2*h-1], tw[2*h-1:3*h-1], tw3[(h-1)/3:(h-1)/3+h], inverse)
	}
	if h < n { // odd log2 n: one radix-2 stage of half-size h = n/2
		lo, hi, w := x[:h], x[h:], tw[h-1:2*h-1]
		hi, w = hi[:len(lo)], w[:len(lo)]
		for k, a := range lo {
			b := hi[k] * w[k]
			lo[k], hi[k] = a+b, a-b
		}
	}
}

// radix4Pass runs one fused pair of stages over x in blocks of 4h, with
// w1[k] = W^2k, w2[k] = W^k and w3[k] = W^3k (W = W_4h, k < h).
func radix4Pass(x []complex128, h int, w1, w2, w3 []complex128, inverse bool) {
	w1, w2, w3 = w1[:h], w2[:h], w3[:h]
	for s := 0; s < len(x); s += 4 * h {
		q0 := x[s : s+h]
		q1 := x[s+h : s+2*h]
		q2 := x[s+2*h : s+3*h]
		q3 := x[s+3*h : s+4*h]
		// y1 = a1 -/+ i·d and y3 = a1 +/- i·d: the inverse swaps where
		// the two land.
		o1, o3 := q1, q3
		if inverse {
			o1, o3 = q3, q1
		}
		q1, q2, q3 = q1[:len(q0)], q2[:len(q0)], q3[:len(q0)]
		o1, o3 = o1[:len(q0)], o3[:len(q0)]
		w1, w2, w3 := w1[:len(q0)], w2[:len(q0)], w3[:len(q0)]
		for k, x0 := range q0 {
			t1 := q1[k] * w1[k]
			t2 := q2[k] * w2[k]
			t3 := q3[k] * w3[k]
			a0, a1 := x0+t1, x0-t1
			sum, d := t2+t3, t2-t3
			r := complex(imag(d), -real(d)) // -i·d
			q0[k], q2[k] = a0+sum, a0-sum
			o1[k], o3[k] = a1+r, a1-r
		}
	}
}

// Pow2 is the resolved transform of one power-of-two length: its tables
// are looked up once, so a caller running many transforms of that length
// (internal/radio runs one forward per frame and one inverse per antenna)
// skips the per-call cache lookup.
type Pow2 struct{ t *radix2Tables }

// NewPow2 resolves the transform of length n, which must be a power of
// two.
func NewPow2(n int) Pow2 {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: NewPow2(%d): not a power of two", n))
	}
	return Pow2{tablesFor(n)}
}

// FFTInPlace computes the forward DFT of x in place; len(x) must be the
// resolved length.
func (p Pow2) FFTInPlace(x []complex128) {
	p.check(len(x))
	p.t.inPlace(x, false)
}

// BitReverse permutes x, of the resolved length, into bit-reversed index
// order in place — the order MulIFFTInto takes its inputs in. The
// permutation is its own inverse.
func (p Pow2) BitReverse(x []complex128) {
	p.check(len(x))
	p.t.bitReverse(x)
}

// MulIFFTInto writes into dst the unnormalised inverse DFT of the bin-wise
// product x ⊙ h — IFFTInPlace of the product times the length, so a
// caller folds 1/N into h once. x and h are both given in bit-reversed
// bin order (see BitReverse), the order the decimation-in-time butterflies
// start from, so the multiply and the first pair of stages read both
// inputs sequentially, four bins at a time, and write dst once before the
// remaining stages. All three slices have the resolved length; dst must
// not overlap x or h.
func (p Pow2) MulIFFTInto(dst, x, h []complex128) {
	p.check(len(dst))
	p.check(len(x))
	p.check(len(h))
	if len(dst) < 4 {
		for i := range dst {
			dst[i] = x[i] * h[i]
		}
		p.t.butterflies(dst, true)
		return
	}
	for i := 0; i < len(dst); i += 4 {
		b, xs, hs := dst[i:i+4:i+4], x[i:i+4:i+4], h[i:i+4:i+4]
		b[0], b[1], b[2], b[3] = first4(xs[0]*hs[0], xs[1]*hs[1], xs[2]*hs[2], xs[3]*hs[3], true)
	}
	p.t.stages(dst, 4, true)
}

func (p Pow2) check(n int) {
	if n != len(p.t.rev) {
		panic(fmt.Sprintf("dsp: length %d for a %d-point transform", n, len(p.t.rev)))
	}
}

// bluesteinPlan caches, for one transform length n, the chirp sequence and
// the forward FFTs of the chirp-conjugate convolution kernel for both
// transform directions — everything about Bluestein's algorithm that does
// not depend on the input samples.
type bluesteinPlan struct {
	n, m   int
	chirpF []complex128 // forward chirp exp(-i pi k^2 / n)
	chirpI []complex128 // inverse chirp (conjugate)
	kernF  []complex128 // FFT of conj(chirpF) kernel, length m
	kernI  []complex128 // FFT of conj(chirpI) kernel, length m
	// scratch recycles the length-m convolution buffer across calls; a
	// non-power-of-two transform would otherwise allocate (and zero)
	// m complexes per call — the dominant per-packet garbage before the
	// pooled pipeline.
	scratch sync.Pool
}

func (p *bluesteinPlan) getScratch() []complex128 {
	if b, ok := p.scratch.Get().(*[]complex128); ok {
		return *b // holds stale samples; bluestein overwrites every element
	}
	return make([]complex128, p.m)
}

func (p *bluesteinPlan) putScratch(a []complex128) {
	p.scratch.Put(&a)
}

var bluesteinCache planCache

func planFor(n int) *bluesteinPlan {
	if p, ok := bluesteinCache.load(n); ok {
		return p.(*bluesteinPlan)
	}
	return bluesteinCache.store(n, buildUncachedPlan(n)).(*bluesteinPlan)
}

func bluesteinKernel(chirp []complex128, n, m int) []complex128 {
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	pow2(b, false)
	return b
}

// bluestein computes an arbitrary-length DFT as a convolution via a larger
// power-of-two FFT (chirp-z transform). The chirp and the kernel FFT are
// input-independent and come from a per-length cached plan, so each call
// costs two power-of-two transforms instead of three.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	var p *bluesteinPlan
	if n <= maxCachedFFT {
		p = planFor(n)
	} else {
		p = buildUncachedPlan(n)
	}
	chirp, kern := p.chirpF, p.kernF
	if inverse {
		chirp, kern = p.chirpI, p.kernI
	}
	m := p.m
	a := p.getScratch()
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	pow2(a, false)
	for i := range a {
		a[i] *= kern[i]
	}
	pow2(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * invM * chirp[k]
	}
	p.putScratch(a)
}

func buildUncachedPlan(n int) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p := &bluesteinPlan{n: n, m: m, chirpF: make([]complex128, n), chirpI: make([]complex128, n)}
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := math.Pi * float64(kk) / float64(n)
		p.chirpF[k] = cmplx.Rect(1, -ang)
		p.chirpI[k] = cmplx.Rect(1, ang)
	}
	p.kernF = bluesteinKernel(p.chirpF, n, m)
	p.kernI = bluesteinKernel(p.chirpI, n, m)
	return p
}

// FFTShift rotates the zero-frequency bin to the centre (like Matlab's
// fftshift). Returns a new slice.
func FFTShift(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	half := (n + 1) / 2
	copy(out, x[half:])
	copy(out[n-half:], x[:half])
	return out
}

// FFTFreqs returns the frequency of each DFT bin for sample rate fs, in the
// standard order: bins 0..N/2-1 nonnegative, then negative frequencies.
func FFTFreqs(n int, fs float64) []float64 {
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		f := float64(k)
		if k > n/2 {
			f -= float64(n)
		}
		out[k] = f * fs / float64(n)
	}
	return out
}

// NextPow2 returns the smallest power of two >= n (n >= 1).
func NextPow2(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("dsp: NextPow2(%d)", n))
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
