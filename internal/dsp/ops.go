package dsp

import (
	"math"
	"math/cmplx"
)

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1), computed via FFT for efficiency.
func Convolve(a, b []complex128) []complex128 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	n := len(a) + len(b) - 1
	m := NextPow2(n)
	fa := make([]complex128, m)
	fb := make([]complex128, m)
	copy(fa, a)
	copy(fb, b)
	pow2(fa, false)
	pow2(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	pow2(fa, true)
	out := make([]complex128, n)
	copy(out, fa)
	scaleReal(out, 1/float64(m))
	return out
}

// CrossCorrelate returns c[k] = sum_n a[n+k] * conj(b[n]) for lags
// k = 0 .. len(a)-len(b); a must be at least as long as b. This is the
// sliding correlation used by preamble matching.
func CrossCorrelate(a, b []complex128) []complex128 {
	if len(b) == 0 || len(a) < len(b) {
		return nil
	}
	out := make([]complex128, len(a)-len(b)+1)
	for k := range out {
		var s complex128
		for n := range b {
			s += a[k+n] * cmplx.Conj(b[n])
		}
		out[k] = s
	}
	return out
}

// AutoCorrelate returns r[k] = sum_n x[n] * conj(x[n-k]) for k = 0..maxLag.
func AutoCorrelate(x []complex128, maxLag int) []complex128 {
	if maxLag >= len(x) {
		maxLag = len(x) - 1
	}
	if maxLag < 0 {
		return nil
	}
	out := make([]complex128, maxLag+1)
	for k := 0; k <= maxLag; k++ {
		var s complex128
		for n := k; n < len(x); n++ {
			s += x[n] * cmplx.Conj(x[n-k])
		}
		out[k] = s
	}
	return out
}

// FractionalDelay returns x delayed by tau seconds at sample rate fs,
// implemented as a linear phase ramp in the frequency domain. The delay may
// be any real value (sub-sample delays included); the signal is treated as
// periodic, which is acceptable for packet-padded buffers. This is how the
// channel simulator realises distinct multipath delays whose differences
// are below the sample period.
func FractionalDelay(x []complex128, tau, fs float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	spec := FFT(x)
	freqs := FFTFreqs(n, fs)
	for k := range spec {
		spec[k] *= cmplx.Rect(1, -2*math.Pi*freqs[k]*tau)
	}
	return IFFT(spec)
}

// MixFrequency multiplies x by a complex exponential of frequency f Hz at
// sample rate fs, starting at phase0 radians: the model for carrier
// frequency offset and for downconversion phase.
func MixFrequency(x []complex128, f, fs, phase0 float64) []complex128 {
	out := make([]complex128, len(x))
	MixFrequencyInto(out, x, f, fs, phase0)
	return out
}

// MixFrequencyInto is MixFrequency writing into dst (which must be at
// least as long as x); dst may alias x for an in-place mix. It returns
// dst truncated to len(x).
func MixFrequencyInto(dst, x []complex128, f, fs, phase0 float64) []complex128 {
	step := 2 * math.Pi * f / fs
	for i := range x {
		dst[i] = x[i] * cmplx.Rect(1, phase0+step*float64(i))
	}
	return dst[:len(x)]
}

// Energy returns the total energy sum |x[i]|^2.
func Energy(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// Power returns the mean energy per sample, 0 for empty input.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Scale multiplies x by g in place.
func Scale(x []complex128, g complex128) {
	for i := range x {
		x[i] *= g
	}
}

// AddInto accumulates src into dst (dst must be at least as long as src).
func AddInto(dst, src []complex128) {
	for i, v := range src {
		dst[i] += v
	}
}

// UnwrapPhase removes 2-pi jumps from a phase sequence.
func UnwrapPhase(ph []float64) []float64 {
	out := make([]float64, len(ph))
	if len(ph) == 0 {
		return out
	}
	out[0] = ph[0]
	for i := 1; i < len(ph); i++ {
		d := ph[i] - ph[i-1]
		for d > math.Pi {
			d -= 2 * math.Pi
		}
		for d < -math.Pi {
			d += 2 * math.Pi
		}
		out[i] = out[i-1] + d
	}
	return out
}

// WrapPhase maps a phase to (-pi, pi].
func WrapPhase(p float64) float64 {
	p = math.Mod(p, 2*math.Pi)
	if p > math.Pi {
		p -= 2 * math.Pi
	} else if p <= -math.Pi {
		p += 2 * math.Pi
	}
	return p
}

// Hamming returns an n-point Hamming window.
func Hamming(n int) []float64 {
	return cosineWindow(n, 0.54, 0.46)
}

// Hann returns an n-point Hann window.
func Hann(n int) []float64 {
	return cosineWindow(n, 0.5, 0.5)
}

// Blackman returns an n-point Blackman window.
func Blackman(n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	for i := range out {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		out[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
	}
	return out
}

func cosineWindow(n int, a, b float64) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	for i := range out {
		out[i] = a - b*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return out
}

// ApplyWindow multiplies x by w element-wise into a new slice.
func ApplyWindow(x []complex128, w []float64) []complex128 {
	n := min(len(x), len(w))
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		out[i] = x[i] * complex(w[i], 0)
	}
	return out
}

// MovingSum returns the running sum of x over windows of length w:
// out[i] = sum(x[i:i+w]), length len(x)-w+1. Used by the Schmidl-Cox
// timing metric. Complex accumulation error is negligible at packet scale.
func MovingSum(x []complex128, w int) []complex128 {
	if w <= 0 || w > len(x) {
		return nil
	}
	return MovingSumInto(make([]complex128, len(x)-w+1), x, w)
}

// MovingSumInto is MovingSum writing into dst, which must hold at least
// len(x)-w+1 entries; it returns dst truncated to that length (nil on a
// degenerate window, as MovingSum).
func MovingSumInto(dst, x []complex128, w int) []complex128 {
	if w <= 0 || w > len(x) {
		return nil
	}
	out := dst[:len(x)-w+1]
	var acc complex128
	for i := 0; i < w; i++ {
		acc += x[i]
	}
	out[0] = acc
	for i := 1; i < len(out); i++ {
		acc += x[i+w-1] - x[i-1]
		out[i] = acc
	}
	return out
}

// MovingSumReal is MovingSum for real-valued series.
func MovingSumReal(x []float64, w int) []float64 {
	if w <= 0 || w > len(x) {
		return nil
	}
	return MovingSumRealInto(make([]float64, len(x)-w+1), x, w)
}

// MovingSumRealInto is MovingSumInto for real-valued series.
func MovingSumRealInto(dst, x []float64, w int) []float64 {
	if w <= 0 || w > len(x) {
		return nil
	}
	out := dst[:len(x)-w+1]
	var acc float64
	for i := 0; i < w; i++ {
		acc += x[i]
	}
	out[0] = acc
	for i := 1; i < len(out); i++ {
		acc += x[i+w-1] - x[i-1]
		out[i] = acc
	}
	return out
}

// DB converts a power ratio to decibels; zero or negative input maps to
// -inf dB clamped at -300 to keep plots finite.
func DB(p float64) float64 {
	if p <= 0 {
		return -300
	}
	d := 10 * math.Log10(p)
	if d < -300 {
		return -300
	}
	return d
}

// FromDB converts decibels to a power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }
