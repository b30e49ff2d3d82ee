package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if FFT(nil) != nil {
		t.Error("FFT(nil) != nil")
	}
	x := []complex128{3 + 4i}
	if got := FFT(x); len(got) != 1 || got[0] != 3+4i {
		t.Errorf("FFT single = %v", got)
	}
}

func TestFFTKnownDC(t *testing.T) {
	x := []complex128{1, 1, 1, 1}
	f := FFT(x)
	if cmplx.Abs(f[0]-4) > 1e-12 {
		t.Errorf("DC bin = %v, want 4", f[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(f[k]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", k, f[k])
		}
	}
}

func TestFFTKnownTone(t *testing.T) {
	// x[n] = exp(2 pi i n k0 / N) puts all energy into bin k0.
	const n, k0 = 16, 3
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*float64(k0*i)/float64(n))
	}
	f := FFT(x)
	for k := range f {
		want := 0.0
		if k == k0 {
			want = n
		}
		if math.Abs(cmplx.Abs(f[k])-want) > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want %v", k, cmplx.Abs(f[k]), want)
		}
	}
}

func TestFFTRoundTripPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 64, 256, 1024} {
		x := randSignal(rng, n)
		if e := maxErr(IFFT(FFT(x)), x); e > 1e-10 {
			t.Errorf("n=%d round-trip err %v", n, e)
		}
	}
}

func TestFFTRoundTripArbitraryN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 12, 17, 60, 100, 241} {
		x := randSignal(rng, n)
		if e := maxErr(IFFT(FFT(x)), x); e > 1e-9 {
			t.Errorf("n=%d round-trip err %v", n, e)
		}
	}
}

// naiveDFT is the O(n^2) definition: sum_m x[m] exp(sign 2 pi i k m / n),
// scaled by 1/n for the inverse (sign +1). Twiddles come from one table
// indexed by k*m mod n, so the reference's own error stays at summation
// rounding.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign, scale := -1.0, 1.0
	if inverse {
		sign, scale = 1, 1/float64(n)
	}
	w := make([]complex128, n)
	for j := range w {
		w[j] = cmplx.Rect(1, sign*2*math.Pi*float64(j)/float64(n))
	}
	out := make([]complex128, n)
	for k := range out {
		var acc complex128
		for m, v := range x {
			acc += v * w[(k*m)%n]
		}
		out[k] = acc * complex(scale, 0)
	}
	return out
}

// fftTol is the accuracy the transforms are held to: a max-abs error of
// at most 1e-14 * ||x||_2 * max(1, log2 n) — the O(eps log n) relative
// error of a Cooley-Tukey transform, ten times the worst ratio measured
// against naiveDFT up to n = 4096 (below 8e-16, the reference's own
// summation rounding included).
func fftTol(x []complex128) float64 {
	return 1e-14 * math.Sqrt(Energy(x)) * math.Max(1, math.Log2(float64(len(x))))
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{13, 1480} // Bluestein
	for n := 1; n <= 4096; n *= 2 {
		sizes = append(sizes, n) // odd and even log2 n
	}
	for _, n := range sizes {
		x := randSignal(rng, n)
		tol := fftTol(x)
		if e := maxErr(FFT(x), naiveDFT(x, false)); e > tol {
			t.Errorf("n=%d FFT vs naive DFT err %g > %g", n, e, tol)
		}
		if e := maxErr(IFFT(x), naiveDFT(x, true)); e > tol {
			t.Errorf("n=%d IFFT vs naive IDFT err %g > %g", n, e, tol)
		}
	}
}

// TestPow2MulIFFTInto checks the fused multiply-inverse entry point, fed
// bit-reversed inputs, against the unfused path: with 1/n folded into h
// it equals IFFTInPlace of the natural-order product times n — bit for
// bit, since both run the same butterflies on the same products and
// scaling by a power of two is exact.
func TestPow2MulIFFTInto(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 4, 8, 32, 64, 2048, 4096} {
		x, h := randSignal(rng, n), randSignal(rng, n)
		want := make([]complex128, n)
		hs := make([]complex128, n)
		for k := range want {
			hs[k] = h[k] / complex(float64(n), 0)
			want[k] = x[k] * hs[k]
		}
		IFFTInPlace(want)
		scaleReal(want, float64(n))
		p := NewPow2(n)
		p.BitReverse(x)
		p.BitReverse(hs)
		got := make([]complex128, n)
		p.MulIFFTInto(got, x, hs)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("n=%d bin %d: MulIFFTInto %v, n*IFFTInPlace(x*h) %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestPow2BitReverse checks the permutation against its definition and
// that applying it twice restores the input.
func TestPow2BitReverse(t *testing.T) {
	for _, n := range []int{1, 2, 8, 2048} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i), 0)
		}
		p := NewPow2(n)
		p.BitReverse(x)
		logN := bits.TrailingZeros(uint(n))
		for i, v := range x {
			if want := bits.Reverse(uint(i)) >> (bits.UintSize - logN); n > 1 && uint(real(v)) != want {
				t.Fatalf("n=%d: x[%d] = %v, want %d", n, i, v, want)
			}
		}
		p.BitReverse(x)
		for i, v := range x {
			if v != complex(float64(i), 0) {
				t.Fatalf("n=%d: BitReverse twice moved x[%d] to %v", n, i, v)
			}
		}
	}
}

func TestPow2RejectsBadLengths(t *testing.T) {
	for name, f := range map[string]func(){
		"NewPow2(0)":       func() { NewPow2(0) },
		"NewPow2(12)":      func() { NewPow2(12) },
		"FFTInPlace(4/8)":  func() { NewPow2(8).FFTInPlace(make([]complex128, 4)) },
		"MulIFFTInto(h=4)": func() { NewPow2(8).MulIFFTInto(make([]complex128, 8), make([]complex128, 8), make([]complex128, 4)) },
		"BitReverse(4/8)":  func() { NewPow2(8).BitReverse(make([]complex128, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestFFTUncachedSize runs a transform above maxCachedFFT, whose tables
// are built per call and not retained, against the cached half size: one
// radix-2 decimation step X[k] = E[k] + W^k O[k], X[k+n/2] = E[k] - W^k O[k]
// over the FFTs of the even- and odd-indexed samples.
func TestFFTUncachedSize(t *testing.T) {
	const n = 1 << 19
	rng := rand.New(rand.NewSource(7))
	x := randSignal(rng, n)
	even, odd := make([]complex128, n/2), make([]complex128, n/2)
	for i := range even {
		even[i], odd[i] = x[2*i], x[2*i+1]
	}
	FFTInPlace(even)
	FFTInPlace(odd)
	got := FFT(x)
	if _, ok := radix2Cache.load(n); ok {
		t.Errorf("tables for n=%d were cached", n)
	}
	var e float64
	for k := 0; k < n/2; k++ {
		w := cmplx.Rect(1, -2*math.Pi*float64(k)/n)
		e = math.Max(e, cmplx.Abs(got[k]-(even[k]+w*odd[k])))
		e = math.Max(e, cmplx.Abs(got[k+n/2]-(even[k]-w*odd[k])))
	}
	if tol := fftTol(x); e > tol {
		t.Errorf("n=%d FFT vs decimated halves err %g > %g", n, e, tol)
	}
	if e := maxErr(IFFT(got), x); e > fftTol(x) {
		t.Errorf("n=%d round-trip err %g", n, e)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 << (1 + r.Intn(6))
		x, y := randSignal(r, n), randSignal(r, n)
		a := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		fx, fy, fs := FFT(x), FFT(y), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(a*fx[i]+fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 2 + r.Intn(100)
		x := randSignal(r, n)
		te := Energy(x)
		fe := Energy(FFT(x)) / float64(n)
		return math.Abs(te-fe) < 1e-8*(1+te)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTShift(t *testing.T) {
	x := []complex128{0, 1, 2, 3}
	got := FFTShift(x)
	want := []complex128{2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FFTShift = %v, want %v", got, want)
		}
	}
	odd := FFTShift([]complex128{0, 1, 2, 3, 4})
	wantOdd := []complex128{3, 4, 0, 1, 2}
	for i := range wantOdd {
		if odd[i] != wantOdd[i] {
			t.Fatalf("odd FFTShift = %v, want %v", odd, wantOdd)
		}
	}
}

func TestFFTFreqs(t *testing.T) {
	f := FFTFreqs(4, 20e6)
	want := []float64{0, 5e6, 10e6, -5e6}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1 {
			t.Fatalf("FFTFreqs = %v, want %v", f, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestConvolveKnown(t *testing.T) {
	a := []complex128{1, 2}
	b := []complex128{1, 1, 1}
	got := Convolve(a, b)
	want := []complex128{1, 3, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("Convolve len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("Convolve = %v, want %v", got, want)
		}
	}
}

func TestConvolveImpulseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randSignal(rng, 37)
	got := Convolve(x, []complex128{1})
	if e := maxErr(got, x); e > 1e-10 {
		t.Errorf("convolution with impulse changed signal: %v", e)
	}
}

func TestCrossCorrelateFindsTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tmpl := randSignal(rng, 16)
	sig := make([]complex128, 100)
	copy(sig[40:], tmpl)
	c := CrossCorrelate(sig, tmpl)
	best, bestMag := 0, 0.0
	for i, v := range c {
		if m := cmplx.Abs(v); m > bestMag {
			best, bestMag = i, m
		}
	}
	if best != 40 {
		t.Fatalf("correlation peak at %d, want 40", best)
	}
}

func TestAutoCorrelateZeroLagIsEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randSignal(rng, 50)
	r := AutoCorrelate(x, 5)
	if math.Abs(real(r[0])-Energy(x)) > 1e-9 {
		t.Errorf("r[0] = %v, energy %v", r[0], Energy(x))
	}
}

func TestFractionalDelayIntegerShift(t *testing.T) {
	// A one-sample delay at fs must equal a circular shift by one.
	rng := rand.New(rand.NewSource(9))
	const fs = 20e6
	x := randSignal(rng, 64)
	d := FractionalDelay(x, 1/fs, fs)
	for i := range x {
		want := x[(i+63)%64]
		if cmplx.Abs(d[i]-want) > 1e-9 {
			t.Fatalf("sample %d: got %v want %v", i, d[i], want)
		}
	}
}

func TestFractionalDelayToneTheory(t *testing.T) {
	// Delaying a pure tone by tau multiplies it by exp(-2 pi i f tau).
	const fs = 20e6
	const bin = 5
	n := 128
	x := make([]complex128, n)
	f := bin * fs / float64(n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*f*float64(i)/fs)
	}
	tau := 13.7e-9 // sub-sample
	d := FractionalDelay(x, tau, fs)
	rot := cmplx.Rect(1, -2*math.Pi*f*tau)
	for i := range x {
		if cmplx.Abs(d[i]-x[i]*rot) > 1e-9 {
			t.Fatalf("sample %d: got %v want %v", i, d[i], x[i]*rot)
		}
	}
}

func TestFractionalDelayPreservesEnergyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 16 + r.Intn(100)
		x := randSignal(r, n)
		tau := r.Float64() * 1e-7
		d := FractionalDelay(x, tau, 20e6)
		return math.Abs(Energy(d)-Energy(x)) < 1e-7*(1+Energy(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMixFrequency(t *testing.T) {
	x := []complex128{1, 1, 1, 1}
	y := MixFrequency(x, 5e6, 20e6, 0)
	// 5 MHz at 20 MHz sampling advances pi/2 per sample.
	want := []complex128{1, 1i, -1, -1i}
	for i := range want {
		if cmplx.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("MixFrequency = %v, want %v", y, want)
		}
	}
}

func TestUnwrapPhase(t *testing.T) {
	ph := []float64{0, 2, -2.5, -0.5} // -2.5 after 2 is a wrap: true path 0,2,3.78..
	un := UnwrapPhase(ph)
	if un[2] <= un[1] {
		t.Errorf("unwrap failed: %v", un)
	}
	for i := 1; i < len(un); i++ {
		if math.Abs(un[i]-un[i-1]) > math.Pi {
			t.Errorf("unwrapped jump > pi at %d: %v", i, un)
		}
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {math.Pi / 2, math.Pi / 2}, {3 * math.Pi, math.Pi},
		{-3 * math.Pi, math.Pi}, {2 * math.Pi, 0},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapPhase(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWindows(t *testing.T) {
	for name, w := range map[string][]float64{
		"hamming":  Hamming(64),
		"hann":     Hann(64),
		"blackman": Blackman(64),
	} {
		if len(w) != 64 {
			t.Errorf("%s length %d", name, len(w))
		}
		// Symmetry.
		for i := 0; i < 32; i++ {
			if math.Abs(w[i]-w[63-i]) > 1e-12 {
				t.Errorf("%s asymmetric at %d", name, i)
			}
		}
		// Peak near the middle, bounded by 1.
		for i, v := range w {
			if v > 1+1e-12 || v < -1e-12 {
				t.Errorf("%s out of range at %d: %v", name, i, v)
			}
		}
	}
	if Hann(1)[0] != 1 {
		t.Error("Hann(1) != [1]")
	}
}

func TestMovingSum(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	got := MovingSum(x, 2)
	want := []complex128{3, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MovingSum = %v, want %v", got, want)
		}
	}
	if MovingSum(x, 0) != nil || MovingSum(x, 5) != nil {
		t.Error("invalid window should yield nil")
	}
	xr := []float64{1, 2, 3, 4}
	gr := MovingSumReal(xr, 3)
	if len(gr) != 2 || gr[0] != 6 || gr[1] != 9 {
		t.Fatalf("MovingSumReal = %v", gr)
	}
}

func TestMovingSumMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 4 + r.Intn(60)
		w := 1 + r.Intn(n)
		x := randSignal(r, n)
		got := MovingSum(x, w)
		for i := range got {
			var s complex128
			for j := 0; j < w; j++ {
				s += x[i+j]
			}
			if cmplx.Abs(got[i]-s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDBConversions(t *testing.T) {
	if DB(1) != 0 {
		t.Error("DB(1) != 0")
	}
	if math.Abs(DB(100)-20) > 1e-12 {
		t.Error("DB(100) != 20")
	}
	if DB(0) != -300 {
		t.Error("DB(0) should clamp to -300")
	}
	if math.Abs(FromDB(30)-1000) > 1e-9 {
		t.Error("FromDB(30) != 1000")
	}
}

func TestEnergyPowerScaleAdd(t *testing.T) {
	x := []complex128{3, 4i}
	if Energy(x) != 25 {
		t.Errorf("Energy = %v", Energy(x))
	}
	if Power(x) != 12.5 {
		t.Errorf("Power = %v", Power(x))
	}
	if Power(nil) != 0 {
		t.Error("Power(nil) != 0")
	}
	Scale(x, 2)
	if x[0] != 6 {
		t.Errorf("Scale failed: %v", x)
	}
	dst := []complex128{1, 1}
	AddInto(dst, []complex128{2, 3})
	if dst[0] != 3 || dst[1] != 4 {
		t.Errorf("AddInto = %v", dst)
	}
}

func TestApplyWindow(t *testing.T) {
	x := []complex128{2, 2, 2}
	w := []float64{0.5, 1, 0.5}
	y := ApplyWindow(x, w)
	if y[0] != 1 || y[1] != 2 || y[2] != 1 {
		t.Errorf("ApplyWindow = %v", y)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := randSignal(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// BenchmarkFFTInPlace2048 times the transform channel synthesis runs
// nine of per frame per AP: in place, 2048 points, cached tables.
func BenchmarkFFTInPlace2048(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	src := randSignal(rng, 2048)
	x := make([]complex128, len(src))
	FFTInPlace(x) // resolve the tables before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, src) // repeated transforms would grow x to overflow
		FFTInPlace(x)
	}
}

func BenchmarkFFT64(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := randSignal(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFractionalDelay8192(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	x := randSignal(rng, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FractionalDelay(x, 13e-9, 20e6)
	}
}
