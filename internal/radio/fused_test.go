package radio

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"secureangle/internal/dsp"
	"secureangle/internal/geom"
	"secureangle/internal/rng"
)

// impairSeparatePasses is the receiver front end as it was before the
// impairments were fused into one pass per antenna: the power pass, then
// per antenna a downconverter rotation pass, a CFO mix pass, an AWGN pass
// drawing math/rand's normals, and a quantisation pass.
func impairSeparatePasses(f *FrontEnd, out [][]complex128, r *rand.Rand) {
	n := len(out)
	var sp float64
	for a := 0; a < n; a++ {
		sp += dsp.Power(out[a])
	}
	sp /= float64(n)
	sigma2 := sp / dsp.FromDB(f.SNRdB)
	if f.NoiseFloor > 0 {
		sigma2 = f.NoiseFloor
	}
	for a := 0; a < n; a++ {
		dsp.Scale(out[a], cmplx.Rect(1, f.PhaseOffsets[a]))
		if f.CFOHz != 0 {
			dsp.MixFrequencyInto(out[a], out[a], f.CFOHz, f.SampleRate, 0)
		}
		std := math.Sqrt(sigma2 / 2)
		for i := range out[a] {
			out[a][i] += complex(std*r.NormFloat64(), std*r.NormFloat64())
		}
		if f.QuantBits > 0 {
			quantizePass(out[a], f.QuantBits, 4*math.Sqrt(sp+sigma2))
		}
	}
}

func quantizePass(x []complex128, b int, fullScale float64) {
	if fullScale <= 0 {
		return
	}
	levels := float64(int(1) << uint(b-1))
	step := fullScale / levels
	q := func(v float64) float64 {
		v = math.Max(-fullScale, math.Min(fullScale, v))
		return math.Round(v/step) * step
	}
	for i := range x {
		x[i] = complex(q(real(x[i])), q(imag(x[i])))
	}
}

// requireBitwise compares two captures bit for bit, signed zeros
// included.
func requireBitwise(t *testing.T, what string, got, want [][]complex128) {
	t.Helper()
	for a := range want {
		if len(got[a]) != len(want[a]) {
			t.Fatalf("%s: antenna %d has %d samples, want %d", what, a, len(got[a]), len(want[a]))
		}
		for i, w := range want[a] {
			g := got[a][i]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("%s: antenna %d sample %d = %v, want %v", what, a, i, g, w)
			}
		}
	}
}

// TestImpairMatchesSeparatePasses checks the fused impairment pass
// against the separate passes it replaced, bit for bit, with CFO and
// quantisation each on and off, under both noise models, on a real
// synthesised capture (zero-padded lead-in included) and on a length that
// is not a multiple of the noise chunk.
func TestImpairMatchesSeparatePasses(t *testing.T) {
	e := testScene()
	tx := geom.Point{X: 7, Y: 4}
	bb := testPacket(t)
	for _, cfo := range []float64{0, 12e3, -7e3} {
		for _, bits := range []int{0, 10} {
			for _, floor := range []float64{0, 4e-9} {
				for _, n := range []int{len(bb), 333} {
					name := fmt.Sprintf("cfo=%g/bits=%d/floor=%g/n=%d", cfo, bits, floor, n)
					opts := []Option{WithCFO(cfo), WithQuantization(bits), WithNoiseFloor(floor)}
					fe := NewFrontEnd(testArray(), geom.Point{}, rng.New(5), opts...)
					resp, err := fe.channelResponse(e, tx, n)
					if err != nil {
						t.Fatal(err)
					}
					clean := fe.synthesize(resp, bb[:n], nil)
					want := make([][]complex128, len(clean))
					for a, s := range clean {
						want[a] = append([]complex128(nil), s...)
					}
					fe.impair(clean, rng.New(77))
					impairSeparatePasses(fe, want, rand.New(rand.NewSource(77)))
					requireBitwise(t, name, clean, want)
				}
			}
		}
	}
}

// TestSynthesizeMatchesNaturalOrder checks the bit-reversed synthesis
// against the natural-order form it replaced: per antenna the bin-wise
// product of the forward spectrum and the response, inverse transformed
// unnormalised — m * IFFTInPlace, which dsp pins bit for bit to the
// butterflies MulIFFTInto runs.
func TestSynthesizeMatchesNaturalOrder(t *testing.T) {
	e := testScene()
	tx := geom.Point{X: 7, Y: 4}
	fe := NewFrontEnd(testArray(), geom.Point{}, rng.New(5))
	bb := testPacket(t)
	resp, err := fe.channelResponse(e, tx, len(bb))
	if err != nil {
		t.Fatal(err)
	}
	got := fe.synthesize(resp, bb, nil)

	m := resp.m
	spec := make([]complex128, m)
	copy(spec, bb)
	dsp.FFTInPlace(spec)
	h := fe.buildResponse(e.Trace(tx, fe.Pos), m)
	want := make([][]complex128, len(h))
	for a, ha := range h {
		prod := make([]complex128, m)
		for k := range prod {
			prod[k] = spec[k] * ha[k]
		}
		dsp.IFFTInPlace(prod)
		for k, v := range prod {
			prod[k] = complex(real(v)*float64(m), imag(v)*float64(m))
		}
		want[a] = prod[:len(bb)]
	}
	requireBitwise(t, "synthesis", got, want)
}
