package rng

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestForkIndependence(t *testing.T) {
	s := New(1)
	f1 := s.Fork()
	f2 := s.Fork()
	diff := false
	for i := 0; i < 10; i++ {
		if f1.Float64() != f2.Float64() {
			diff = true
		}
	}
	if !diff {
		t.Error("forked sources identical")
	}
}

func TestPhaseRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		p := s.Phase()
		if p < 0 || p >= 2*math.Pi {
			t.Fatalf("Phase out of range: %v", p)
		}
	}
}

func TestComplexGaussianMoments(t *testing.T) {
	s := New(4)
	const n = 200000
	const sigma2 = 2.5
	var sum complex128
	var pow float64
	for i := 0; i < n; i++ {
		v := s.ComplexGaussian(sigma2)
		sum += v
		pow += real(v)*real(v) + imag(v)*imag(v)
	}
	mean := cmplx.Abs(sum) / n
	if mean > 0.02 {
		t.Errorf("mean magnitude = %v, want ~0", mean)
	}
	if got := pow / n; math.Abs(got-sigma2) > 0.05 {
		t.Errorf("variance = %v, want %v", got, sigma2)
	}
}

func TestAWGNAndAddAWGN(t *testing.T) {
	s := New(5)
	noise := s.AWGN(10000, 1.0)
	if len(noise) != 10000 {
		t.Fatal("length")
	}
	var pow float64
	for _, v := range noise {
		pow += real(v)*real(v) + imag(v)*imag(v)
	}
	if got := pow / 10000; math.Abs(got-1) > 0.05 {
		t.Errorf("AWGN variance = %v", got)
	}
	x := make([]complex128, 1000)
	s.AddAWGN(x, 4.0)
	var p2 float64
	for _, v := range x {
		p2 += real(v)*real(v) + imag(v)*imag(v)
	}
	if got := p2 / 1000; math.Abs(got-4) > 0.6 {
		t.Errorf("AddAWGN variance = %v", got)
	}
}

func TestOUStationarity(t *testing.T) {
	s := New(8)
	ou := NewOU(s, 5, 2, 10)
	// Advance many correlation times; sample the stationary distribution.
	var sum, sq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := ou.Advance(5) // half a tau per step
		sum += v
		sq += (v - 5) * (v - 5)
	}
	mean := sum / n
	std := math.Sqrt(sq / n)
	if math.Abs(mean-5) > 0.15 {
		t.Errorf("OU mean = %v, want 5", mean)
	}
	if math.Abs(std-2) > 0.15 {
		t.Errorf("OU std = %v, want 2", std)
	}
}

func TestOUCorrelationDecay(t *testing.T) {
	// Values one tau apart should correlate ~exp(-1); values 100 tau apart
	// should be nearly uncorrelated. Estimate over many restarts.
	const tau = 1.0
	var shortProd, longProd, var0 float64
	const n = 5000
	s := New(9)
	for i := 0; i < n; i++ {
		ou := NewOU(s.Fork(), 0, 1, tau)
		v0 := ou.Value()
		v1 := ou.Advance(tau)
		ou2 := NewOU(s.Fork(), 0, 1, tau)
		w0 := ou2.Value()
		w1 := ou2.Advance(100 * tau)
		shortProd += v0 * v1
		longProd += w0 * w1
		var0 += v0 * v0
	}
	shortCorr := shortProd / var0
	longCorr := longProd / var0
	if math.Abs(shortCorr-math.Exp(-1)) > 0.08 {
		t.Errorf("corr at tau = %v, want %v", shortCorr, math.Exp(-1))
	}
	if math.Abs(longCorr) > 0.08 {
		t.Errorf("corr at 100 tau = %v, want ~0", longCorr)
	}
}

func TestOUAdvanceNegativeDt(t *testing.T) {
	s := New(10)
	ou := NewOU(s, 0, 1, 1)
	v := ou.Value()
	// Negative dt clamps to zero: with a=1 the value must not change by
	// the deterministic part; the noise term is zero since sqrt(1-1)=0.
	if got := ou.Advance(-5); got != v {
		t.Errorf("Advance(-5) changed value: %v -> %v", v, got)
	}
}

func TestIntn(t *testing.T) {
	s := New(11)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn coverage: %v", seen)
	}
}

func TestNormal(t *testing.T) {
	s := New(12)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Normal(3, 2)
	}
	if got := sum / n; math.Abs(got-3) > 0.05 {
		t.Errorf("Normal mean = %v", got)
	}
}
