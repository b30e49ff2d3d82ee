package music

import (
	"math"
	"testing"

	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/rng"
)

// synthCovariance builds streams for plane waves from the given bearings
// with the given amplitudes, plus noise, and returns their covariance.
// Independent QPSK-ish symbols per source make the sources incoherent.
func synthStreams(arr *antenna.Array, bearings []float64, amps []float64, snrDB float64, nSamp int, seed int64) [][]complex128 {
	src := rng.New(seed)
	n := arr.N()
	streams := make([][]complex128, n)
	for a := range streams {
		streams[a] = make([]complex128, nSamp)
	}
	for s, b := range bearings {
		steer := arr.Steering(b)
		for t := 0; t < nSamp; t++ {
			sym := src.ComplexGaussian(1) // independent per source and time
			for a := 0; a < n; a++ {
				streams[a][t] += complex(amps[s], 0) * sym * steer[a]
			}
		}
	}
	var sp float64
	for a := 0; a < n; a++ {
		for _, v := range streams[a] {
			sp += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	sp /= float64(n * nSamp)
	sigma2 := sp / math.Pow(10, snrDB/10)
	for a := 0; a < n; a++ {
		src.AddAWGN(streams[a], sigma2)
	}
	return streams
}

func cov(t *testing.T, streams [][]complex128) *cmat.Matrix {
	t.Helper()
	r, err := Covariance(streams)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCovarianceErrors(t *testing.T) {
	if _, err := Covariance(nil); err == nil {
		t.Error("nil streams accepted")
	}
	if _, err := Covariance([][]complex128{{}}); err == nil {
		t.Error("empty streams accepted")
	}
	if _, err := Covariance([][]complex128{{1}, {1, 2}}); err == nil {
		t.Error("ragged streams accepted")
	}
}

func TestCovarianceSingleTone(t *testing.T) {
	// One plane wave, no noise: R must be amp^2 * a a^H.
	arr := antenna.NewHalfWaveULA(4, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{60}, []float64{2}, 300, 500, 1)
	r := cov(t, streams)
	if !r.IsHermitian(1e-9) {
		t.Error("covariance not Hermitian")
	}
	// Rank ~1: second eigenvalue tiny.
	e, err := cmat.HermEig(r)
	if err != nil {
		t.Fatal(err)
	}
	if e.Values[1] > 1e-6*e.Values[0] {
		t.Errorf("noise-free single source should be rank 1: %v", e.Values)
	}
}

func TestMUSICSingleSourceULA(t *testing.T) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	grid := arr.ScanGrid(0.5)
	for _, bearing := range []float64{30, 60, 90, 120, 150} {
		streams := synthStreams(arr, []float64{bearing}, []float64{1}, 20, 400, 2)
		est := &MUSIC{Sources: 1}
		ps, err := est.Pseudospectrum(cov(t, streams), arr, grid)
		if err != nil {
			t.Fatal(err)
		}
		if got := ps.PeakBearing(); math.Abs(got-bearing) > 1.5 {
			t.Errorf("bearing %v: MUSIC peak at %v", bearing, got)
		}
	}
}

func TestMUSICSingleSourceUCA(t *testing.T) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	grid := arr.ScanGrid(1)
	for _, bearing := range []float64{0, 45, 123, 217, 300, 359} {
		streams := synthStreams(arr, []float64{bearing}, []float64{1}, 20, 400, 3)
		est := &MUSIC{Sources: 1}
		ps, err := est.Pseudospectrum(cov(t, streams), arr, grid)
		if err != nil {
			t.Fatal(err)
		}
		got := ps.PeakBearing()
		if angularSep(got, bearing) > 2.5 {
			t.Errorf("bearing %v: UCA MUSIC peak at %v", bearing, got)
		}
	}
}

func TestMUSICTwoIncoherentSources(t *testing.T) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	grid := arr.ScanGrid(0.5)
	streams := synthStreams(arr, []float64{60, 120}, []float64{1, 0.8}, 25, 800, 4)
	est := &MUSIC{Sources: 2}
	ps, err := est.Pseudospectrum(cov(t, streams), arr, grid)
	if err != nil {
		t.Fatal(err)
	}
	peaks := ps.Peaks(10, 20)
	if len(peaks) < 2 {
		t.Fatalf("found %d peaks, want >= 2", len(peaks))
	}
	found60, found120 := false, false
	for _, p := range peaks[:2] {
		if math.Abs(p.BearingDeg-60) < 3 {
			found60 = true
		}
		if math.Abs(p.BearingDeg-120) < 3 {
			found120 = true
		}
	}
	if !found60 || !found120 {
		t.Errorf("peaks %v do not cover 60 and 120", peaks)
	}
}

func TestMUSICResolutionImprovesWithAntennas(t *testing.T) {
	// Two sources 20 degrees apart: 8 antennas resolve them, 2 cannot.
	full := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	bearings := []float64{80, 100}
	amps := []float64{1, 0.9}

	resolve := func(n int) bool {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		arr := full.Subarray(idx...)
		streams := synthStreams(arr, bearings, amps, 25, 800, 5)
		est := &MUSIC{Sources: 2}
		ps, err := est.Pseudospectrum(cov(t, streams), arr, arr.ScanGrid(0.5))
		if err != nil {
			t.Fatal(err)
		}
		peaks := ps.Peaks(8, 15)
		if len(peaks) < 2 {
			return false
		}
		ok80 := math.Abs(peaks[0].BearingDeg-80) < 5 || math.Abs(peaks[1].BearingDeg-80) < 5
		ok100 := math.Abs(peaks[0].BearingDeg-100) < 5 || math.Abs(peaks[1].BearingDeg-100) < 5
		return ok80 && ok100
	}
	if !resolve(8) {
		t.Error("8 antennas failed to resolve 20-degree separation")
	}
	if resolve(2) {
		t.Error("2 antennas unexpectedly resolved 20-degree separation")
	}
}

func TestBartlettSingleSource(t *testing.T) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{75}, []float64{1}, 20, 400, 6)
	ps, err := Bartlett{}.Pseudospectrum(cov(t, streams), arr, arr.ScanGrid(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.PeakBearing(); math.Abs(got-75) > 2.5 {
		t.Errorf("Bartlett peak at %v, want 75", got)
	}
}

func TestMVDRSingleSource(t *testing.T) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{105}, []float64{1}, 20, 400, 7)
	ps, err := MVDR{}.Pseudospectrum(cov(t, streams), arr, arr.ScanGrid(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.PeakBearing(); math.Abs(got-105) > 2.5 {
		t.Errorf("MVDR peak at %v, want 105", got)
	}
}

func TestMUSICSharperThanBartlett(t *testing.T) {
	// Peak width at -3 dB: MUSIC should be narrower than Bartlett.
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{90}, []float64{1}, 25, 800, 8)
	r := cov(t, streams)
	grid := arr.ScanGrid(0.25)

	width := func(e Estimator) float64 {
		ps, err := e.Pseudospectrum(r, arr, grid)
		if err != nil {
			t.Fatal(err)
		}
		db := ps.NormalizedDB()
		count := 0
		for _, v := range db {
			if v > -3 {
				count++
			}
		}
		return float64(count) * 0.25
	}
	wm := width(&MUSIC{Sources: 1})
	wb := width(Bartlett{})
	if wm >= wb {
		t.Errorf("MUSIC width %v not sharper than Bartlett %v", wm, wb)
	}
}

func TestForwardBackwardPreservesSingleSource(t *testing.T) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{70}, []float64{1}, 20, 400, 9)
	r := ForwardBackward(cov(t, streams))
	if !r.IsHermitian(1e-9) {
		t.Error("FB result not Hermitian")
	}
	ps, err := (&MUSIC{Sources: 1}).Pseudospectrum(r, arr, arr.ScanGrid(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.PeakBearing(); math.Abs(got-70) > 2 {
		t.Errorf("FB MUSIC peak at %v, want 70", got)
	}
}

// coherentStreams builds two fully-coherent paths (same symbol stream,
// fixed relative phase) — the multipath regime where plain MUSIC breaks
// and smoothing is required.
func coherentStreams(arr *antenna.Array, b1, b2 float64, g2 complex128, snrDB float64, nSamp int, seed int64) [][]complex128 {
	src := rng.New(seed)
	n := arr.N()
	s1 := arr.Steering(b1)
	s2 := arr.Steering(b2)
	streams := make([][]complex128, n)
	for a := range streams {
		streams[a] = make([]complex128, nSamp)
	}
	for t := 0; t < nSamp; t++ {
		sym := src.ComplexGaussian(1)
		for a := 0; a < n; a++ {
			streams[a][t] += sym * (s1[a] + g2*s2[a])
		}
	}
	var sp float64
	for a := 0; a < n; a++ {
		for _, v := range streams[a] {
			sp += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	sp /= float64(n * nSamp)
	sigma2 := sp / math.Pow(10, snrDB/10)
	for a := 0; a < n; a++ {
		src.AddAWGN(streams[a], sigma2)
	}
	return streams
}

func TestSpatialSmoothingResolvesCoherentPaths(t *testing.T) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	streams := coherentStreams(arr, 60, 120, 0.7i, 30, 1000, 10)
	r := cov(t, streams)

	// Smoothed: 5-element subarrays out of 8.
	rs, err := SpatialSmooth(ForwardBackward(r), 5)
	if err != nil {
		t.Fatal(err)
	}
	sub := arr.Subarray(0, 1, 2, 3, 4)
	ps, err := (&MUSIC{Sources: 2}).Pseudospectrum(rs, sub, sub.ScanGrid(0.5))
	if err != nil {
		t.Fatal(err)
	}
	peaks := ps.Peaks(10, 15)
	if len(peaks) < 2 {
		t.Fatalf("smoothed MUSIC found %d peaks", len(peaks))
	}
	got60, got120 := false, false
	for _, p := range peaks[:2] {
		if math.Abs(p.BearingDeg-60) < 6 {
			got60 = true
		}
		if math.Abs(p.BearingDeg-120) < 6 {
			got120 = true
		}
	}
	if !got60 || !got120 {
		t.Errorf("smoothed peaks %v do not cover 60/120", peaks)
	}
}

func TestSpatialSmoothErrors(t *testing.T) {
	r := cmat.Identity(4)
	if _, err := SpatialSmooth(r, 1); err == nil {
		t.Error("sub=1 accepted")
	}
	if _, err := SpatialSmooth(r, 5); err == nil {
		t.Error("sub>m accepted")
	}
	out, err := SpatialSmooth(r, 3)
	if err != nil || out.Rows != 3 {
		t.Errorf("smooth: %v, %v", out, err)
	}
}

func TestMDLAndAICSourceCount(t *testing.T) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	for _, nSrc := range []int{1, 2, 3} {
		bearings := []float64{50, 90, 140}[:nSrc]
		amps := []float64{1, 1, 1}[:nSrc]
		streams := synthStreams(arr, bearings, amps, 20, 1000, int64(11+nSrc))
		r := cov(t, streams)
		e, err := cmat.HermEig(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := MDLSources(e.Values, 1000); got != nSrc {
			t.Errorf("MDL: %d sources detected, want %d", got, nSrc)
		}
		if got := AICSources(e.Values, 1000); got < nSrc {
			t.Errorf("AIC: %d sources detected, want >= %d", got, nSrc)
		}
	}
}

func TestMUSICAutoSourceCount(t *testing.T) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{60, 120}, []float64{1, 1}, 20, 1000, 14)
	est := &MUSIC{Sources: 0, Samples: 1000} // MDL decides
	ps, err := est.Pseudospectrum(cov(t, streams), arr, arr.ScanGrid(0.5))
	if err != nil {
		t.Fatal(err)
	}
	peaks := ps.Peaks(10, 15)
	if len(peaks) < 2 {
		t.Fatalf("auto MUSIC found %d peaks", len(peaks))
	}
}

func TestEstimatorDimensionMismatch(t *testing.T) {
	arr := antenna.NewHalfWaveULA(4, antenna.DefaultCarrierHz)
	r := cmat.Identity(8)
	grid := arr.ScanGrid(1)
	for _, e := range []Estimator{&MUSIC{Sources: 1}, Bartlett{}, MVDR{}} {
		if _, err := e.Pseudospectrum(r, arr, grid); err == nil {
			t.Errorf("%s accepted mismatched covariance", e.Name())
		}
	}
}

func TestEstimatorNames(t *testing.T) {
	if (&MUSIC{}).Name() != "MUSIC" || (Bartlett{}).Name() != "Bartlett" || (MVDR{}).Name() != "MVDR" {
		t.Error("estimator names")
	}
}

func TestPeaksEdgeCases(t *testing.T) {
	empty := &Pseudospectrum{}
	if empty.Peaks(5, 20) != nil {
		t.Error("empty pseudospectrum produced peaks")
	}
	// Monotone ramp: single endpoint peak.
	ps := &Pseudospectrum{AnglesDeg: []float64{0, 1, 2, 3}, P: []float64{1, 2, 3, 4}}
	peaks := ps.Peaks(0.5, 30)
	if len(peaks) != 1 || peaks[0].BearingDeg != 3 {
		t.Errorf("ramp peaks = %v", peaks)
	}
}

func TestNormalizedDB(t *testing.T) {
	ps := &Pseudospectrum{AnglesDeg: []float64{0, 1}, P: []float64{1, 10}}
	db := ps.NormalizedDB()
	if math.Abs(db[1]) > 1e-12 || math.Abs(db[0]+10) > 1e-9 {
		t.Errorf("NormalizedDB = %v", db)
	}
}

// TestCovarianceIntoPairwiseBitwise checks the two-entries-per-pass
// covariance against one pass per entry (the form it replaced), bit for
// bit, for even and odd array sizes (so rows end both on a pair and on
// a single entry).
func TestCovarianceIntoPairwiseBitwise(t *testing.T) {
	for m := 2; m <= 9; m++ {
		arr := antenna.NewHalfWaveULA(m, antenna.DefaultCarrierHz)
		streams := synthStreams(arr, []float64{60}, []float64{1}, 20, 301, int64(m))
		var r cmat.Matrix
		if _, err := CovarianceInto(&r, streams); err != nil {
			t.Fatal(err)
		}
		inv := 1 / float64(len(streams[0]))
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				var re, im float64
				for tt := range streams[i] {
					a, b := streams[i][tt], streams[j][tt]
					re += real(a)*real(b) + imag(a)*imag(b)
					im += imag(a)*real(b) - real(a)*imag(b)
				}
				re *= inv
				im *= inv
				want := complex(re, im)
				if i == j {
					want = complex(re, 0)
				}
				if got := r.At(i, j); got != want {
					t.Fatalf("m=%d R[%d][%d] = %v, one pass per entry gives %v", m, i, j, got, want)
				}
				if got := r.At(j, i); got != complex(real(want), -imag(want)) && i != j {
					t.Fatalf("m=%d R[%d][%d] = %v, not the conjugate of R[%d][%d]", m, j, i, got, i, j)
				}
			}
		}
	}
}

// BenchmarkCovarianceInto8x900 prices the per-packet covariance at a
// typical packet extent.
func BenchmarkCovarianceInto8x900(b *testing.B) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{60}, []float64{1}, 20, 900, 15)
	var r cmat.Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CovarianceInto(&r, streams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCovariance8x2000(b *testing.B) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{60}, []float64{1}, 20, 2000, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Covariance(streams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMUSICPseudospectrum(b *testing.B) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	streams := synthStreams(arr, []float64{60}, []float64{1}, 20, 500, 16)
	r, err := Covariance(streams)
	if err != nil {
		b.Fatal(err)
	}
	grid := arr.ScanGrid(1)
	est := &MUSIC{Sources: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Pseudospectrum(r, arr, grid); err != nil {
			b.Fatal(err)
		}
	}
}
