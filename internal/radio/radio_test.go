package radio

import (
	"math"
	"testing"

	"secureangle/internal/antenna"
	"secureangle/internal/dsp"
	"secureangle/internal/env"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/pool"
	"secureangle/internal/rng"
)

func freeSpace() *env.Environment {
	e := env.New(nil, nil)
	e.MaxOrder = 0
	return e
}

func testPacket(t testing.TB) []complex128 {
	t.Helper()
	mod := ofdm.NewModulator(ofdm.DefaultParams())
	return mod.BuildPadded([]byte("secureangle-test-payload-0123456789"), ofdm.QPSK, 200, 200)
}

func TestNewFrontEndDefaults(t *testing.T) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	fe := NewFrontEnd(arr, geom.Point{X: 1, Y: 2}, rng.New(1))
	if len(fe.PhaseOffsets) != 8 {
		t.Fatalf("offsets = %d", len(fe.PhaseOffsets))
	}
	var distinct bool
	for i := 1; i < 8; i++ {
		if fe.PhaseOffsets[i] != fe.PhaseOffsets[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Error("phase offsets not randomised")
	}
}

func TestOptions(t *testing.T) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	off := make([]float64, 8)
	off[3] = 1.5
	fe := NewFrontEnd(arr, geom.Point{}, rng.New(2),
		WithCFO(12e3), WithSNR(31), WithQuantization(10), WithPhaseOffsets(off))
	if fe.CFOHz != 12e3 || fe.SNRdB != 31 || fe.QuantBits != 10 {
		t.Errorf("options not applied: %+v", fe)
	}
	if fe.PhaseOffsets[3] != 1.5 || fe.PhaseOffsets[0] != 0 {
		t.Error("WithPhaseOffsets not applied")
	}
}

func TestReceiveShapeAndErrors(t *testing.T) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	fe := NewFrontEnd(arr, geom.Point{}, rng.New(3))
	tx := geom.Point{X: 5, Y: 3}
	bb := testPacket(t)
	streams, err := fe.Receive(freeSpace(), tx, bb)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 8 {
		t.Fatalf("streams = %d", len(streams))
	}
	for _, s := range streams {
		if len(s) != len(bb) {
			t.Fatal("stream length mismatch")
		}
	}
	if _, err := fe.Receive(freeSpace(), tx, nil); err == nil {
		t.Error("empty baseband accepted")
	}
}

// pipelineBearing runs env -> radio -> covariance -> MUSIC and returns the
// estimated bearing.
func pipelineBearing(t *testing.T, fe *FrontEnd, e *env.Environment, tx geom.Point, calibrate bool) float64 {
	t.Helper()
	bb := testPacket(t)
	streams, err := fe.Receive(e, tx, bb)
	if err != nil {
		t.Fatal(err)
	}
	if calibrate {
		ApplyCalibration(streams, fe.Calibrate(2000))
	}
	r, err := music.Covariance(streams)
	if err != nil {
		t.Fatal(err)
	}
	// MDL-chosen source count: under coherent multipath the packet's
	// delay spread leaves a partially-decorrelated covariance whose
	// effective rank MDL recovers; a hardcoded single source would bias
	// the peak toward a blend of direct and reflected bearings.
	est := &music.MUSIC{Sources: 0, Samples: len(streams[0])}
	ps, err := est.Pseudospectrum(r, fe.Array, fe.Array.ScanGrid(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return ps.PeakBearing()
}

func TestEndToEndBearingWithCalibration(t *testing.T) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	ap := geom.Point{X: 0, Y: 0}
	for _, want := range []float64{30, 117, 245, 331} {
		fe := NewFrontEnd(arr, ap, rng.New(4), WithSNR(25))
		tx := geom.PointAt(ap, want, 6)
		got := pipelineBearing(t, fe, freeSpace(), tx, true)
		if geom.AngularDistDeg(got, want) > 2.5 {
			t.Errorf("bearing %v: pipeline estimated %v", want, got)
		}
	}
}

func TestUncalibratedArrayFails(t *testing.T) {
	// Without removing the downconverter phases, MUSIC's bearing is
	// garbage — this is the whole point of section 2.2.
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	ap := geom.Point{X: 0, Y: 0}
	const want = 117.0
	var worst float64
	// A few random offset draws: at least one must break badly. (A single
	// draw could by luck be near-benign, so check the max error.)
	for seed := int64(10); seed < 15; seed++ {
		fe := NewFrontEnd(arr, ap, rng.New(seed), WithSNR(25))
		tx := geom.PointAt(ap, want, 6)
		got := pipelineBearing(t, fe, freeSpace(), tx, false)
		worst = math.Max(worst, geom.AngularDistDeg(got, want))
	}
	if worst < 10 {
		t.Errorf("uncalibrated worst error only %v degrees; expected gross failure", worst)
	}
}

func TestCalibrationEstimateAccuracy(t *testing.T) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	fe := NewFrontEnd(arr, geom.Point{}, rng.New(5))
	got := fe.Calibrate(4000)
	for a := 1; a < 8; a++ {
		want := dsp.WrapPhase(fe.PhaseOffsets[a] - fe.PhaseOffsets[0])
		diff := math.Abs(dsp.WrapPhase(got[a] - want))
		if diff > 0.01 {
			t.Errorf("chain %d offset error %v rad", a, diff)
		}
	}
	if got[0] != 0 {
		t.Error("reference chain offset must be zero")
	}
}

func TestCalibrationIdempotentOnCalibratedStreams(t *testing.T) {
	// After applying calibration, re-estimating offsets from freshly
	// calibrated captures should give ~zero.
	arr := antenna.NewUCA(4, 0.047, antenna.DefaultCarrierHz)
	fe := NewFrontEnd(arr, geom.Point{}, rng.New(6))
	offsets := fe.Calibrate(4000)
	cap2 := fe.CalibrationCapture(4000)
	ApplyCalibration(cap2, offsets)
	resid := EstimateOffsets(cap2)
	for a, r := range resid {
		if math.Abs(dsp.WrapPhase(r)) > 0.02 {
			t.Errorf("chain %d residual %v rad", a, r)
		}
	}
}

func TestCFODoesNotBreakBearing(t *testing.T) {
	// Common CFO multiplies every chain identically and cancels in the
	// covariance — the pipeline must still find the bearing.
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	ap := geom.Point{X: 0, Y: 0}
	fe := NewFrontEnd(arr, ap, rng.New(7), WithSNR(25), WithCFO(50e3))
	tx := geom.PointAt(ap, 200, 6)
	got := pipelineBearing(t, fe, freeSpace(), tx, true)
	if geom.AngularDistDeg(got, 200) > 2.5 {
		t.Errorf("bearing with CFO = %v, want 200", got)
	}
}

func TestQuantizationMildlyDegrades(t *testing.T) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	ap := geom.Point{X: 0, Y: 0}
	fe := NewFrontEnd(arr, ap, rng.New(8), WithSNR(25), WithQuantization(12))
	tx := geom.PointAt(ap, 77, 6)
	got := pipelineBearing(t, fe, freeSpace(), tx, true)
	if geom.AngularDistDeg(got, 77) > 3 {
		t.Errorf("bearing with 12-bit ADC = %v, want 77", got)
	}
}

func TestMultipathStrongestPeakIsDirect(t *testing.T) {
	// Client and AP in a room: the pseudospectrum's highest peak should
	// be the direct path (section 3.1's common case).
	walls := []env.Wall{
		{Seg: geom.Segment{A: geom.Point{X: -8, Y: -6}, B: geom.Point{X: 8, Y: -6}}, Mat: env.Concrete, Name: "s"},
		{Seg: geom.Segment{A: geom.Point{X: 8, Y: -6}, B: geom.Point{X: 8, Y: 6}}, Mat: env.Concrete, Name: "e"},
		{Seg: geom.Segment{A: geom.Point{X: 8, Y: 6}, B: geom.Point{X: -8, Y: 6}}, Mat: env.Concrete, Name: "n"},
		{Seg: geom.Segment{A: geom.Point{X: -8, Y: 6}, B: geom.Point{X: -8, Y: -6}}, Mat: env.Concrete, Name: "w"},
	}
	e := env.New(walls, nil)
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	ap := geom.Point{X: 0, Y: 0}
	fe := NewFrontEnd(arr, ap, rng.New(9), WithSNR(25))
	tx := geom.Point{X: 5, Y: 2.5}
	want := geom.BearingDeg(ap, tx)
	got := pipelineBearing(t, fe, e, tx, true)
	if geom.AngularDistDeg(got, want) > 4 {
		t.Errorf("multipath bearing = %v, want %v", got, want)
	}
}

func TestQuantizeLevels(t *testing.T) {
	for _, v := range []float64{0.124, -0.52, 3.9, 0} {
		q := quantize(v, 1.0, 0.5) // 2-bit: step = 0.5 over [-1, 1]
		if math.Abs(q/0.5-math.Round(q/0.5)) > 1e-12 {
			t.Errorf("quantized %v = %v, not on grid", v, q)
		}
		if q > 1 || q < -1 {
			t.Errorf("quantized value out of range: %v -> %v", v, q)
		}
	}
}

func TestFullyBlockedClient(t *testing.T) {
	// A client with every path below the gain floor yields an error.
	e := env.New(nil, nil)
	e.MaxOrder = 0
	e.MinGain = 2 // floor above the only path's own gain is impossible; use obstacle instead
	wall := env.Wall{Seg: geom.Segment{A: geom.Point{X: 2, Y: -50}, B: geom.Point{X: 2, Y: 50}}, Mat: env.Material{Reflection: 0, Transmission: 0}, Name: "shield"}
	e2 := env.New([]env.Wall{wall}, nil)
	e2.MaxOrder = 0
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	fe := NewFrontEnd(arr, geom.Point{}, rng.New(11))
	_, err := fe.Receive(e2, geom.Point{X: 5, Y: 0}, testPacket(t))
	if err == nil {
		t.Error("fully blocked client should error")
	}
	_ = e
}

// BenchmarkReceive8Antennas times one 8-antenna capture. "retransmit"
// sends the same baseband every iteration, so after its first two calls
// it replays the clean-capture cache and prices impairment alone. "unique"
// perturbs one lead-in sample per iteration, so every call misses that
// cache and synthesises the channel through PrepareReceive (noise fork
// included) and ReceivePreparedArena, drawing its buffers from an arena
// as a live AP does. "prepared" is the same path at the end-to-end
// workload's frame size — a 64-byte payload padded to 1480 samples, so
// m = 2048 — under an absolute noise floor.
func BenchmarkReceive8Antennas(b *testing.B) {
	arr := antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
	e := freeSpace()
	tx := geom.Point{X: 5, Y: 3}
	mod := ofdm.NewModulator(ofdm.DefaultParams())
	payload := []byte("bench-payload-0123456789abcdef")
	b.Run("retransmit", func(b *testing.B) {
		fe := NewFrontEnd(arr, geom.Point{}, rng.New(12))
		bb := mod.BuildPadded(payload, ofdm.QPSK, 200, 200)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fe.Receive(e, tx, bb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unique", func(b *testing.B) {
		fe := NewFrontEnd(arr, geom.Point{}, rng.New(12))
		bb := mod.BuildPadded(payload, ofdm.QPSK, 200, 200)
		ar := pool.NewArena(0, 0, 0)
		receive := func(i int) {
			ar.Reset()
			bb[0] = complex(float64(i+1)*1e-9, 0) // a new frame: misses the clean-capture cache
			p, err := fe.PrepareReceive(e, tx, len(bb))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fe.ReceivePreparedArena(&p, bb, ar); err != nil {
				b.Fatal(err)
			}
		}
		for i := -4; i < 0; i++ {
			receive(i) // grow the arena to its high-water mark, resolve the channel
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			receive(i)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		fe := NewFrontEnd(arr, geom.Point{}, rng.New(12), WithNoiseFloor(4e-9))
		bb := mod.BuildPadded(make([]byte, 92), ofdm.QPSK, 300, 300) // 64-byte payload + 28-byte MAC header and FCS
		if len(bb) != 1480 {
			b.Fatalf("frame is %d samples, want 1480", len(bb))
		}
		ar := pool.NewArena(0, 0, 0)
		receive := func(i int) {
			ar.Reset()
			bb[0] = complex(float64(i+1)*1e-9, 0) // a new frame: misses the clean-capture cache
			p, err := fe.PrepareReceive(e, tx, len(bb))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fe.ReceivePreparedArena(&p, bb, ar); err != nil {
				b.Fatal(err)
			}
		}
		for i := -4; i < 0; i++ {
			receive(i) // grow the arena, resolve the channel, pool a noise state
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			receive(i)
		}
	})
}
