// Benchmarks that regenerate every table and figure of the paper's
// evaluation (section 3). Each bench wraps the corresponding experiment
// driver and reports the paper's headline quantity as a custom metric, so
// `go test -bench=. -benchmem` both times the pipeline and reproduces the
// result:
//
//	BenchmarkFig5BearingSweep    deg-meanCI99      (paper: ~7 deg)
//	BenchmarkFig6Stability       deg-directSpread  (paper: direct peak stable)
//	BenchmarkFig7Antennas        peaks-8ant        (paper: direct + reflection resolved)
//	BenchmarkAccuracyClaim       frac-within2.5deg (paper: ~0.75)
//	BenchmarkFenceLocalization   m-medianLocErr
//	BenchmarkFenceDecision       frac-correct
//	BenchmarkSpoofDetection      frac-detected     (and frac-rssDetected for the baseline)
//	BenchmarkEstimatorAblation   deg-MUSIC / deg-Bartlett / deg-MVDR
//	BenchmarkCalibrationAblation deg-withCal / deg-withoutCal
//	BenchmarkPacketVsSample      deg-packet / deg-sample
//	BenchmarkSmoothingAblation   deg-smoothed / deg-plain (coherent two-path ULA)
//	BenchmarkPipelinePerPacket   end-to-end per-packet cost of one AP
package secureangle

import (
	"context"
	"fmt"
	"math"
	"testing"

	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/experiments"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/rng"
	"secureangle/internal/testbed"
)

func BenchmarkFig5BearingSweep(b *testing.B) {
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		// 8 packets per client: enough degrees of freedom that the 99%
		// Student-t half-width is not inflated by the tiny-sample
		// critical value (t(0.99, 2) ~ 9.9 would swamp the physics).
		res, err := experiments.RunFig5(int64(i+1), 8)
		if err != nil {
			b.Fatal(err)
		}
		last = res.MeanCI99
	}
	b.ReportMetric(last, "deg-meanCI99")
}

func BenchmarkFig6Stability(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		spread = 0
		for _, c := range res.Clients {
			spread = math.Max(spread, c.DirectPeakSpreadDeg)
		}
	}
	b.ReportMetric(spread, "deg-directSpread")
}

func BenchmarkFig7Antennas(b *testing.B) {
	b.ReportAllocs()
	var peaks8 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Antennas == 8 {
				peaks8 = float64(row.PeakCount)
			}
		}
	}
	b.ReportMetric(peaks8, "peaks-8ant")
}

func BenchmarkAccuracyClaim(b *testing.B) {
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAccuracy(int64(i+1), 4)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.FractionWithin2_5
	}
	b.ReportMetric(frac, "frac-within2.5deg")
}

func BenchmarkFenceLocalization(b *testing.B) {
	b.ReportAllocs()
	var med float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFence(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		med = res.MedianLocErrM
	}
	b.ReportMetric(med, "m-medianLocErr")
}

func BenchmarkFenceDecision(b *testing.B) {
	b.ReportAllocs()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFence(int64(i + 100))
		if err != nil {
			b.Fatal(err)
		}
		rate = res.CorrectRate
	}
	b.ReportMetric(rate, "frac-correct")
}

func BenchmarkSpoofDetection(b *testing.B) {
	b.ReportAllocs()
	var aoa, rss float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSpoof(int64(i+1), 5, 5)
		if err != nil {
			b.Fatal(err)
		}
		aoa, rss = res.AoADetectionRate, res.RSSDetectionRate
	}
	b.ReportMetric(aoa, "frac-detected")
	b.ReportMetric(rss, "frac-rssDetected")
}

func BenchmarkEstimatorAblation(b *testing.B) {
	b.ReportAllocs()
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunEstimatorAblation(int64(i+1), 2)
		if err != nil {
			b.Fatal(err)
		}
		m = res.MeanErrDeg
	}
	b.ReportMetric(m["MUSIC"], "deg-MUSIC")
	b.ReportMetric(m["Bartlett"], "deg-Bartlett")
	b.ReportMetric(m["MVDR"], "deg-MVDR")
}

func BenchmarkCalibrationAblation(b *testing.B) {
	b.ReportAllocs()
	var with, without float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCalibrationAblation(int64(i+1), 3)
		if err != nil {
			b.Fatal(err)
		}
		with, without = res.WithCalDeg, res.WithoutCalDeg
	}
	b.ReportMetric(with, "deg-withCal")
	b.ReportMetric(without, "deg-withoutCal")
}

func BenchmarkPacketVsSample(b *testing.B) {
	b.ReportAllocs()
	var pkt, smp float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPacketVsSample(int64(i+1), 5)
		if err != nil {
			b.Fatal(err)
		}
		pkt, smp = res.WholePacketDeg, res.SingleSampleDeg
	}
	b.ReportMetric(pkt, "deg-packet")
	b.ReportMetric(smp, "deg-sample")
}

// BenchmarkSmoothingAblation measures forward-backward + spatial
// smoothing against plain MUSIC on a fully-coherent two-path ULA channel
// (the design choice DESIGN.md calls out).
func BenchmarkSmoothingAblation(b *testing.B) {
	arr := antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
	const b1, b2 = 60.0, 120.0
	src := rng.New(1)
	s1 := arr.Steering(b1)
	s2 := arr.Steering(b2)
	const nSamp = 1000
	streams := make([][]complex128, 8)
	for a := range streams {
		streams[a] = make([]complex128, nSamp)
	}
	for t := 0; t < nSamp; t++ {
		sym := src.ComplexGaussian(1)
		for a := 0; a < 8; a++ {
			streams[a][t] = sym * (s1[a] + 0.7i*s2[a])
		}
	}
	for a := 0; a < 8; a++ {
		src.AddAWGN(streams[a], 0.001)
	}
	r, err := music.Covariance(streams)
	if err != nil {
		b.Fatal(err)
	}

	// Worst-case bearing error over the top two peaks (30 dB floor: a
	// smoothed covariance's second path recovers exactly but ~20 dB down).
	// Plain MUSIC on the coherent covariance yields peaks biased several
	// degrees off both paths; smoothing removes the bias.
	errOf := func(ps *music.Pseudospectrum) float64 {
		peaks := ps.Peaks(10, 30)
		if len(peaks) > 2 {
			peaks = peaks[:2]
		}
		worst := 0.0
		for _, truth := range []float64{b1, b2} {
			best := 180.0
			for _, p := range peaks {
				best = math.Min(best, geom.AngularDistDeg(p.BearingDeg, truth))
			}
			worst = math.Max(worst, best)
		}
		return worst
	}

	var plainErr, smoothErr float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psPlain, err := (&music.MUSIC{Sources: 2}).Pseudospectrum(r, arr, arr.ScanGrid(0.5))
		if err != nil {
			b.Fatal(err)
		}
		plainErr = errOf(psPlain)

		rs, err := music.SpatialSmooth(music.ForwardBackward(r), 5)
		if err != nil {
			b.Fatal(err)
		}
		sub := arr.Subarray(0, 1, 2, 3, 4)
		psSmooth, err := (&music.MUSIC{Sources: 2}).Pseudospectrum(rs, sub, sub.ScanGrid(0.5))
		if err != nil {
			b.Fatal(err)
		}
		smoothErr = errOf(psSmooth)
	}
	b.ReportMetric(plainErr, "deg-plain")
	b.ReportMetric(smoothErr, "deg-smoothed")
}

// BenchmarkPipelinePerPacket times the per-packet cost of one AP on the
// cached-capture path: every iteration sends the same testbed frame,
// so after its first two calls the receive replays the clean
// capture and applies live impairments instead of synthesising the
// channel; detection, correlation, eigendecomposition and the MUSIC scan
// run in full. internal/radio's BenchmarkReceive8Antennas/unique prices
// the synthesis this skips.
func BenchmarkPipelinePerPacket(b *testing.B) {
	ap := testAP(b, "bench", 1)
	ctx := context.Background()
	client, err := Client(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := observeTestbedFrame(ctx, ap, client); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveBatch measures the batched observation pipeline —
// serial channel synthesis ordering, then detect/calibrate/covariance/
// eigendecomposition/manifold-scan fanned out on a bounded worker pool.
// The "serial" rows run the same transmissions through one-at-a-time
// Observe calls as the baseline; the "pooled" rows use ObserveBatch with
// the pool bounded by GOMAXPROCS. Each op is one whole batch, so compare
// ns/op at equal batch size, and sweep parallelism with e.g.
//
//	go test -bench ObserveBatch -cpu 1,2,4
func BenchmarkObserveBatch(b *testing.B) {
	clients := make([]TestbedClient, 0, 20)
	for id := 1; id <= 20; id++ {
		c, err := Client(id)
		if err != nil {
			b.Fatal(err)
		}
		clients = append(clients, c)
	}
	makeItems := func(batch int) []BatchItem {
		items := make([]BatchItem, batch)
		for i := range items {
			c := clients[i%len(clients)]
			bb, err := testbed.FrameBaseband(testbed.UplinkFrame(c.ID, uint16(i), []byte("uplink")), ofdm.QPSK)
			if err != nil {
				b.Fatal(err)
			}
			items[i] = BatchItem{TX: c.Pos, Baseband: bb}
		}
		return items
	}

	for _, batch := range []int{8, 32} {
		items := makeItems(batch)

		b.Run(fmt.Sprintf("batch=%d/serial", batch), func(b *testing.B) {
			ap := testAP(b, "bench", 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, it := range items {
					if _, err := ap.Observe(it.TX, it.Baseband); err != nil {
						b.Fatal(err)
					}
				}
			}
		})

		b.Run(fmt.Sprintf("batch=%d/pooled", batch), func(b *testing.B) {
			// Workers = 0: the pool follows GOMAXPROCS (the -cpu sweep).
			ap := testAP(b, "bench", 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := ap.ObserveBatch(items)
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkStreamIngest compares the AP's streaming handle against
// per-call Observe at several batch sizes. The "observe" rows push
// each batch through one-at-a-time ctx-aware Observe calls; the
// "stream" rows submit the batch to an open Stream and wait for all of
// its ordered results. Each op is one whole batch, so compare ns/op at
// equal batch size; parallel gains appear with -cpu > 1 (this mirrors
// BenchmarkObserveBatch's serial/pooled split, but through the
// always-on handle with backpressure and reordering on the path).
func BenchmarkStreamIngest(b *testing.B) {
	ctx := context.Background()
	makeItems := func(batch int) []BatchItem {
		items := make([]BatchItem, batch)
		for i := range items {
			c, err := Client(i%20 + 1)
			if err != nil {
				b.Fatal(err)
			}
			it, err := TestbedBatchItem(c, uint16(i))
			if err != nil {
				b.Fatal(err)
			}
			items[i] = it
		}
		return items
	}

	for _, batch := range []int{1, 16, 64} {
		items := makeItems(batch)

		b.Run(fmt.Sprintf("batch=%d/observe", batch), func(b *testing.B) {
			ap := testAP(b, "bench", 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, it := range items {
					if _, err := ap.ObserveContext(ctx, it.TX, it.Baseband); err != nil {
						b.Fatal(err)
					}
				}
			}
		})

		b.Run(fmt.Sprintf("batch=%d/stream", batch), func(b *testing.B) {
			s := testAP(b, "bench", 1).Stream(ctx, batch)
			defer s.Close()
			acks := make(chan struct{}, batch)
			go func() {
				for r := range s.Results() {
					if r.Err != nil {
						b.Error(r.Err)
					}
					acks <- struct{}{}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, it := range items {
					if _, err := s.Submit(ctx, it); err != nil {
						b.Fatal(err)
					}
				}
				for range items {
					<-acks
				}
			}
		})
	}
}

// BenchmarkHermEigCovariance isolates the numerical core: Hermitian
// eigendecomposition of an 8x8 packet covariance.
func BenchmarkHermEigCovariance(b *testing.B) {
	src := rng.New(2)
	m := cmat.New(8, 8)
	x := make([]complex128, 8)
	for t := 0; t < 500; t++ {
		for a := range x {
			x[a] = src.ComplexGaussian(1)
		}
		m.AccumulateOuter(x, x)
	}
	m.Hermitize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmat.HermEig(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMobilityTracking regenerates the section 5 mobility-trace
// extension, reporting the filtered RMSE.
func BenchmarkMobilityTracking(b *testing.B) {
	b.ReportAllocs()
	var raw, filt float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMobility(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		raw, filt = res.RawRMSE, res.FilteredRMSE
	}
	b.ReportMetric(raw, "m-rawRMSE")
	b.ReportMetric(filt, "m-filteredRMSE")
}

// BenchmarkDownlinkBeamforming regenerates the section 5 directional
// downlink extension, reporting the mean realised array gain.
func BenchmarkDownlinkBeamforming(b *testing.B) {
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBeamform(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		gain = res.MeanGainDB
	}
	b.ReportMetric(gain, "dB-meanGain")
}

// BenchmarkInterference regenerates the concurrent-transmitter
// experiment, reporting the both-bearing resolve rate.
func BenchmarkInterference(b *testing.B) {
	b.ReportAllocs()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunInterference(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		rate = res.ResolveRate
	}
	b.ReportMetric(rate, "frac-resolved")
}

// BenchmarkSNRSweep regenerates the robustness sweep, reporting the
// detection cliff.
func BenchmarkSNRSweep(b *testing.B) {
	b.ReportAllocs()
	var cliff float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSNRSweep(int64(i+1), 5)
		if err != nil {
			b.Fatal(err)
		}
		cliff = res.CliffdB
	}
	b.ReportMetric(cliff, "dB-detectionCliff")
}
