package experiments

import (
	"fmt"
	"strings"

	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/core"
	"secureangle/internal/detect"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/radio"
	"secureangle/internal/rng"
	"secureangle/internal/stats"
	"secureangle/internal/testbed"
)

// losClients are the unobstructed in-room clients used for controlled
// estimator comparisons.
var losClients = []int{1, 3, 5, 7, 8, 9}

// EstimatorAblation compares MUSIC against the Bartlett and MVDR
// baselines on the line-of-sight clients.
type EstimatorAblation struct {
	// MeanErrDeg maps estimator name to mean absolute bearing error.
	MeanErrDeg map[string]float64
	Packets    int
}

// RunEstimatorAblation measures each estimator's mean bearing error over
// the LoS clients.
func RunEstimatorAblation(seed int64, packets int) (*EstimatorAblation, error) {
	if packets <= 0 {
		packets = 5
	}
	res := &EstimatorAblation{MeanErrDeg: map[string]float64{}, Packets: packets}
	ests := []music.Estimator{
		&music.MUSIC{Sources: 0, Samples: 1000},
		music.Bartlett{},
		music.MVDR{},
	}
	for _, est := range ests {
		e, _ := testbed.Building()
		fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(seed))
		cfg := core.DefaultConfig()
		cfg.Estimator = est
		ap := core.NewAP("ablation", fe, e, cfg)
		var errs []float64
		for _, id := range losClients {
			c, _ := testbed.ClientByID(id)
			truth := testbed.GroundTruth(testbed.AP1, c.Pos)
			for pkt := 0; pkt < packets; pkt++ {
				rep, err := observe(ap, id, c.Pos, uint16(pkt))
				if err != nil {
					return nil, err
				}
				errs = append(errs, geom.AngularDistDeg(rep.BearingDeg, truth))
			}
		}
		res.MeanErrDeg[est.Name()] = stats.Mean(errs)
	}
	return res, nil
}

// Render prints the estimator comparison.
func (r *EstimatorAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Estimator ablation (LoS clients, %d packets each):\n", r.Packets)
	for _, name := range []string{"MUSIC", "Bartlett", "MVDR"} {
		fmt.Fprintf(&b, "  %-10s mean |err| = %.2f deg\n", name, r.MeanErrDeg[name])
	}
	return b.String()
}

// CalibrationAblation quantifies section 2.2: bearing error with and
// without the phase-offset calibration.
type CalibrationAblation struct {
	WithCalDeg    float64
	WithoutCalDeg float64
}

// RunCalibrationAblation measures client 5's bearing error with
// calibration applied versus skipped, across several random offset draws.
func RunCalibrationAblation(seed int64, draws int) (*CalibrationAblation, error) {
	if draws <= 0 {
		draws = 5
	}
	c5, err := testbed.ClientByID(5)
	if err != nil {
		return nil, err
	}
	truth := testbed.GroundTruth(testbed.AP1, c5.Pos)
	var withCal, withoutCal []float64
	for d := 0; d < draws; d++ {
		e, _ := testbed.Building()
		fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(seed+int64(d)))
		bb, err := testbed.FrameBaseband(testbed.UplinkFrame(5, uint16(d), nil), ofdm.QPSK)
		if err != nil {
			return nil, err
		}
		streams, err := fe.Receive(e, c5.Pos, bb)
		if err != nil {
			return nil, err
		}
		// Uncalibrated copy.
		raw := make([][]complex128, len(streams))
		for i, s := range streams {
			raw[i] = append([]complex128(nil), s...)
		}
		radio.ApplyCalibration(streams, fe.Calibrate(2000))

		for i, set := range [][][]complex128{streams, raw} {
			dets := detect.Find(set[0], detect.DefaultConfig())
			if len(dets) == 0 {
				return nil, core.ErrNotDetected
			}
			n := len(set[0]) - dets[0].Start
			if n > 2000 {
				n = 2000
			}
			win, _ := detect.ExtractAligned(set, dets[0], n)
			r, err := music.Covariance(win)
			if err != nil {
				return nil, err
			}
			est := &music.MUSIC{Sources: 0, Samples: n}
			ps, err := est.Pseudospectrum(r, fe.Array, fe.Array.ScanGrid(1))
			if err != nil {
				return nil, err
			}
			errDeg := geom.AngularDistDeg(ps.PeakBearing(), truth)
			if i == 0 {
				withCal = append(withCal, errDeg)
			} else {
				withoutCal = append(withoutCal, errDeg)
			}
		}
	}
	return &CalibrationAblation{
		WithCalDeg:    stats.Mean(withCal),
		WithoutCalDeg: stats.Mean(withoutCal),
	}, nil
}

// Render prints the calibration comparison.
func (r *CalibrationAblation) Render() string {
	return fmt.Sprintf("Calibration ablation (client 5): with cal %.1f deg, without cal %.1f deg\n",
		r.WithCalDeg, r.WithoutCalDeg)
}

// PacketVsSampleAblation quantifies the section 3 remark that estimates
// from one sample are noise-sensitive compared to whole-packet
// correlation.
type PacketVsSampleAblation struct {
	WholePacketDeg  float64
	SingleSampleDeg float64
	Trials          int
}

// RunPacketVsSample compares bearing error using the whole packet's
// covariance versus a single snapshot's rank-1 "covariance". Client 12
// (pillar-blocked, reflections within a few dB of the direct path) is the
// regime where single-sample estimates visibly suffer — one snapshot
// freezes an arbitrary phase alignment of the coherent paths, whereas the
// whole packet averages over the delay-spread decorrelation.
func RunPacketVsSample(seed int64, trials int) (*PacketVsSampleAblation, error) {
	if trials <= 0 {
		trials = 10
	}
	const clientID = 12
	e, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(seed))
	offsets := fe.Calibrate(2000)
	c5, err := testbed.ClientByID(clientID)
	if err != nil {
		return nil, err
	}
	truth := testbed.GroundTruth(testbed.AP1, c5.Pos)

	var whole, single []float64
	for trial := 0; trial < trials; trial++ {
		bb, err := testbed.FrameBaseband(testbed.UplinkFrame(clientID, uint16(trial), nil), ofdm.QPSK)
		if err != nil {
			return nil, err
		}
		streams, err := fe.Receive(e, c5.Pos, bb)
		if err != nil {
			return nil, err
		}
		radio.ApplyCalibration(streams, offsets)
		dets := detect.Find(streams[0], detect.DefaultConfig())
		if len(dets) == 0 {
			return nil, core.ErrNotDetected
		}
		n := len(streams[0]) - dets[0].Start
		if n > 2000 {
			n = 2000
		}
		win, _ := detect.ExtractAligned(streams, dets[0], n)

		for i, m := range []int{n, 1} {
			sub := make([][]complex128, len(win))
			// Single-sample case: pick a mid-packet snapshot (the
			// preamble head would be atypically clean).
			off := 0
			if m == 1 {
				off = n / 2
			}
			for a := range win {
				sub[a] = win[a][off : off+m]
			}
			r, err := music.Covariance(sub)
			if err != nil {
				return nil, err
			}
			est := &music.MUSIC{Sources: 1} // rank-1 input: one source is all there is
			if m > 1 {
				est = &music.MUSIC{Sources: 0, Samples: m}
			}
			ps, err := est.Pseudospectrum(r, fe.Array, fe.Array.ScanGrid(1))
			if err != nil {
				return nil, err
			}
			errDeg := geom.AngularDistDeg(ps.PeakBearing(), truth)
			if i == 0 {
				whole = append(whole, errDeg)
			} else {
				single = append(single, errDeg)
			}
		}
	}
	return &PacketVsSampleAblation{
		WholePacketDeg:  stats.Mean(whole),
		SingleSampleDeg: stats.Mean(single),
		Trials:          trials,
	}, nil
}

// Render prints the packet-vs-sample comparison.
func (r *PacketVsSampleAblation) Render() string {
	return fmt.Sprintf("Packet vs single-sample covariance (client 12, %d trials): whole packet %.1f deg, single sample %.1f deg\n",
		r.Trials, r.WholePacketDeg, r.SingleSampleDeg)
}

// doaEstimator is the grid-free estimation interface RootMUSIC and ESPRIT
// share.
type doaEstimator interface {
	DOAs(*cmat.Matrix, *antenna.Array) ([]float64, error)
}

// GridFreeAblation compares the grid-scanned MUSIC estimate against the
// grid-free root-MUSIC and ESPRIT estimates on the linear array, where an
// off-grid bearing exposes the scan step's quantisation.
type GridFreeAblation struct {
	// MeanErrDeg per estimator over the trials.
	MeanErrDeg map[string]float64
	Trials     int
}

// RunGridFreeAblation synthesises a line-of-sight geometry with the
// rotated ULA (as in Figure 6) and measures each estimator's bearing
// error for clients whose true bearings fall between grid points.
func RunGridFreeAblation(seed int64, trials int) (*GridFreeAblation, error) {
	if trials <= 0 {
		trials = 5
	}
	e, _ := testbed.Building()
	arr := testbed.LinearArray().Rotate(-94)
	fe := testbed.NewAPFrontEnd(arr, testbed.AP1, rng.New(seed))
	offsets := fe.Calibrate(2000)

	res := &GridFreeAblation{MeanErrDeg: map[string]float64{}, Trials: trials}
	sums := map[string]float64{}
	count := 0
	for _, id := range []int{5, 3, 1} { // bearings -37.9, 14.9, 52.0: off-grid
		c, err := testbed.ClientByID(id)
		if err != nil {
			return nil, err
		}
		truth := testbed.GroundTruth(testbed.AP1, c.Pos)
		for trial := 0; trial < trials; trial++ {
			bb, err := testbed.FrameBaseband(testbed.UplinkFrame(id, uint16(trial), nil), ofdm.QPSK)
			if err != nil {
				return nil, err
			}
			streams, err := fe.Receive(e, c.Pos, bb)
			if err != nil {
				return nil, err
			}
			radio.ApplyCalibration(streams, offsets)
			dets := detect.Find(streams[0], detect.DefaultConfig())
			if len(dets) == 0 {
				continue
			}
			n := len(streams[0]) - dets[0].Start
			win, _ := detect.ExtractAligned(streams, dets[0], n)
			r, err := music.Covariance(win)
			if err != nil {
				return nil, err
			}
			count++

			// Grid MUSIC at a 3-degree step: the memory/latency-saving
			// configuration an embedded AP might run, whose quantisation
			// the grid-free estimators avoid.
			gm := &music.MUSIC{Sources: 0, Samples: n}
			ps, err := gm.Pseudospectrum(r, arr, arr.ScanGrid(3))
			if err != nil {
				return nil, err
			}
			sums["MUSIC-3deg"] += geom.AngularDistDeg(ps.PeakBearing(), truth)

			// Grid-free estimators: nearest DOA to truth (they emit one
			// DOA per detected source; multipath contributes extras).
			gridFree := map[string]doaEstimator{
				"root-MUSIC": &music.RootMUSIC{Sources: 0, Samples: n},
				"ESPRIT":     &music.ESPRIT{Sources: 0, Samples: n},
			}
			for name, est := range gridFree {
				doas, err := est.DOAs(r, arr)
				if err != nil {
					return nil, err
				}
				best := 180.0
				for _, d := range doas {
					if v := geom.AngularDistDeg(d, truth); v < best {
						best = v
					}
				}
				sums[name] += best
			}
		}
	}
	for name, s := range sums {
		res.MeanErrDeg[name] = s / float64(count)
	}
	return res, nil
}

// Render prints the grid-free comparison.
func (r *GridFreeAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Grid-free ablation (rotated ULA, off-grid bearings, %d packets/client):\n", r.Trials)
	for _, name := range []string{"MUSIC-3deg", "root-MUSIC", "ESPRIT"} {
		fmt.Fprintf(&b, "  %-12s mean |err| = %.2f deg\n", name, r.MeanErrDeg[name])
	}
	return b.String()
}
