// Calibration: demonstrates why the section 2.2 procedure is necessary.
// An AP built with deferred calibration refuses observations with the
// typed ErrNotCalibrated (the service posture: come up, register,
// calibrate on command); estimating on the raw capture with the
// offsets uncorrected breaks bearing estimation, and ap.Calibrate
// restores it.
//
//	go run ./examples/calibration
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"secureangle"
	"secureangle/internal/detect"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/testbed"
)

func main() {
	ctx := context.Background()
	// Deferred calibration: the constructor skips the section 2.2 pass.
	cfg := secureangle.DefaultConfig()
	cfg.DeferCalibration = true
	ap, err := secureangle.New(
		secureangle.WithName("ap1"),
		secureangle.WithSeed(7),
		secureangle.WithConfig(cfg),
	)
	if err != nil {
		log.Fatal(err)
	}

	client, err := secureangle.Client(5)
	if err != nil {
		log.Fatal(err)
	}
	truth := testbed.GroundTruth(secureangle.AP1, client.Pos)

	frame := testbed.UplinkFrame(client.ID, 1, []byte("calibration demo"))
	baseband, err := testbed.FrameBaseband(frame, ofdm.QPSK)
	if err != nil {
		log.Fatal(err)
	}

	// Before calibration the pipeline refuses with a typed error —
	// errors.Is against the sentinel, the v2 error taxonomy.
	if _, err := ap.ObserveContext(ctx, client.Pos, baseband); !errors.Is(err, secureangle.ErrNotCalibrated) {
		log.Fatalf("expected ErrNotCalibrated, got %v", err)
	}
	fmt.Println("uncalibrated node refuses observations: ErrNotCalibrated")

	// Capture the raw streams once, so the calibrated and uncalibrated
	// estimates see the same packet.
	raw, err := ap.Receive(client.Pos, baseband)
	if err != nil {
		log.Fatal(err)
	}
	rawCopy := make([][]complex128, len(raw))
	for i, s := range raw {
		rawCopy[i] = append([]complex128(nil), s...)
	}

	// What the refusal prevents: estimating on the capture with the
	// per-chain downconverter phases uncorrected scrambles the steering
	// model and the bearing lands far from the truth.
	rawBearing := estimate(rawCopy, ap.Grid())

	// Section 2.2: switch the inputs to the reference source, measure
	// the relative offsets, switch back, subtract.
	ap.Calibrate()
	fmt.Println("node.Calibrate() ran the section 2.2 reference-tone procedure")
	rep, err := ap.ProcessStreams(raw)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nground-truth bearing:        %7.1f deg\n", truth)
	fmt.Printf("uncalibrated estimate:       %7.1f deg (error %.1f)\n",
		rawBearing, geom.AngularDistDeg(rawBearing, truth))
	fmt.Printf("calibrated estimate:         %7.1f deg (error %.1f)\n",
		rep.BearingDeg, geom.AngularDistDeg(rep.BearingDeg, truth))

	fmt.Println("\nper-chain offsets recovered (radians, relative to chain 1):")
	for i, o := range ap.Offsets() {
		fmt.Printf("  chain %d: %+.4f\n", i+1, o)
	}
}

// estimate runs detection + MUSIC directly on raw streams, bypassing
// the AP's calibration — the broken path the AP refuses to take.
func estimate(set [][]complex128, grid []float64) float64 {
	dets := detect.Find(set[0], detect.DefaultConfig())
	if len(dets) == 0 {
		log.Fatal("no packet detected")
	}
	n := len(set[0]) - dets[0].Start
	win, ok := detect.ExtractAligned(set, dets[0], n)
	if !ok {
		log.Fatal("extraction failed")
	}
	r, err := music.Covariance(win)
	if err != nil {
		log.Fatal(err)
	}
	est := &music.MUSIC{Sources: 0, Samples: n}
	ps, err := est.Pseudospectrum(r, testbed.CircularArray(), grid)
	if err != nil {
		log.Fatal(err)
	}
	return ps.PeakBearing()
}
