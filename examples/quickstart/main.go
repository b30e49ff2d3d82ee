// Quickstart: the smallest end-to-end SecureAngle use — one access point,
// one client, one packet, one bearing: a long-lived AP built with
// functional options, context threaded through the pipeline, and typed
// errors.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"secureangle"
	"secureangle/internal/testbed"
)

func main() {
	ctx := context.Background()

	// An AP with the paper's octagonal circular array in the Figure 4
	// office. New runs the section 2.2 phase calibration automatically;
	// every unset option takes the paper-testbed default.
	ap, err := secureangle.New(
		secureangle.WithName("ap1"),
		secureangle.WithPosition(secureangle.AP1),
		secureangle.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Client 5 sends one 802.11-style uplink data frame. The AP
	// receives it through the simulated channel and runs the full
	// pipeline: Schmidl-Cox detection, calibration, packet-scale
	// correlation, MUSIC.
	client, err := secureangle.Client(5)
	if err != nil {
		log.Fatal(err)
	}
	item, err := secureangle.TestbedBatchItem(client, 1)
	if err != nil {
		log.Fatal(err)
	}
	report, err := ap.ObserveContext(ctx, item.TX, item.Baseband)
	switch {
	case errors.Is(err, secureangle.ErrNotDetected):
		log.Fatal("no packet detected — SNR below the detection cliff")
	case errors.Is(err, secureangle.ErrBlocked):
		log.Fatal("client fully blocked — no propagation path")
	case err != nil:
		log.Fatal(err)
	}

	truth := testbed.GroundTruth(testbed.AP1, client.Pos)
	fmt.Printf("client %d ground-truth bearing: %.1f deg\n", client.ID, truth)
	fmt.Printf("estimated bearing:              %.1f deg\n", report.BearingDeg)
	fmt.Printf("detection metric:               %.2f\n", report.Detection.Metric)
	fmt.Printf("MDL source count:               %d\n", report.Sources)
	fmt.Printf("estimated SNR:                  %.1f dB\n", report.SNRdB)
	fmt.Printf("signature grid points:          %d\n", len(report.Sig.P))

	// The top pseudospectrum peaks are the client's AoA signature
	// structure: direct path plus reflections.
	fmt.Println("pseudospectrum peaks (bearing, dB rel. strongest):")
	for _, p := range report.Spectrum.Peaks(10, 15) {
		fmt.Printf("  %6.1f deg   %6.1f dB\n", p.BearingDeg, p.RelDB)
	}

	// The same pipeline as an always-on service: the streaming handle
	// accepts transmissions with backpressure and delivers results in
	// submission order.
	stream := ap.Stream(ctx, 8)
	go func() {
		for id := 1; id <= 5; id++ {
			c, err := secureangle.Client(id)
			if err != nil {
				continue
			}
			item, err := secureangle.TestbedBatchItem(c, uint16(id))
			if err != nil {
				continue
			}
			if _, err := stream.Submit(ctx, item); err != nil {
				return
			}
		}
		stream.Close()
	}()
	fmt.Println("\nstreaming ingest (clients 1-5, submission order):")
	for r := range stream.Results() {
		if r.Err != nil {
			fmt.Printf("  #%d: %v\n", r.Seq, r.Err)
			continue
		}
		fmt.Printf("  #%d: bearing %6.1f deg, SNR %5.1f dB\n", r.Seq, r.Report.BearingDeg, r.Report.SNRdB)
	}
}
