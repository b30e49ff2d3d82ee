package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"secureangle/internal/geom"
	"secureangle/internal/ofdm"
	"secureangle/internal/radio"
	"secureangle/internal/rng"
	"secureangle/internal/testbed"
)

// goldenFrameBatchDigest is the sha256 of every report field a seeded
// two-AP ProcessFrameBatch run produces (see TestProcessFrameBatchGolden).
// It pins the whole frame path bit for bit — noise stream, channel
// synthesis, impairments, calibration, detection, covariance, MUSIC and
// the spoof check — so a change that claims to keep captures identical
// must leave it alone. Never re-pin it to make a change pass.
const goldenFrameBatchDigest = "554db2527d1e2a7265e2c1384e96456dc5ebc02d6746b665beb6b0620740741a"

// TestProcessFrameBatchGolden runs three batches of uplink frames — all
// 20 testbed clients, a retransmission (the clean-capture replay path)
// and spoofers outside the building claiming client addresses — through
// two lockstep APs, with channel drift advancing between batches, and
// hashes every report.
func TestProcessFrameBatchGolden(t *testing.T) {
	e, _ := testbed.Building()
	e.EnableDrift(rng.New(0x901d), 120, 0.25, 1.1)
	aps := make([]*AP, 2)
	for i, pos := range []geom.Point{testbed.AP1, testbed.AP2} {
		cfg := DefaultConfig()
		cfg.Workers = 2
		aps[i] = NewAP("golden", testbed.NewAPFrontEnd(testbed.CircularArray(), pos, rng.New(int64(21+i))), e, cfg)
	}
	outside := testbed.OutsidePositions()
	h := sha256.New()
	reports := 0
	for batch := 0; batch < 3; batch++ {
		var items []FrameBatchItem
		for _, c := range testbed.Clients() {
			items = append(items, FrameBatchItem{TX: c.Pos, Frame: testbed.UplinkFrame(c.ID, uint16(batch), []byte("golden")), Mod: ofdm.QPSK})
		}
		items = append(items, items[4]) // a retransmission within the batch
		for i, pos := range outside {
			items = append(items, FrameBatchItem{TX: pos, Frame: testbed.UplinkFrame(1+3*i, uint16(batch), []byte("golden")), Mod: ofdm.QPSK})
		}
		for _, ap := range aps {
			for _, r := range ap.ProcessFrameBatch(items) {
				if r.Err == nil {
					reports++
				}
				hashFrameResult(h, r)
			}
		}
		e.Advance(30)
	}
	if reports < 140 {
		t.Errorf("only %d of 150 frames produced a report", reports)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFrameBatchDigest {
		t.Errorf("frame-batch digest = %s, want %s", got, goldenFrameBatchDigest)
	}
}

// TestSerialFramesMatchBatch checks that a single capture is a batch of
// one: two identically seeded APs take the same frames — the 20 testbed
// clients, a retransmission and the outside spoofers — one through a
// ProcessFrame call per frame, the other through one ProcessFrameBatch,
// and every report and error must hash equal.
func TestSerialFramesMatchBatch(t *testing.T) {
	e, _ := testbed.Building()
	newAP := func() *AP {
		cfg := DefaultConfig()
		cfg.Workers = 2
		return NewAP("identity", testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(31)), e, cfg)
	}
	var items []FrameBatchItem
	for _, c := range testbed.Clients() {
		items = append(items, FrameBatchItem{TX: c.Pos, Frame: testbed.UplinkFrame(c.ID, 7, []byte("identity")), Mod: ofdm.QPSK})
	}
	items = append(items, items[4])
	for i, pos := range testbed.OutsidePositions() {
		items = append(items, FrameBatchItem{TX: pos, Frame: testbed.UplinkFrame(1+3*i, 7, []byte("identity")), Mod: ofdm.QPSK})
	}

	serialAP, batchAP := newAP(), newAP()
	batch := batchAP.ProcessFrameBatch(items)
	for i, it := range items {
		rep, err := serialAP.ProcessFrame(it.TX, it.Frame, it.Mod)
		g, w := sha256.New(), sha256.New()
		hashFrameResult(g, FrameBatchResult{Report: rep, Err: err})
		hashFrameResult(w, batch[i])
		if !bytes.Equal(g.Sum(nil), w.Sum(nil)) {
			t.Errorf("item %d: ProcessFrame (%v, err %v) differs from ProcessFrameBatch (%v, err %v)",
				i, bearingOf(rep), err, bearingOf(batch[i].Report), batch[i].Err)
		}
	}
}

func bearingOf(r *FrameReport) float64 {
	if r == nil {
		return math.NaN()
	}
	return r.BearingDeg
}

func hashFrameResult(h hash.Hash, r FrameBatchResult) {
	if r.Err != nil {
		h.Write([]byte(r.Err.Error()))
		return
	}
	rep := r.Report
	f := func(vs ...float64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	f(rep.BearingDeg, rep.SNRdB, rep.Detection.Metric, rep.Detection.CFOHz, rep.Distance, rep.Threshold)
	f(rep.Spectrum.P...)
	h.Write(rep.Sig.Marshal())
	var flags [2]byte
	if rep.Enrolled {
		flags[0] = 1
	}
	if rep.Quarantined {
		flags[1] = 1
	}
	h.Write(flags[:])
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(rep.Detection.Start)))
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(rep.Sources)))
	h.Write([]byte(rep.Decision.String()))
	h.Write(rep.MAC[:])
}

// TestWindowCalibrationMatchesWholeStream checks that calibrating only
// the packet window, after detection, gives the reports calibrating the
// whole capture first gave: the whole-stream side rotates every sample
// of a copy of each capture, then runs the pipeline with all-zero offsets
// (a rotation by exp(-i0), exact on every nonzero sample).
func TestWindowCalibrationMatchesWholeStream(t *testing.T) {
	ap := newBatchAP(t, 1)
	for _, c := range testbed.Clients() {
		streams, err := ap.Receive(c.Pos, uplinkBaseband(t, c.ID, 3))
		if err != nil {
			t.Fatal(err)
		}
		whole := cloneStreams(streams)
		got, gotErr := ap.ProcessStreams(streams)

		offsets := ap.offsets
		radio.ApplyCalibration(whole, offsets)
		ap.offsets = make([]float64, len(offsets))
		want, wantErr := ap.ProcessStreams(whole)
		ap.offsets = offsets

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("client %d: window-only err %v, whole-stream err %v", c.ID, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		g, w := sha256.New(), sha256.New()
		hashFrameResult(g, FrameBatchResult{Report: &FrameReport{Report: *got}})
		hashFrameResult(w, FrameBatchResult{Report: &FrameReport{Report: *want}})
		if !bytes.Equal(g.Sum(nil), w.Sum(nil)) {
			t.Errorf("client %d: window-only report (bearing %v, SNR %v) differs from whole-stream (bearing %v, SNR %v)",
				c.ID, got.BearingDeg, got.SNRdB, want.BearingDeg, want.SNRdB)
		}
	}
}
