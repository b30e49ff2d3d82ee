package core

import (
	"errors"
	"math"
	"testing"

	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/rng"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

func newTestAP(t testing.TB, seed int64) *AP {
	t.Helper()
	e, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(seed))
	return NewAP("ap1", fe, e, DefaultConfig())
}

func observeClient(t testing.TB, ap *AP, clientID int, seq uint16) *Report {
	t.Helper()
	c, err := testbed.ClientByID(clientID)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := testbed.FrameBaseband(testbed.UplinkFrame(clientID, seq, []byte("payload")), ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ap.Observe(c.Pos, bb)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestNewAPDefaults(t *testing.T) {
	ap := newTestAP(t, 1)
	if len(ap.Grid()) != 360 {
		t.Errorf("grid size = %d", len(ap.Grid()))
	}
	if len(ap.Offsets()) != 8 {
		t.Errorf("offsets = %d", len(ap.Offsets()))
	}
}

func TestObserveLineOfSightClient(t *testing.T) {
	ap := newTestAP(t, 2)
	c5, _ := testbed.ClientByID(5)
	want := testbed.GroundTruth(testbed.AP1, c5.Pos)
	rep := observeClient(t, ap, 5, 1)
	if geom.AngularDistDeg(rep.BearingDeg, want) > 4 {
		t.Errorf("client 5 bearing = %v, want %v", rep.BearingDeg, want)
	}
	if rep.Sig == nil || rep.Spectrum == nil {
		t.Error("report missing signature/spectrum")
	}
	if rep.SNRdB < 10 {
		t.Errorf("client 5 SNR = %v dB, implausibly low", rep.SNRdB)
	}
}

func TestObserveSeveralClients(t *testing.T) {
	ap := newTestAP(t, 3)
	// Line-of-sight clients spread around the AP.
	// Tolerance 8 degrees: client 4's east-wall bounce arrives ~5 degrees
	// from its direct path; the two coherent arrivals merge into one
	// slightly-biased peak, exactly the 4-antenna behaviour the paper
	// describes scaled to unresolvable separations.
	for _, id := range []int{1, 3, 4, 7, 8, 9} {
		c, _ := testbed.ClientByID(id)
		want := testbed.GroundTruth(testbed.AP1, c.Pos)
		rep := observeClient(t, ap, id, uint16(id))
		if geom.AngularDistDeg(rep.BearingDeg, want) > 8 {
			t.Errorf("client %d bearing = %v, want %v", id, rep.BearingDeg, want)
		}
	}
}

func TestObserveNoPacket(t *testing.T) {
	ap := newTestAP(t, 4)
	// Noise-only "transmission": an all-zero baseband produces no
	// detectable packet at the AP (only receiver noise).
	bb := make([]complex128, 4000)
	_, err := ap.Observe(geom.Point{X: 9, Y: 5}, bb)
	if err == nil {
		t.Fatal("expected failure on empty transmission")
	}
}

func TestBlockedClientsDegraded(t *testing.T) {
	// Clients 11/12 (pillar) must show larger bearing error or variance
	// than the line-of-sight near client 5 — Figure 5's key qualitative
	// structure.
	ap := newTestAP(t, 5)
	errFor := func(id int) float64 {
		c, _ := testbed.ClientByID(id)
		want := testbed.GroundTruth(testbed.AP1, c.Pos)
		var worst float64
		for pkt := 0; pkt < 3; pkt++ {
			rep := observeClient(t, ap, id, uint16(pkt))
			worst = math.Max(worst, geom.AngularDistDeg(rep.BearingDeg, want))
		}
		return worst
	}
	e5 := errFor(5)
	e12 := errFor(12)
	if e5 > 5 {
		t.Errorf("client 5 worst error %v too large", e5)
	}
	// Client 12 behind the pillar: observably worse than a LoS client —
	// but still bounded (the paper reports all clients within ~14 deg).
	if e12 > 25 {
		t.Errorf("client 12 error %v out of band", e12)
	}
	t.Logf("client 5 worst error %.1f deg; client 12 worst error %.1f deg", e5, e12)
}

func TestProcessFrameEnrollsThenAccepts(t *testing.T) {
	ap := newTestAP(t, 6)
	c5, _ := testbed.ClientByID(5)
	frame := testbed.UplinkFrame(5, 1, []byte("hello"))

	fr, err := ap.ProcessFrame(c5.Pos, frame, ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Enrolled {
		t.Fatal("first frame should enroll")
	}
	if !ap.Known(testbed.ClientMAC(5)) {
		t.Fatal("registry missing client 5")
	}
	// Subsequent frames from the same location: accepted.
	for seq := uint16(2); seq <= 6; seq++ {
		frame.Seq = seq
		fr, err := ap.ProcessFrame(c5.Pos, frame, ofdm.QPSK)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Enrolled {
			t.Fatal("re-enrolled a known client")
		}
		if fr.Decision != signature.Accept {
			t.Errorf("seq %d: legit frame flagged (distance %v)", seq, fr.Distance)
		}
	}
}

func TestProcessFrameFlagsSpoofer(t *testing.T) {
	ap := newTestAP(t, 7)
	c5, _ := testbed.ClientByID(5)
	legit := testbed.UplinkFrame(5, 1, []byte("hello"))
	if _, err := ap.ProcessFrame(c5.Pos, legit, ofdm.QPSK); err != nil {
		t.Fatal(err)
	}

	// Attacker at client 9's position forges client 5's MAC.
	c9, _ := testbed.ClientByID(9)
	spoof := testbed.UplinkFrame(5, 2, []byte("inject"))
	fr, err := ap.ProcessFrame(c9.Pos, spoof, ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Decision != signature.Flag {
		t.Errorf("spoofed frame accepted (distance %v)", fr.Distance)
	}
}

func TestStoredSignatureAccess(t *testing.T) {
	ap := newTestAP(t, 8)
	mac := testbed.ClientMAC(3)
	if _, ok := ap.StoredSignature(mac); ok {
		t.Error("unknown MAC has a signature")
	}
	rep := observeClient(t, ap, 3, 1)
	ap.Enroll(mac, rep.Sig)
	sig, ok := ap.StoredSignature(mac)
	if !ok || sig == nil {
		t.Fatal("enrolled signature missing")
	}
	d, err := signature.Distance(sig, rep.Sig)
	if err != nil || d > 1e-12 {
		t.Errorf("stored signature differs: %v, %v", d, err)
	}
}

func TestCustomEstimator(t *testing.T) {
	e, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(9))
	cfg := DefaultConfig()
	cfg.Estimator = music.Bartlett{}
	ap := NewAP("bartlett-ap", fe, e, cfg)
	c5, _ := testbed.ClientByID(5)
	bb, _ := testbed.FrameBaseband(testbed.UplinkFrame(5, 1, nil), ofdm.QPSK)
	rep, err := ap.Observe(c5.Pos, bb)
	if err != nil {
		t.Fatal(err)
	}
	want := testbed.GroundTruth(testbed.AP1, c5.Pos)
	if geom.AngularDistDeg(rep.BearingDeg, want) > 8 {
		t.Errorf("Bartlett bearing = %v, want %v", rep.BearingDeg, want)
	}
}

// shortEstimator breaks the Estimator contract: its spectrum covers
// only half the scan grid.
type shortEstimator struct{}

func (shortEstimator) Name() string { return "short" }

func (shortEstimator) Pseudospectrum(r *cmat.Matrix, arr *antenna.Array, grid []float64) (*music.Pseudospectrum, error) {
	return music.Bartlett{}.Pseudospectrum(r, arr, grid[:len(grid)/2])
}

// TestEstimatorGridMismatch checks that a spectrum that does not cover
// the AP's grid fails the packet at the estimate stage.
func TestEstimatorGridMismatch(t *testing.T) {
	e, _ := testbed.Building()
	cfg := DefaultConfig()
	cfg.Estimator = shortEstimator{}
	ap := NewAP("short-ap", testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(9)), e, cfg)
	c5, _ := testbed.ClientByID(5)
	bb, _ := testbed.FrameBaseband(testbed.UplinkFrame(5, 1, nil), ofdm.QPSK)
	_, err := ap.Observe(c5.Pos, bb)
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != StageEstimate {
		t.Fatalf("Observe err = %v, want a StageEstimate PipelineError", err)
	}
}

func TestReportMetadata(t *testing.T) {
	ap := newTestAP(t, 10)
	rep := observeClient(t, ap, 5, 1)
	if rep.AP != "ap1" {
		t.Error("AP name missing")
	}
	if rep.APPos != testbed.AP1 {
		t.Error("AP position missing")
	}
	if rep.Sources < 1 {
		t.Errorf("sources = %d", rep.Sources)
	}
	if rep.Detection.Metric < 0.5 {
		t.Errorf("detection metric = %v", rep.Detection.Metric)
	}
}

func TestPacketExtent(t *testing.T) {
	// Packet of length 800 embedded at 100 in a 2000-sample buffer of
	// near-silence: extent from 100 should approximate 800.
	x := make([]complex128, 2000)
	for i := 100; i < 900; i++ {
		x[i] = complex(1, 0)
	}
	rng.New(11).AddAWGN(x, 1e-6)
	n := packetExtent(x, 100, nil)
	if n < 700 || n > 1000 {
		t.Errorf("extent = %d, want ~800", n)
	}
	// Start beyond the buffer.
	if packetExtent(x, 2000, nil) != 0 {
		t.Error("extent past end should be 0")
	}
}

func TestDistinctClientsHaveDistinctSignatures(t *testing.T) {
	ap := newTestAP(t, 12)
	sigs := map[int]*signature.Signature{}
	for _, id := range []int{1, 5, 7, 9} {
		sigs[id] = observeClient(t, ap, id, 1).Sig
	}
	for _, a := range []int{1, 5, 7, 9} {
		for _, b := range []int{1, 5, 7, 9} {
			d, err := signature.Distance(sigs[a], sigs[b])
			if err != nil {
				t.Fatal(err)
			}
			if a != b && d < signature.DefaultPolicy().MaxDistance {
				t.Errorf("clients %d and %d have near-identical signatures (d=%v)", a, b, d)
			}
		}
	}
}

func TestWifiAddrKeying(t *testing.T) {
	// Registry must key strictly on MAC, not on position.
	ap := newTestAP(t, 13)
	c5, _ := testbed.ClientByID(5)
	mac := wifi.MustParseAddr("02:00:00:00:00:77")
	f := &wifi.Frame{Type: wifi.Data, Addr1: testbed.BSSID, Addr2: mac, Addr3: testbed.BSSID, Seq: 1}
	if _, err := ap.ProcessFrame(c5.Pos, f, ofdm.BPSK); err != nil {
		t.Fatal(err)
	}
	if !ap.Known(mac) {
		t.Error("custom MAC not enrolled")
	}
	if ap.Known(testbed.ClientMAC(5)) {
		t.Error("client-5 MAC enrolled without a frame")
	}
}

func TestIdentifyRanksTrueTransmitterFirst(t *testing.T) {
	// Enroll three clients; a flagged frame from client 9's position with
	// client 5's MAC should identify client 9 as the physical source.
	ap := newTestAP(t, 14)
	for _, id := range []int{5, 7, 9} {
		c, _ := testbed.ClientByID(id)
		rep := observeClient(t, ap, id, 1)
		ap.Enroll(testbed.ClientMAC(id), rep.Sig)
		_ = c
	}
	c9, _ := testbed.ClientByID(9)
	spoof := testbed.UplinkFrame(5, 99, []byte("inject")) // claims to be client 5
	fr, err := ap.ProcessFrame(c9.Pos, spoof, ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Decision != signature.Flag {
		t.Fatal("spoof not flagged")
	}
	ids, err := ap.Identify(fr.Sig)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("identifications = %d", len(ids))
	}
	if ids[0].MAC != testbed.ClientMAC(9) {
		t.Errorf("best match = %v, want client 9's MAC", ids[0].MAC)
	}
	if ids[0].Distance > 0.1 {
		t.Errorf("true source distance %v", ids[0].Distance)
	}
	// And the claimed identity (client 5) ranks behind the true source.
	for _, id := range ids[1:] {
		if id.Distance < ids[0].Distance {
			t.Error("ranking violated")
		}
	}
}
