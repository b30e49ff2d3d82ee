package secureangle

// Full-stack integration tests: the complete SecureAngle system — OFDM
// transmit, multipath channel, three AP pipelines, the TCP fusion
// protocol, the controller's virtual fence, and the spoofing registry —
// exercised together, the way the examples run it but with assertions.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"secureangle/internal/core"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/netproto"
	"secureangle/internal/ofdm"
	"secureangle/internal/rng"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
)

func TestFullStackFenceOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack integration")
	}
	environment, shell := testbed.Building()
	controller := netproto.NewController(&locate.Fence{Boundary: shell, MarginM: 1.5})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	controller.Serve(ln)
	defer controller.Close()
	decisions := controller.Subscribe(64)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	apPositions := []geom.Point{testbed.AP1, testbed.AP2, testbed.AP3}
	aps := make([]*core.AP, len(apPositions))
	agents := make([]*netproto.Agent, len(apPositions))
	for i, pos := range apPositions {
		name := fmt.Sprintf("ap%d", i+1)
		fe := testbed.NewAPFrontEnd(testbed.CircularArray(), pos, rng.New(int64(300+i)))
		aps[i] = core.NewAP(name, fe, environment, core.DefaultConfig())
		agents[i], err = netproto.DialContext(ctx, ln.Addr().String(), netproto.Hello{Name: name, Pos: pos})
		if err != nil {
			t.Fatal(err)
		}
		defer agents[i].Close()
	}
	time.Sleep(50 * time.Millisecond) // let Hellos land before reports

	transmit := func(seq uint64, clientID int, pos geom.Point) (int, error) {
		frame := testbed.UplinkFrame(clientID, uint16(seq), []byte("integration"))
		bb, err := testbed.FrameBaseband(frame, ofdm.QPSK)
		if err != nil {
			return 0, err
		}
		heard := 0
		for i, ap := range aps {
			rep, err := ap.Observe(pos, bb)
			if err != nil {
				continue
			}
			if err := agents[i].Send(netproto.Report{
				APName: ap.Name, MAC: frame.Addr2, SeqNo: seq, BearingDeg: rep.BearingDeg,
			}); err != nil {
				return 0, err
			}
			heard++
		}
		return heard, nil
	}
	awaitDecision := func() netproto.FenceDecision {
		select {
		case d := <-decisions.C:
			return d
		case <-time.After(10 * time.Second):
			t.Fatal("no decision within 10s")
			return netproto.FenceDecision{}
		}
	}

	// Inside clients from three rooms must be allowed and localised well.
	for seq, id := range map[uint64]int{1: 5, 2: 2, 3: 17} {
		c, err := testbed.ClientByID(id)
		if err != nil {
			t.Fatal(err)
		}
		heard, err := transmit(seq, id, c.Pos)
		if err != nil {
			t.Fatal(err)
		}
		if heard < 2 {
			t.Fatalf("client %d heard by %d APs", id, heard)
		}
		d := awaitDecision()
		if d.Decision != locate.Allow {
			t.Errorf("client %d dropped (located %v)", id, d.Pos)
		}
		if d.Pos.Dist(c.Pos) > 1.5 {
			t.Errorf("client %d localised %v m off", id, d.Pos.Dist(c.Pos))
		}
	}

	// The outside intruder is either unheard (fail closed) or dropped.
	intruder := testbed.OutsidePositions()[0]
	heard, err := transmit(9, 99, intruder)
	if err != nil {
		t.Fatal(err)
	}
	if heard >= 2 {
		d := awaitDecision()
		if d.Decision != locate.Drop {
			t.Errorf("intruder allowed at %v", d.Pos)
		}
	}
}

// TestFullStackV2StreamToController drives the v2 service path end to
// end: an AP's streaming handle feeds per-packet reports to a v2
// controller session (DialContext + SendBatchContext + Subscribe), and
// a spoof-flag PipelineError's stage crosses the wire on the alert
// path and lands in the controller's quarantine.
func TestFullStackV2StreamToController(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack integration")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	_, shell := testbed.Building()
	controller := netproto.NewController(&locate.Fence{Boundary: shell, MarginM: 1.5})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	controller.Serve(ln)
	defer controller.Close()
	sub := controller.Subscribe(16)
	defer controller.Unsubscribe(sub)

	// Two APs, each with its own agent session.
	positions := []Point{AP1, AP2}
	aps := make([]*AP, len(positions))
	agents := make([]*netproto.Agent, len(positions))
	for i, pos := range positions {
		name := fmt.Sprintf("ap%d", i+1)
		ap, err := New(WithName(name), WithPosition(pos), WithSeed(int64(500+i)), withWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		aps[i] = ap
		a, err := netproto.DialContext(ctx, ln.Addr().String(), netproto.Hello{Name: name, Pos: pos})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents[i] = a
	}

	// One transmission through each AP's stream; reports ship as a
	// deadline-bounded batch.
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	item, err := TestbedBatchItem(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	mac := testbed.ClientMAC(5)
	for i, ap := range aps {
		s := ap.Stream(ctx, 4)
		if _, err := s.Submit(ctx, item); err != nil {
			t.Fatal(err)
		}
		var reports []netproto.Report
		done := make(chan struct{})
		go func() {
			defer close(done)
			for r := range s.Results() {
				if r.Err != nil {
					t.Errorf("ap%d stream: %v", i+1, r.Err)
					continue
				}
				reports = append(reports, netproto.Report{
					APName: r.Report.AP, MAC: mac, SeqNo: 1, BearingDeg: r.Report.BearingDeg,
				})
			}
		}()
		s.Close()
		<-done
		if err := agents[i].SendBatchContext(ctx, reports); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-sub.C:
		if d.Decision != locate.Allow {
			t.Errorf("inside client dropped: %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no fused decision")
	}

	// The alert path: a deferred-calibration AP fails with a typed
	// PipelineError whose stage rides the v2 alert to the controller.
	cfg := DefaultConfig()
	cfg.DeferCalibration = true
	uncal, err := New(WithName("ap1"), WithPosition(AP1), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	_, err = uncal.ObserveContext(ctx, item.TX, item.Baseband)
	var pe *PipelineError
	if !errors.As(err, &pe) || !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("expected ErrNotCalibrated PipelineError, got %v", err)
	}
	if err := agents[0].SendAlertDetail(netproto.Alert{
		APName: "ap1", MAC: mac, Distance: 0, Stage: pe.Stage,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		q := controller.Quarantined()
		if len(q) == 1 {
			if q[0].Stage != core.StageCalibrate {
				t.Fatalf("quarantine stage %q, want %q", q[0].Stage, core.StageCalibrate)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alert never reached the controller")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFullStackSpoofAcrossReboots(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack integration")
	}
	// A client's signature survives AP restarts via serialisation: train,
	// marshal the stored signature, rebuild the AP, re-enroll, and the
	// attacker is still flagged while the client is still accepted.
	environment, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(400))
	ap := core.NewAP("ap1", fe, environment, core.DefaultConfig())

	victim, err := testbed.ClientByID(5)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := testbed.ClientByID(9)
	if err != nil {
		t.Fatal(err)
	}
	mac := testbed.ClientMAC(5)

	if _, err := ap.ProcessFrame(victim.Pos, testbed.UplinkFrame(5, 1, nil), ofdm.QPSK); err != nil {
		t.Fatal(err)
	}
	stored, ok := ap.StoredSignature(mac)
	if !ok {
		t.Fatal("no stored signature after training")
	}
	wire := stored.Marshal()

	// "Reboot": a brand-new AP instance on the same front end.
	ap2 := core.NewAP("ap1-rebooted", fe, environment, core.DefaultConfig())
	restored, err := signature.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	ap2.Enroll(mac, restored)

	legit, err := ap2.ProcessFrame(victim.Pos, testbed.UplinkFrame(5, 2, nil), ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if legit.Decision != signature.Accept {
		t.Errorf("victim flagged after reboot (distance %v)", legit.Distance)
	}
	spoof, err := ap2.ProcessFrame(attacker.Pos, testbed.UplinkFrame(5, 3, nil), ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if spoof.Decision != signature.Flag {
		t.Errorf("attacker accepted after reboot (distance %v)", spoof.Distance)
	}
}

// TestFacadeControllerTracks drives the root facade's controller
// surface: NewController, fused FenceDecisions via Subscribe, the
// mobility TrackState accessors, and ControllerStats — all through the
// re-exported types, the way an external consumer would.
func TestFacadeControllerTracks(t *testing.T) {
	_, shell := testbed.Building()
	c := NewController(&Fence{Boundary: shell})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()
	sub := c.Subscribe(8)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	apPos := []Point{AP1, AP2}
	agents := make([]*netproto.Agent, len(apPos))
	for i, pos := range apPos {
		agents[i], err = netproto.DialContext(ctx, ln.Addr().String(), netproto.Hello{
			Name: fmt.Sprintf("ap%d", i+1), Pos: pos,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agents[i].Close()
	}

	mac := testbed.ClientMAC(7)
	var lastTarget Point
	for seq := uint64(1); seq <= 4; seq++ {
		lastTarget = Point{X: 8 + float64(seq), Y: 6}
		for i, a := range agents {
			if err := a.SendContext(ctx, netproto.Report{
				APName: fmt.Sprintf("ap%d", i+1), MAC: mac, SeqNo: seq,
				BearingDeg: geom.BearingDeg(apPos[i], lastTarget),
			}); err != nil {
				t.Fatal(err)
			}
		}
		var d FenceDecision
		select {
		case d = <-sub.C:
		case <-ctx.Done():
			t.Fatalf("no decision for seq %d", seq)
		}
		if d.Decision != locate.Allow {
			t.Errorf("seq %d: inside walker dropped", seq)
		}
	}

	var ts TrackState
	var ok bool
	if ts, ok = c.Track(mac); !ok {
		t.Fatal("facade Track missing")
	}
	if ts.Fixes != 4 || ts.LastSeq != 4 {
		t.Errorf("track %+v, want 4 fixes through seq 4", ts)
	}
	if ts.Pos.Dist(lastTarget) > 2 {
		t.Errorf("track position %v far from last fix %v", ts.Pos, lastTarget)
	}
	if snap := c.Snapshot(); len(snap) != 1 {
		t.Errorf("snapshot has %d tracks, want 1", len(snap))
	}
	var stats ControllerStats
	if stats = c.Stats(); stats.Decisions != 4 || stats.Ingested != 8 {
		t.Errorf("stats = %+v, want 4 decisions from 8 ingested", stats)
	}
}
