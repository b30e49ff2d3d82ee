package secureangle

// The closed defense loop, end to end over real physics and real TCP:
// a spoofed frame flagged by one AP's signature check becomes a
// controller directive that a *different* AP applies as beamforming
// countermeasures, and the quarantine decays back to release without
// any operator — the acceptance path of the defense-engine refactor.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"secureangle/internal/beamform"
	"secureangle/internal/defense"
	"secureangle/internal/netproto"
	"secureangle/internal/ofdm"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
)

func TestDefenseClosedLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack integration")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	_, shell := Testbed()
	controller := NewController(&Fence{Boundary: shell, MarginM: 1.5})
	controller.DefensePolicy = DefensePolicy{
		NullSteerScore: 2, // the first confirmed spoof escalates to null-steer
		HalfLife:       300 * time.Millisecond,
		MinQuarantine:  time.Millisecond,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	controller.Serve(ln)
	defer controller.Close()

	// Two full pipeline APs, each with its own agent session.
	positions := []Point{AP1, AP2}
	aps := make([]*AP, len(positions))
	agents := make([]*netproto.Agent, len(positions))
	for i, pos := range positions {
		name := fmt.Sprintf("ap%d", i+1)
		aps[i], err = New(WithName(name), WithPosition(pos), WithSeed(int64(700+i)))
		if err != nil {
			t.Fatal(err)
		}
		agents[i], err = netproto.DialContext(ctx, ln.Addr().String(), netproto.Hello{Name: name, Pos: pos})
		if err != nil {
			t.Fatal(err)
		}
		defer agents[i].Close()
	}
	directives := agents[1].Directives() // AP-2 is the countermeasure side
	time.Sleep(50 * time.Millisecond)    // let broadcasters register

	victim, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := Client(9)
	if err != nil {
		t.Fatal(err)
	}
	mac := testbed.ClientMAC(victim.ID)

	// Train the victim's signature at both APs (and give each AP a
	// serve bearing from accepted traffic).
	for i, ap := range aps {
		for seq := uint16(1); seq <= 2; seq++ {
			fr, err := ap.ProcessFrameContext(ctx, victim.Pos, testbed.UplinkFrame(victim.ID, seq, nil), ofdm.QPSK)
			if err != nil {
				t.Fatalf("ap%d train: %v", i+1, err)
			}
			if fr.Decision != signature.Accept {
				t.Fatalf("ap%d flagged the victim during training: %+v", i+1, fr)
			}
		}
	}

	// The spoof at AP-1: the attacker transmits with the victim's MAC
	// from across the room. AP-1's scored verdict rides the alert wire.
	spoof, err := aps[0].ProcessFrameContext(ctx, attacker.Pos, testbed.UplinkFrame(victim.ID, 100, []byte("injected")), ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if spoof.Decision != signature.Flag {
		t.Fatalf("spoofed frame accepted at ap1: %+v", spoof)
	}
	if spoof.Verdict().Margin() >= 0 {
		t.Fatalf("flagged frame with non-negative margin: %+v", spoof.Verdict())
	}
	if err := agents[0].SendAlertDetail(netproto.Alert{
		APName: "ap1", MAC: spoof.MAC, Distance: spoof.Distance,
		Threshold: spoof.Threshold, BearingDeg: spoof.BearingDeg, HasBearing: true, Stage: "spoofcheck",
	}); err != nil {
		t.Fatal(err)
	}

	// The directive broadcast reaches AP-2, which applies null-steer
	// weights toward the flagged bearing and acks.
	var cm Countermeasure
	select {
	case d, ok := <-directives:
		if !ok {
			t.Fatal("directive channel closed")
		}
		if d.MAC != mac || d.Action != ActionNullSteer {
			t.Fatalf("directive = %+v", d)
		}
		if d.Stage != "spoofcheck" || d.Distance != spoof.Distance {
			t.Errorf("directive evidence = %+v", d)
		}
		cm, err = aps[1].ApplyDirective(d.Directive)
		if err != nil {
			t.Fatal(err)
		}
		if err := agents[1].SendDirectiveAck(d.Directive); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no directive within 10s")
	}

	// The applied weights place a deep spatial null on the flagged
	// bearing while keeping the serve direction hot (beamform.Gain is
	// the physical check: transmit array gain at each bearing).
	arr2 := aps[1].FE.Array
	if g := beamform.Gain(arr2, cm.Weights, cm.NullBearingDeg); g > 1e-10 {
		t.Errorf("gain at flagged bearing %.1f = %g, want suppressed to ~0", cm.NullBearingDeg, g)
	}
	if g := beamform.Gain(arr2, cm.Weights, cm.ServeBearingDeg); g < 1 {
		t.Errorf("gain at serve bearing %.1f = %g, want >= 1", cm.ServeBearingDeg, g)
	}

	// While quarantined, the victim MAC's frames at AP-2 are stamped
	// for dropping.
	fr, err := aps[1].ProcessFrameContext(ctx, victim.Pos, testbed.UplinkFrame(victim.ID, 101, nil), ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Quarantined {
		t.Error("quarantined MAC's frame not stamped at ap2")
	}

	// Threat state is queryable over the wire from either session.
	threats, err := agents[0].QueryThreats(ctx, netproto.Query{MAC: mac})
	if err != nil {
		t.Fatal(err)
	}
	if len(threats) != 1 || threats[0].State != ThreatQuarantine {
		t.Fatalf("threat query = %+v", threats)
	}

	// The quarantine decays to release without manual intervention; the
	// release directive clears AP-2's countermeasure.
	select {
	case d, ok := <-directives:
		if !ok {
			t.Fatal("directive channel closed awaiting release")
		}
		if d.Action != ActionAllow || d.Reporter != "decay" {
			t.Fatalf("expected decay release, got %+v", d)
		}
		if _, err := aps[1].ApplyDirective(d.Directive); err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("quarantine never decayed to release")
	}
	if _, ok := aps[1].CountermeasureFor(mac); ok {
		t.Error("countermeasure survived the release")
	}
	fr, err = aps[1].ProcessFrameContext(ctx, victim.Pos, testbed.UplinkFrame(victim.ID, 102, nil), ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Quarantined || fr.Decision != signature.Accept {
		t.Errorf("victim still penalised after release: %+v", fr)
	}

	// Counters tell the whole story.
	s := controller.Stats()
	if s.Defense.Quarantines != 1 || s.Defense.NullSteers != 1 || s.Defense.DecayReleases != 1 {
		t.Errorf("defense stats = %+v", s.Defense)
	}
	if s.DirectiveAcks != 1 {
		t.Errorf("directive acks = %d", s.DirectiveAcks)
	}
}

// TestDefenseFacadeSurface pins the root re-exports an external
// consumer builds against.
func TestDefenseFacadeSurface(t *testing.T) {
	var d Directive
	d.Action = ActionNullSteer
	if d.Action.String() != "null-steer" {
		t.Errorf("action string = %q", d.Action)
	}
	if ThreatQuarantine.String() != "quarantine" {
		t.Errorf("state string = %q", ThreatQuarantine)
	}
	if (DefensePolicy{}).WithDefaults().Validate() != nil {
		t.Error("default policy invalid through the facade")
	}
	var _ ClientThreat = defense.ClientThreat{}
	var _ DefenseStats = defense.Stats{}
	v := Verdict{Distance: 0.2, Threshold: 0.12}
	if v.Margin() >= 0 {
		t.Error("facade Verdict margin")
	}
}
