package netproto

import (
	"net"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

func TestAlertMarshalRoundTrip(t *testing.T) {
	a := Alert{APName: "ap3", MAC: wifi.MustParseAddr("00:16:ea:50:00:07"), Distance: 0.83}
	got, err := Unmarshal(MarshalAlert(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.(Alert) != a {
		t.Errorf("round trip %+v != %+v", got, a)
	}
}

func TestAlertUnmarshalMalformed(t *testing.T) {
	for _, b := range [][]byte{
		{TypeAlert},
		{TypeAlert, 0, 2, 'a', 'b', 1, 2, 3}, // truncated MAC+distance
	} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("malformed alert %v accepted", b)
		}
	}
}

func TestQuarantinePropagation(t *testing.T) {
	// AP1 flags a spoofer; the controller quarantines the MAC and every
	// other AP learns about it, as an Alert and as a typed Directive
	// carrying the evidence.
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()

	a1 := dialAP(t, ln.Addr().String(), Hello{Name: "ap1", Pos: geom.Point{X: 8, Y: 5}})
	defer a1.Close()
	a2 := dialAP(t, ln.Addr().String(), Hello{Name: "ap2", Pos: geom.Point{X: 20, Y: 5}})
	defer a2.Close()

	// AP2 listens for broadcasts.
	alerts := a2.Alerts()
	directives := a2.Directives()
	time.Sleep(50 * time.Millisecond) // let both Hellos register broadcasters

	bad := wifi.MustParseAddr("66:00:00:00:00:05")
	if err := a1.SendAlertDetail(Alert{
		APName: "ap1", MAC: bad, Distance: 0.91, Threshold: 0.12,
		BearingDeg: 77, HasBearing: true, Stage: "spoofcheck",
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case al, ok := <-alerts:
		if !ok {
			t.Fatal("alert channel closed")
		}
		if al.MAC != bad || al.Stage != "spoofcheck" {
			t.Errorf("broadcast = %+v", al)
		}
		if al.APName != "controller" {
			t.Errorf("broadcast origin = %q", al.APName)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no broadcast within 5s")
	}
	select {
	case d, ok := <-directives:
		if !ok {
			t.Fatal("directive channel closed")
		}
		if d.MAC != bad || d.To != defense.StateQuarantine || d.Ack {
			t.Fatalf("directive = %+v", d)
		}
		if d.BearingDeg != 77 || d.Stage != "spoofcheck" || d.Distance != 0.91 {
			t.Errorf("directive evidence = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no directive within 5s")
	}

	// The controller's quarantine list includes the MAC.
	q := c.Quarantined()
	if len(q) != 1 || q[0].MAC != bad || q[0].Stage != "spoofcheck" {
		t.Errorf("quarantine list = %+v", q)
	}

	// A duplicate alert does not re-broadcast.
	if err := a1.SendAlertDetail(Alert{APName: "ap1", MAC: bad, Distance: 0.95}); err != nil {
		t.Fatal(err)
	}
	select {
	case al := <-alerts:
		t.Errorf("duplicate alert re-broadcast: %+v", al)
	case <-time.After(300 * time.Millisecond):
	}
	if len(c.Quarantined()) != 1 {
		t.Error("duplicate changed quarantine size")
	}
}

func TestQuarantineBroadcastReachesLateJoiner(t *testing.T) {
	// An AP joining while a quarantine is in force receives it as a
	// resume directive — the same path that re-arms the fleet after a
	// crash-recovered controller restart. This test pins the behaviour.
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()

	a1 := dialAP(t, ln.Addr().String(), Hello{Name: "ap1", Pos: geom.Point{}})
	defer a1.Close()
	time.Sleep(50 * time.Millisecond)
	bad := wifi.MustParseAddr("66:00:00:00:00:09")
	a1.SendAlertDetail(Alert{APName: "ap1", MAC: bad, Distance: 0.9})
	time.Sleep(100 * time.Millisecond)

	late := dialAP(t, ln.Addr().String(), Hello{Name: "late", Pos: geom.Point{X: 1, Y: 1}})
	defer late.Close()
	select {
	case d, ok := <-late.Directives():
		if !ok {
			t.Fatal("directive channel closed")
		}
		if d.MAC != bad || d.Reporter != "resume" || d.To != defense.StateQuarantine {
			t.Errorf("resume directive = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late joiner never received the active quarantine")
	}
	// And the list is available on demand.
	if len(c.Quarantined()) != 1 {
		t.Error("quarantine list missing the alert")
	}
}

func TestControllerDefersDegenerateGeometry(t *testing.T) {
	// Two APs whose bearing lines are nearly parallel (client close to
	// the inter-AP line) must NOT produce a decision until a third,
	// diverse bearing arrives.
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()
	sub := c.Subscribe(64)

	ap1 := geom.Point{X: 20, Y: 5}
	ap2 := geom.Point{X: 12, Y: 13}
	ap3 := geom.Point{X: 8, Y: 5}
	target := geom.Point{X: 16, Y: 9} // on the ap1-ap2 line

	a1 := dialAP(t, ln.Addr().String(), Hello{Name: "ap1", Pos: ap1})
	defer a1.Close()
	a2 := dialAP(t, ln.Addr().String(), Hello{Name: "ap2", Pos: ap2})
	defer a2.Close()
	a3 := dialAP(t, ln.Addr().String(), Hello{Name: "ap3", Pos: ap3})
	defer a3.Close()
	time.Sleep(50 * time.Millisecond)

	mac := wifi.MustParseAddr("00:16:ea:50:00:02")
	a1.Send(Report{APName: "ap1", MAC: mac, SeqNo: 7, BearingDeg: geom.BearingDeg(ap1, target)})
	a2.Send(Report{APName: "ap2", MAC: mac, SeqNo: 7, BearingDeg: geom.BearingDeg(ap2, target)})

	select {
	case d := <-sub.C:
		t.Fatalf("degenerate pair decided: %+v", d)
	case <-time.After(300 * time.Millisecond):
	}

	a3.Send(Report{APName: "ap3", MAC: mac, SeqNo: 7, BearingDeg: geom.BearingDeg(ap3, target)})
	select {
	case d := <-sub.C:
		if d.Pos.Dist(target) > 0.5 {
			t.Errorf("fused at %v, want %v", d.Pos, target)
		}
		if len(d.APs) != 3 {
			t.Errorf("decision used %d APs", len(d.APs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decision after diverse bearing arrived")
	}
}
