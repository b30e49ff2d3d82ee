package netproto

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{Name: "ap-west", Pos: geom.Point{X: 8, Y: 5}},
		{Name: "ap-east", Pos: geom.Point{X: 1, Y: 2}, Token: "tok"},
	} {
		got, err := Unmarshal(MarshalHello(h))
		if err != nil {
			t.Fatal(err)
		}
		if got.(Hello) != h {
			t.Errorf("round trip %v != %v", got, h)
		}
	}
}

// TestReportRoundTrip: a single report's fields survive the wire in the
// batch-of-one frame Agent.Send writes.
func TestReportRoundTrip(t *testing.T) {
	r := Report{
		APName:     "ap1",
		MAC:        wifi.MustParseAddr("00:16:ea:50:00:05"),
		BearingDeg: 123.75,
		SeqNo:      987654321,
		Trace:      0xdead,
	}
	got, err := Unmarshal(MarshalReportBatch([]Report{r}))
	if err != nil {
		t.Fatal(err)
	}
	gb, ok := got.(ReportBatch)
	if !ok || len(gb) != 1 {
		t.Fatalf("decoded %T %v, want a ReportBatch of one", got, got)
	}
	if gb[0] != r {
		t.Errorf("fields: %+v, want %+v", gb[0], r)
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	hello := MarshalHello(Hello{Name: "a"})
	helloNoToken := hello[:len(hello)-2]
	helloV4 := append([]byte{}, hello...)
	helloV4[len(hello)-3] = 4
	helloV5 := append([]byte{}, hello...)
	helloV5[len(hello)-3] = 5
	batch := MarshalReportBatch([]Report{{APName: "a"}, {APName: "b"}})
	alert := MarshalAlert(Alert{APName: "a", Stage: "spoofcheck"})
	directive := MarshalDirective(Directive{})
	query := MarshalQuery(Query{All: true, ID: 9})
	cases := [][]byte{
		nil,
		{TypeHello},                              // no name
		{TypeHello, 0, 3, 'a'},                   // short name
		{TypeReportBatch, 0, 0, 0, 1, 0, 1, 'x'}, // truncated body
		// Retired pre-v6 forms.
		helloNoToken[:len(helloNoToken)-2], // no version, no token
		helloNoToken,                       // version, no token
		helloV4,                            // another version
		helloV5,                            // the previous version
		{TypeWelcome, 0, 2},                // 3-byte Welcome
		{TypeWelcome, 0, 4, WelcomeOK},     // another version
		{TypeWelcome, 0, 5, WelcomeOK},     // the previous version
		batch[:len(batch)-16],              // trace-less ReportBatch
		alert[:len(alert)-8],               // trace-less Alert
		alert[:len(alert)-8-17],            // stage-only Alert
		alert[:len(alert)-8-17-2-10],       // bare Alert
		directive[:len(directive)-8],       // trace-less Directive
		query[:len(query)-1],               // kind-less Query
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); !errors.Is(err, ErrBadMessage) {
			t.Errorf("case %d: err = %v, want ErrBadMessage", i, err)
		}
	}
	// Unassigned types, among them 2, the retired single-report frame
	// (a v5 Report: name "a", MAC, bearing, seq, empty signature, trace).
	v5Report := append([]byte{2, 0, 1, 'a'}, make([]byte, 6+8+8+4+8)...)
	for _, b := range [][]byte{{99}, v5Report} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("unknown type %d accepted", b[0])
		}
	}
	// Valid hello with trailing garbage.
	if _, err := Unmarshal(append(hello, 0xff)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello framing")
	if err := WriteMessage(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Error("framing round trip")
	}
}

func TestMessageSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, make([]byte, MaxMessageSize+1)); err != ErrTooLarge {
		t.Errorf("oversize write err = %v", err)
	}
	// Hostile length prefix.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadMessage(&buf); err != ErrTooLarge {
		t.Errorf("hostile prefix err = %v", err)
	}
}

// dialAP runs the agent handshake against addr under a 5 s deadline.
func dialAP(t *testing.T, addr string, h Hello) *Agent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, err := DialContext(ctx, addr, h)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// startController runs a controller on a loopback listener.
func startController(t *testing.T) (*Controller, string) {
	t.Helper()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	return c, ln.Addr().String()
}

func TestControllerFusesInsideClient(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	sub := c.Subscribe(4)

	target := geom.Point{X: 9, Y: 6}
	ap1Pos := geom.Point{X: 4, Y: 2}
	ap2Pos := geom.Point{X: 20, Y: 3}
	a1 := dialAP(t, addr, Hello{Name: "ap1", Pos: ap1Pos})
	defer a1.Close()
	a2 := dialAP(t, addr, Hello{Name: "ap2", Pos: ap2Pos})
	defer a2.Close()

	mac := wifi.MustParseAddr("00:16:ea:50:00:07")
	if err := a1.Send(Report{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap1Pos, target)}); err != nil {
		t.Fatal(err)
	}
	if err := a2.Send(Report{APName: "ap2", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2Pos, target)}); err != nil {
		t.Fatal(err)
	}

	select {
	case d := <-sub.C:
		if d.Decision != locate.Allow {
			t.Errorf("inside client dropped: %+v", d)
		}
		if d.Pos.Dist(target) > 0.1 {
			t.Errorf("fused position %v, want %v", d.Pos, target)
		}
		if d.MAC != mac || d.SeqNo != 1 {
			t.Error("decision identity wrong")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decision within 5s")
	}
}

func TestControllerDropsOutsideClient(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	sub := c.Subscribe(4)

	intruder := geom.Point{X: -5, Y: 8} // outside the shell
	ap1Pos := geom.Point{X: 4, Y: 2}
	ap2Pos := geom.Point{X: 12, Y: 14}
	a1 := dialAP(t, addr, Hello{Name: "ap1", Pos: ap1Pos})
	defer a1.Close()
	a2 := dialAP(t, addr, Hello{Name: "ap2", Pos: ap2Pos})
	defer a2.Close()

	mac := wifi.MustParseAddr("66:66:66:66:66:66")
	a1.Send(Report{APName: "ap1", MAC: mac, SeqNo: 9, BearingDeg: geom.BearingDeg(ap1Pos, intruder)})
	a2.Send(Report{APName: "ap2", MAC: mac, SeqNo: 9, BearingDeg: geom.BearingDeg(ap2Pos, intruder)})

	select {
	case d := <-sub.C:
		if d.Decision != locate.Drop {
			t.Errorf("outside client allowed: %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decision within 5s")
	}
}

func TestControllerIgnoresUnknownAP(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	sub := c.Subscribe(4)

	// A session reporting under a name no Hello registered.
	a := dialAP(t, addr, Hello{Name: "ap1", Pos: geom.Point{X: 4, Y: 2}})
	defer a.Close()
	mac := wifi.MustParseAddr("00:16:ea:50:00:01")
	if err := a.Send(Report{APName: "ghost", MAC: mac, SeqNo: 1, BearingDeg: 10}); err != nil {
		t.Fatal(err)
	}

	select {
	case d, ok := <-sub.C:
		if ok {
			t.Errorf("decision from unknown AP: %+v", d)
		}
	case <-time.After(300 * time.Millisecond):
		// expected: nothing fused
	}
}

func TestControllerRequiresMinAPs(t *testing.T) {
	c, addr := startController(t)
	c.MinAPs = 3
	defer c.Close()
	sub := c.Subscribe(4)

	ap1Pos := geom.Point{X: 4, Y: 2}
	ap2Pos := geom.Point{X: 20, Y: 3}
	a1 := dialAP(t, addr, Hello{Name: "ap1", Pos: ap1Pos})
	defer a1.Close()
	a2 := dialAP(t, addr, Hello{Name: "ap2", Pos: ap2Pos})
	defer a2.Close()

	mac := wifi.MustParseAddr("00:16:ea:50:00:02")
	target := geom.Point{X: 9, Y: 6}
	a1.Send(Report{APName: "ap1", MAC: mac, SeqNo: 3, BearingDeg: geom.BearingDeg(ap1Pos, target)})
	a2.Send(Report{APName: "ap2", MAC: mac, SeqNo: 3, BearingDeg: geom.BearingDeg(ap2Pos, target)})

	select {
	case d := <-sub.C:
		t.Errorf("decision with only 2 of 3 APs: %+v", d)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestControllerGracefulClose(t *testing.T) {
	c, addr := startController(t)
	sub := c.Subscribe(4)
	a := dialAP(t, addr, Hello{Name: "ap1", Pos: geom.Point{}})
	defer a.Close()
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with open connection")
	}
	// Subscription channels must be closed.
	if _, ok := <-sub.C; ok {
		t.Error("subscription channel still open")
	}
}

func TestAgentOnPipe(t *testing.T) {
	// NewAgentContext works over an in-memory pipe; the far end sees the
	// Hello and answers with the Welcome.
	body := helloOnWire(t, Hello{Name: "pipe-ap", Pos: geom.Point{X: 1, Y: 2}}, MarshalWelcome(Welcome{Status: WelcomeOK}))
	msg, err := Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if h := msg.(Hello); h.Name != "pipe-ap" {
		t.Errorf("hello = %+v", h)
	}
}
