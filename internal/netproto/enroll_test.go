package netproto

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

func startAuthController(t *testing.T, require bool) (*Controller, string) {
	t.Helper()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.RequireAuth = require
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	return c, ln.Addr().String()
}

func dialToken(t *testing.T, addr, name, token string) (*Agent, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return DialContext(ctx, addr, Hello{Name: name, Pos: geom.Point{X: 1, Y: 1}, Token: token})
}

// TestEnrollTokenAccepted: the mint → Hello → Welcome round trip. A v4
// agent presenting its minted token connects and its reports are
// ingested, not dropped.
func TestEnrollTokenAccepted(t *testing.T) {
	c, addr := startAuthController(t, true)
	defer c.Close()
	token, err := c.EnrollAP("ap1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := dialToken(t, addr, "ap1", token)
	if err != nil {
		t.Fatalf("enrolled agent rejected: %v", err)
	}
	defer a.Close()
}

// TestEnrollBadTokenRejected: the acceptance criterion — a v4 agent
// with a bad or revoked token gets the typed rejection.
func TestEnrollBadTokenRejected(t *testing.T) {
	c, addr := startAuthController(t, true)
	defer c.Close()
	token, err := c.EnrollAP("ap1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dialToken(t, addr, "ap1", "deadbeef"); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("bad token: err = %v, want ErrAuthRejected", err)
	}
	if _, err := dialToken(t, addr, "ap2", token); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("unenrolled name with someone else's token: err = %v, want ErrAuthRejected", err)
	}
	if !c.RevokeAP("ap1") {
		t.Fatal("RevokeAP(ap1) = false")
	}
	if _, err := dialToken(t, addr, "ap1", token); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("revoked token: err = %v, want ErrAuthRejected", err)
	}
	if c.RevokeAP("ap1") {
		t.Fatal("second RevokeAP(ap1) = true")
	}
}

// TestEnrollRotation: re-enrolling a name rotates its token; the old
// token stops validating immediately.
func TestEnrollRotation(t *testing.T) {
	c, addr := startAuthController(t, true)
	defer c.Close()
	old, err := c.EnrollAP("ap1")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := c.EnrollAP("ap1")
	if err != nil {
		t.Fatal(err)
	}
	if old == fresh {
		t.Fatal("rotation returned the same token")
	}
	if _, err := dialToken(t, addr, "ap1", old); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("stale token: err = %v, want ErrAuthRejected", err)
	}
	a, err := dialToken(t, addr, "ap1", fresh)
	if err != nil {
		t.Fatalf("rotated token rejected: %v", err)
	}
	a.Close()
	if got := c.EnrolledAPs(); len(got) != 1 || got[0] != "ap1" {
		t.Fatalf("EnrolledAPs = %v", got)
	}
}

// TestEnrollLegacyOptionalAuth: with auth optional, an unenrolled
// agent may omit the token.
func TestEnrollLegacyOptionalAuth(t *testing.T) {
	c, addr := startAuthController(t, false)
	defer c.Close()
	a, err := dialToken(t, addr, "ap3", "")
	if err != nil {
		t.Fatalf("tokenless agent rejected with auth optional: %v", err)
	}
	defer a.Close()
	// A presented token must still validate, even when auth is optional.
	if _, err := dialToken(t, addr, "ap4", "bogus"); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("bogus token with auth optional: err = %v, want ErrAuthRejected", err)
	}
}

// TestEnrollRequireAuthClosesLegacy: with RequireAuth on, a tokenless
// (unenrolled) agent gets the typed rejection.
func TestEnrollRequireAuthClosesLegacy(t *testing.T) {
	c, addr := startAuthController(t, true)
	defer c.Close()
	if _, err := dialToken(t, addr, "ap1", ""); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("tokenless agent on a RequireAuth controller: err = %v, want ErrAuthRejected", err)
	}
}

// TestEnrollObserver: observers have no name to look a token up
// under, so with auth required they present any enrolled AP's token.
func TestEnrollObserver(t *testing.T) {
	c, addr := startAuthController(t, true)
	defer c.Close()
	token, err := c.EnrollAP("ap1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dialToken(t, addr, "", "nope"); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("observer with bad token: err = %v, want ErrAuthRejected", err)
	}
	obs, err := dialToken(t, addr, "", token)
	if err != nil {
		t.Fatalf("observer with enrolled token rejected: %v", err)
	}
	obs.Close()
}

// TestEnrollV4WireForms pins the enrollment fields on the wire: the
// Hello carries the token after the version, the Welcome a status
// byte, and both survive Unmarshal.
func TestEnrollV4WireForms(t *testing.T) {
	h := Hello{Name: "ap1", Pos: geom.Point{X: 3, Y: 4}, Token: "tok"}
	b := MarshalHello(h)
	if want := 1 + 2 + 3 + 16 + 2 + 2 + 3; len(b) != want {
		t.Fatalf("hello is %d bytes, want %d", len(b), want)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.(Hello) != h {
		t.Fatalf("hello round trip = %+v, want %+v", got, h)
	}
	w := Welcome{Status: WelcomeAuthRejected}
	wb := MarshalWelcome(w)
	if len(wb) != 4 {
		t.Fatalf("welcome is %d bytes, want 4", len(wb))
	}
	wgot, err := Unmarshal(wb)
	if err != nil {
		t.Fatal(err)
	}
	if wgot.(Welcome) != w {
		t.Fatalf("welcome round trip = %+v, want %+v", wgot, w)
	}
}

// TestFramesBeforeHelloCloseSession: the handshake comes first. A peer
// that skips the Hello cannot feed the engines under an enrolled AP's
// name or raise quarantines — its first frame closes the connection.
func TestFramesBeforeHelloCloseSession(t *testing.T) {
	c, addr := startAuthController(t, true)
	defer c.Close()
	token, err := c.EnrollAP("ap1")
	if err != nil {
		t.Fatal(err)
	}
	ap1, err := dialToken(t, addr, "ap1", token)
	if err != nil {
		t.Fatal(err)
	}
	defer ap1.Close()

	mac := wifi.MustParseAddr("66:00:00:00:00:99")
	for _, frame := range [][]byte{
		MarshalAlert(Alert{APName: "ap1", MAC: mac, Distance: 0.9, Threshold: 0.1, BearingDeg: 30, HasBearing: true}),
		MarshalReportBatch([]Report{{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: 30}, {APName: "ap1", MAC: mac, SeqNo: 2, BearingDeg: 31}}),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if WriteMessage(conn, frame) != nil {
				break // the controller already hung up
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = ReadMessage(conn)
		var ne net.Error
		if err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("type %d before Hello: connection stayed open (read err %v)", frame[0], err)
		}
		conn.Close()
	}
	if q := c.Quarantined(); len(q) != 0 {
		t.Errorf("unauthenticated alerts quarantined %v", q)
	}
	if th := c.Threats(); len(th) != 0 {
		t.Errorf("unauthenticated alerts left threat state %+v", th)
	}
	if n := c.Stats().Ingested; n != 0 {
		t.Errorf("unauthenticated reports ingested: %d", n)
	}
}
