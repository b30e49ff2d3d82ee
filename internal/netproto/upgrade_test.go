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

// TestDialContextAlreadyCancelled: the satellite requirement — a dead
// context fails the dial without touching the network.
func TestDialContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, "127.0.0.1:1", Hello{Name: "x"}); err == nil {
		t.Fatal("cancelled DialContext succeeded")
	}
}

// TestSubscribeFanout: every subscriber sees every decision;
// unsubscribing closes only that channel.
func TestSubscribeFanout(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	s1 := c.Subscribe(4)
	s2 := c.Subscribe(4)

	ap1Pos := geom.Point{X: 4, Y: 2}
	ap2Pos := geom.Point{X: 20, Y: 3}
	a1 := dialAP(t, addr, Hello{Name: "ap1", Pos: ap1Pos})
	defer a1.Close()
	a2 := dialAP(t, addr, Hello{Name: "ap2", Pos: ap2Pos})
	defer a2.Close()

	target := geom.Point{X: 9, Y: 6}
	mac := wifi.MustParseAddr("00:16:ea:50:00:12")
	send := func(seq uint64) {
		t.Helper()
		if err := a1.Send(Report{APName: "ap1", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap1Pos, target)}); err != nil {
			t.Fatal(err)
		}
		if err := a2.Send(Report{APName: "ap2", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap2Pos, target)}); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(ch <-chan FenceDecision, label string) FenceDecision {
		t.Helper()
		select {
		case d, ok := <-ch:
			if !ok {
				t.Fatalf("%s closed early", label)
			}
			return d
		case <-time.After(5 * time.Second):
			t.Fatalf("%s got nothing", label)
			return FenceDecision{}
		}
	}

	send(1)
	d1 := recv(s1.C, "sub1")
	d2 := recv(s2.C, "sub2")
	if d1.SeqNo != 1 || d2.SeqNo != 1 {
		t.Errorf("fanout seqs %d/%d", d1.SeqNo, d2.SeqNo)
	}

	c.Unsubscribe(s2)
	if _, ok := <-s2.C; ok {
		t.Error("unsubscribed channel still open")
	}
	send(2)
	if d := recv(s1.C, "sub1"); d.SeqNo != 2 {
		t.Errorf("sub1 seq %d after unsubscribe of sub2", d.SeqNo)
	}
}

// TestSubscribeAfterClose returns an already-closed channel rather than
// one that can never deliver.
func TestSubscribeAfterClose(t *testing.T) {
	c, _ := startController(t)
	c.Close()
	s := c.Subscribe(1)
	if _, ok := <-s.C; ok {
		t.Error("subscription on closed controller delivered")
	}
	c.Unsubscribe(s) // must not panic
}

// TestDialContextCancelMidHandshake: plain cancellation (no deadline)
// interrupts a handshake against a peer that accepts but never replies.
func TestDialContextCancelMidHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		time.Sleep(3 * time.Second) // accept, then say nothing
	}()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "x"})
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-handshake cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DialContext ignored cancellation during the Welcome read")
	}
}

// TestPingKeepalive: an otherwise-idle agent that pings inside the read
// deadline stays registered with the controller.
func TestPingKeepalive(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.ReadTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()

	a := dialAP(t, ln.Addr().String(), Hello{Name: "ap1", Pos: geom.Point{X: 1, Y: 1}})
	defer a.Close()
	// Stay idle for several deadline windows, pinging inside each.
	for i := 0; i < 6; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := a.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	// Still connected: an alert sent now must reach the quarantine.
	mac := wifi.MustParseAddr("66:00:00:00:00:02")
	if err := a.SendAlertDetail(Alert{APName: "ap1", MAC: mac, Distance: 0.5}); err != nil {
		t.Fatalf("post-ping alert: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Quarantined()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alert after keepalives never arrived — connection dropped?")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestControllerReadDeadline: a connected agent that never sends
// anything is disconnected once the keepalive deadline lapses, instead
// of pinning its handler goroutine.
func TestControllerReadDeadline(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.ReadTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Stall silently. The controller must drop us; its close of the
	// connection surfaces as EOF/reset on our read.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("stalled connection still alive after keepalive deadline")
	}
}
