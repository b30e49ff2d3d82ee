package netproto

import (
	"bytes"
	"context"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// countingWriter records every Write it receives.
type countingWriter struct {
	mu     sync.Mutex
	writes [][]byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *countingWriter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.writes)
}

// gatedConn is a session connection whose every Write waits for a
// token on gate, so a test can hold the writer mid-Write while frames
// pile up behind it.
type gatedConn struct {
	net.Conn // nil: only Write and Close are used
	countingWriter
	gate chan struct{}
}

func (g *gatedConn) Write(p []byte) (int, error) {
	<-g.gate
	return g.countingWriter.Write(p)
}

func (g *gatedConn) Close() error { return nil }

// splitFrames decodes a byte stream into its frame bodies.
func splitFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	r := bytes.NewReader(b)
	for {
		body, err := ReadMessage(r)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, body)
	}
}

func TestWriteMessageOneWrite(t *testing.T) {
	body := MarshalDirective(Directive{Directive: defense.Directive{Reporter: "ap1", Stage: "spoofcheck"}})
	for _, b := range [][]byte{body, make([]byte, frameKeep+1)} {
		var w countingWriter
		if err := WriteMessage(&w, b); err != nil {
			t.Fatal(err)
		}
		if w.count() != 1 {
			t.Fatalf("%d-byte body: %d writes, want 1", len(b), w.count())
		}
		if got := splitFrames(t, w.writes[0]); len(got) != 1 || !bytes.Equal(got[0], b) {
			t.Fatalf("%d-byte body: write does not hold exactly the framed body", len(b))
		}
	}
}

func BenchmarkWriteMessage(b *testing.B) {
	body := MarshalDirective(Directive{Directive: defense.Directive{Reporter: "controller", Stage: "spoofcheck"}})
	b.ReportAllocs()
	b.SetBytes(int64(4 + len(body)))
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOutboxOneWritePerWakeup holds the session writer inside its
// first Write (the Welcome) while a quarantine and four releases are
// emitted, then checks that everything posted meanwhile leaves in a
// single Write, quarantine Alert mirror and directive adjacent.
func TestOutboxOneWritePerWakeup(t *testing.T) {
	c := NewController(&locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)})
	conn := &gatedConn{gate: make(chan struct{})}
	done := make(chan struct{})
	sess := c.startSession("ap1", conn, done, newAPHealth("ap1", false))
	defer func() {
		close(conn.gate)
		close(done)
		c.Close()
	}()

	// The writer has taken the Welcome once the outbox is empty; it is
	// then held inside that Write.
	waitFor(t, 2*time.Second, "writer in its first Write", func() bool { return sess.out.depth() == 0 })
	mac := wifi.MustParseAddr("66:00:00:00:00:01")
	c.emitDirective(defense.Directive{MAC: mac, Action: defense.ActionQuarantine, From: defense.StateMonitor, To: defense.StateQuarantine})
	for i := 0; i < 4; i++ {
		c.emitDirective(defense.Directive{MAC: mac, Action: defense.ActionAllow, From: defense.StateQuarantine, To: defense.StateAllow})
	}
	if d := sess.out.depth(); d != 6 {
		t.Fatalf("outbox depth %d, want 6 (alert mirror + 5 directives)", d)
	}
	if h := c.APHealth(); len(h) != 1 || h[0].QueueDepth != 6 {
		t.Fatalf("APHealth = %+v, want QueueDepth 6", h)
	}
	conn.gate <- struct{}{} // the Welcome
	conn.gate <- struct{}{} // everything posted behind it
	waitFor(t, 2*time.Second, "second write", func() bool { return conn.count() == 2 })
	if d := sess.out.depth(); d != 0 {
		t.Errorf("outbox depth %d after the write, want 0", d)
	}
	if got := splitFrames(t, conn.writes[0]); len(got) != 1 || got[0][0] != TypeWelcome {
		t.Fatalf("first write: %d frames, want the Welcome alone", len(got))
	}
	frames := splitFrames(t, conn.writes[1])
	if len(frames) != 6 {
		t.Fatalf("second write carries %d frames, want 6", len(frames))
	}
	if frames[0][0] != TypeAlert || frames[1][0] != TypeDirective {
		t.Errorf("quarantine post = types %d,%d, want Alert then Directive", frames[0][0], frames[1][0])
	}
}

// TestStalledAPSessionClosedNotDropped connects an AP that never reads
// and emits 2,000 quarantines plus 1,000 releases. No directive may be
// silently dropped: once the unsent backlog passes the cap the session
// is closed and counted, and the AP's reconnect receives resume
// directives for exactly the controller's quarantine set.
func TestStalledAPSessionClosedNotDropped(t *testing.T) {
	c := NewController(&locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)})
	c.DefensePolicy = defense.Policy{HalfLife: time.Hour, MinQuarantine: time.Millisecond}
	c.sendBacklog = 64 << 10
	var handlers sync.WaitGroup
	defer func() {
		c.Close()
		handlers.Wait()
	}()
	serve := func() net.Conn {
		client, server := net.Pipe()
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			c.handle(server)
		}()
		return client
	}
	hello := Hello{Name: "ap1", Pos: geom.Point{X: 2, Y: 2}}

	// The stalled AP: it says Hello and never reads, not even the
	// Welcome, so the session writer blocks in its first Write.
	stalled := serve()
	defer stalled.Close()
	if err := WriteMessage(stalled, MarshalHello(hello)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "session registered", func() bool { return len(c.APHealth()) == 1 })

	macs := make([]wifi.Addr, 2000)
	for i := range macs {
		macs[i] = wifi.Addr{0x66, 0, 0, 0, byte(i >> 8), byte(i)}
		c.handleAlert(Alert{APName: "ap2", MAC: macs[i], Distance: 0.9, Threshold: 0.12})
	}
	for _, mac := range macs[:1000] {
		if !c.Release(mac) {
			t.Fatalf("release of %s: no threat state", mac)
		}
	}
	if got := c.Stats().SendOverflows; got != 1 {
		t.Fatalf("SendOverflows = %d, want 1", got)
	}
	if got := c.StatusReport().SendOverflows; got != 1 {
		t.Fatalf("status send_overflows = %d, want 1", got)
	}
	waitFor(t, 2*time.Second, "stalled session reaped", func() bool { return len(c.APHealth()) == 0 })

	want := c.Quarantined()
	if len(want) != 1000 {
		t.Fatalf("%d quarantined, want 1000", len(want))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ag, err := NewAgentContext(ctx, serve(), hello)
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	dirs := ag.Directives()
	var got []wifi.Addr
	for len(got) < len(want) {
		select {
		case d := <-dirs:
			if d.Reporter != "resume" || d.To != defense.StateQuarantine {
				t.Fatalf("directive %d after reconnect = %+v, want a resume quarantine", len(got), d)
			}
			got = append(got, d.MAC)
		case <-ctx.Done():
			t.Fatalf("%d of %d resume directives arrived", len(got), len(want))
		}
	}
	wantMACs := make([]wifi.Addr, len(want))
	for i, a := range want {
		wantMACs[i] = a.MAC
	}
	sort.Slice(wantMACs, func(i, k int) bool { return bytes.Compare(wantMACs[i][:], wantMACs[k][:]) < 0 })
	for i := range got {
		if got[i] != wantMACs[i] {
			t.Fatalf("resume directive %d for %s, want %s", i, got[i], wantMACs[i])
		}
	}
}

// TestAgentHandshakeOverRead has a controller write the Welcome and a
// resume Directive in one Write: the handshake's buffered read pulls
// both in, and the background reader must share that buffer to deliver
// the Directive.
func TestAgentHandshakeOverRead(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	mac := wifi.MustParseAddr("66:00:00:00:00:07")
	go func() {
		if _, err := ReadMessage(server); err != nil {
			return
		}
		b := appendFrame(nil, MarshalWelcome(Welcome{}))
		b = appendFrame(b, MarshalDirective(Directive{Directive: defense.Directive{
			MAC: mac, Action: defense.ActionQuarantine, To: defense.StateQuarantine, Reporter: "resume",
		}}))
		server.Write(b)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ag, err := NewAgentContext(ctx, client, Hello{Name: "ap1"})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	select {
	case d := <-ag.Directives():
		if d.MAC != mac || d.Reporter != "resume" {
			t.Fatalf("directive = %+v", d)
		}
	case <-ctx.Done():
		t.Fatal("resume directive written with the Welcome was lost")
	}
}

// TestStandbyHandshakeOverRead has a leader write the Welcome and the
// first Segment in one Write: the standby's apply loop must read the
// Segment from the buffer the Welcome's read filled, apply it, and ack
// its LSN.
func TestStandbyHandshakeOverRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sb, err := NewStandby(StandbyConfig{
		LeaderAddr: ln.Addr().String(),
		Dir:        t.TempDir(),
		Fence:      &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)},
		Configure:  func(c *Controller) { c.SnapshotInterval = -1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go sb.Run(ctx)

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	rec := journal.Record{Type: journal.RecAlert, LSN: 1, TS: time.Unix(100, 0), Data: journal.EncodeAlert(defense.SpoofVerdict{
		AP: "ap1", MAC: wifi.MustParseAddr("66:00:00:00:00:08"), Flagged: true, Distance: 0.9, Threshold: 0.12,
	})}
	b := appendFrame(nil, MarshalWelcome(Welcome{}))
	b = appendFrame(b, MarshalSegment(Segment{PartCount: 1, LeaderLSN: 1, Records: []journal.Record{rec}}))
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint64{0, 1} { // the subscribe, then the apply ack
		body, err := ReadMessage(conn)
		if err != nil {
			t.Fatalf("awaiting ack of LSN %d: %v", want, err)
		}
		msg, err := Unmarshal(body)
		if err != nil {
			t.Fatal(err)
		}
		ack, ok := msg.(SegmentAck)
		if !ok {
			t.Fatalf("got %T, want SegmentAck", msg)
		}
		var lsn uint64
		for _, p := range ack.Positions {
			lsn = p.LSN
		}
		if lsn != want {
			t.Fatalf("ack positions %+v, want LSN %d", ack.Positions, want)
		}
	}
}

// TestDirectiveAckPathAllocs pins the controller's ack handling with
// Logf unset: the log call's arguments must not be built (and escape)
// when nobody is listening.
func TestDirectiveAckPathAllocs(t *testing.T) {
	c := NewController(&locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)})
	defer c.Close()
	d := Directive{Directive: defense.Directive{
		MAC: wifi.MustParseAddr("66:00:00:00:00:09"), Action: defense.ActionQuarantine,
		BearingDeg: 12, Reporter: "ap1",
	}, Ack: true}
	c.noteDirectiveSent(d.MAC)
	if allocs := testing.AllocsPerRun(200, func() { c.handleDirective(d, "ap1") }); allocs != 0 {
		t.Errorf("ack path: %.1f allocs/op, want 0", allocs)
	}
}

// TestLargeQueryReplyNotAnOverflow asks for a threat table several times
// the session's backlog cap: the reply waits out the backlog instead of
// closing the session, and arrives whole.
func TestLargeQueryReplyNotAnOverflow(t *testing.T) {
	c := NewController(&locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)})
	c.DefensePolicy = defense.Policy{HalfLife: time.Hour, MinQuarantine: time.Millisecond}
	c.sendBacklog = 8 << 10
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()
	for i := 0; i < 300; i++ {
		c.handleAlert(Alert{APName: "ap2", MAC: wifi.Addr{0x66, 0, 0, 0, byte(i >> 8), byte(i)}, Distance: 0.9, Threshold: 0.12})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ag, err := DialContext(ctx, ln.Addr().String(), Hello{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	states, err := ag.QueryThreats(ctx, Query{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 300 {
		t.Fatalf("%d threat rows, want 300", len(states))
	}
	if n := c.Stats().SendOverflows; n != 0 {
		t.Fatalf("SendOverflows = %d, want 0", n)
	}
}
