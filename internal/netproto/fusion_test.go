package netproto

import (
	"context"
	"net"
	"testing"
	"time"

	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// TestFusionAPReconnectReplacesConnection is the reconnect regression
// test: an AP that reconnects under the same name (its old TCP
// connection lingering) must atomically replace the registration —
// new position used for fusion, old broadcaster retired, old
// connection closed — with broadcasts reaching only the new session.
func TestFusionAPReconnectReplacesConnection(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	sub := c.Subscribe(4)

	target := geom.Point{X: 9, Y: 6}
	stalePos := geom.Point{X: 1, Y: 14} // wrong corner: a fix computed with it misses badly
	goodPos := geom.Point{X: 4, Y: 2}
	ap2Pos := geom.Point{X: 20, Y: 3}

	stale := dialAP(t, addr, Hello{Name: "ap1", Pos: stalePos})
	defer stale.Close()
	a2 := dialAP(t, addr, Hello{Name: "ap2", Pos: ap2Pos})
	defer a2.Close()
	time.Sleep(100 * time.Millisecond) // let both registrations land

	// ap1 reconnects from its real position while the old connection is
	// still open.
	fresh := dialAP(t, addr, Hello{Name: "ap1", Pos: goodPos})
	defer fresh.Close()

	// The controller must have closed the stale connection: its read
	// side sees EOF/reset promptly, not a hang.
	stale.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadMessage(stale.conn); err == nil {
		t.Fatal("stale connection still readable after reconnect")
	}

	// Round trip through the replaced registration: reports from the
	// fresh connection fuse against ap1's NEW position.
	mac := wifi.MustParseAddr("00:16:ea:50:00:21")
	if err := fresh.Send(Report{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(goodPos, target)}); err != nil {
		t.Fatal(err)
	}
	if err := a2.Send(Report{APName: "ap2", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2Pos, target)}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub.C:
		if d.Pos.Dist(target) > 0.1 {
			t.Errorf("fused at %v, want %v (stale AP position used?)", d.Pos, target)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decision after reconnect")
	}

	// Broadcasts reach the fresh session (the stale broadcaster is gone,
	// so this would have raced or been lost on the old queue).
	alerts := fresh.Alerts()
	bad := wifi.MustParseAddr("66:00:00:00:00:21")
	if err := a2.SendAlertDetail(Alert{APName: "ap2", MAC: bad, Distance: 0.7}); err != nil {
		t.Fatal(err)
	}
	select {
	case al, ok := <-alerts:
		if !ok || al.MAC != bad {
			t.Errorf("fresh session broadcast = %+v ok=%v", al, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh session received no broadcast")
	}
}

// TestFusionQueryTracksOverWire drives the full v2 mobility-query
// round trip: reports fuse into tracks, an agent Querys one MAC and
// All, and the wire TrackStates match the in-process accessors.
func TestFusionQueryTracksOverWire(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()

	ap1Pos := geom.Point{X: 4, Y: 2}
	ap2Pos := geom.Point{X: 20, Y: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a1, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: ap1Pos})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := DialContext(ctx, addr, Hello{Name: "ap2", Pos: ap2Pos})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()

	sub := c.Subscribe(8)
	mac := wifi.MustParseAddr("00:16:ea:50:00:22")
	for seq := uint64(1); seq <= 3; seq++ {
		target := geom.Point{X: 8 + float64(seq), Y: 6}
		if err := a1.SendContext(ctx, Report{APName: "ap1", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap1Pos, target)}); err != nil {
			t.Fatal(err)
		}
		if err := a2.SendContext(ctx, Report{APName: "ap2", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap2Pos, target)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sub.C:
		case <-ctx.Done():
			t.Fatalf("no decision for seq %d", seq)
		}
	}

	// Wire query for the single MAC.
	states, err := a1.QueryTracks(ctx, Query{MAC: mac})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 {
		t.Fatalf("QueryTracks(mac) = %d states, want 1", len(states))
	}
	ts := states[0]
	if ts.MAC != mac || ts.Fixes != 3 || ts.LastSeq != 3 {
		t.Errorf("wire track = %+v, want 3 fixes through seq 3", ts)
	}
	want, ok := c.Track(mac)
	if !ok {
		t.Fatal("in-process Track missing")
	}
	if ts.Pos != want.Pos || ts.Vel != want.Vel || !ts.Updated.Equal(want.Updated) || ts.Decision != want.Decision {
		t.Errorf("wire track %+v != in-process %+v", ts, want)
	}

	// Query for an unknown MAC returns an empty (but prompt) reply.
	none, err := a2.QueryTracks(ctx, Query{MAC: wifi.MustParseAddr("aa:aa:aa:aa:aa:aa")})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("unknown MAC returned %d states", len(none))
	}

	// Query All sees the same single client.
	all, err := a2.QueryTracks(ctx, Query{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].MAC != mac {
		t.Errorf("QueryTracks(all) = %+v", all)
	}
}

// TestFusionQueryTracksMarshalRoundTrip covers the Tracks wire codec,
// including the chunking flag.
func TestFusionQueryTracksMarshalRoundTrip(t *testing.T) {
	in := Tracks{More: true}
	for i := 0; i < 3; i++ {
		in.States = append(in.States, trackStateFixture(i))
	}
	got, err := Unmarshal(MarshalTracks(in))
	if err != nil {
		t.Fatal(err)
	}
	out := got.(Tracks)
	if !out.More || len(out.States) != 3 {
		t.Fatalf("round trip %+v", out)
	}
	for i, ts := range out.States {
		want := in.States[i]
		if ts.MAC != want.MAC || ts.Pos != want.Pos || ts.Vel != want.Vel ||
			ts.Fixes != want.Fixes || ts.LastSeq != want.LastSeq ||
			!ts.Updated.Equal(want.Updated) || ts.Decision != want.Decision {
			t.Errorf("state %d: %+v != %+v", i, ts, want)
		}
	}

	q := Query{MAC: wifi.MustParseAddr("00:16:ea:50:00:24"), All: true}
	gq, err := Unmarshal(MarshalQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if gq.(Query) != q {
		t.Errorf("query round trip %+v != %+v", gq, q)
	}

	for i, b := range [][]byte{
		{TypeQuery},
		{TypeQuery, 1, 2, 3},
		{TypeTrack},
		{TypeTrack, 0, 0, 0, 0, 9, 1}, // count says 9, body empty-ish
	} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("malformed case %d accepted", i)
		}
	}
}

// TestFusionControllerStats exercises Controller.Stats end to end:
// fused decisions, duplicate drops, and unknown-AP drops all count.
func TestFusionControllerStats(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	sub := c.Subscribe(4)

	ap1Pos := geom.Point{X: 4, Y: 2}
	ap2Pos := geom.Point{X: 20, Y: 3}
	a1 := dialAP(t, addr, Hello{Name: "ap1", Pos: ap1Pos})
	defer a1.Close()
	a2 := dialAP(t, addr, Hello{Name: "ap2", Pos: ap2Pos})
	defer a2.Close()
	time.Sleep(50 * time.Millisecond)

	target := geom.Point{X: 9, Y: 6}
	mac := wifi.MustParseAddr("00:16:ea:50:00:25")
	a1.Send(Report{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap1Pos, target)})
	a2.Send(Report{APName: "ap2", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2Pos, target)})
	select {
	case <-sub.C:
	case <-time.After(5 * time.Second):
		t.Fatal("no decision")
	}
	// A replay of the decided transmission and a report from a ghost AP.
	a1.Send(Report{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: 10})
	a1.Send(Report{APName: "ghost", MAC: mac, SeqNo: 2, BearingDeg: 10})

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := c.Stats()
		if s.Decisions == 1 && s.DupDropped >= 1 && s.UnknownAPDrops == 1 {
			if s.Ingested < 3 {
				t.Errorf("Ingested = %d, want >= 3", s.Ingested)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFusionControllerMinDiversityDisabled: the controller-level knob
// reaches the engine — with the guard disabled, a degenerate pair
// fuses immediately instead of waiting out the decision timeout.
func TestFusionControllerMinDiversityDisabled(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.MinDiversityDeg = -1
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
	target := geom.Point{X: 16, Y: 9.5} // near the ap1-ap2 line

	a1 := dialAP(t, ln.Addr().String(), Hello{Name: "ap1", Pos: ap1})
	defer a1.Close()
	a2 := dialAP(t, ln.Addr().String(), Hello{Name: "ap2", Pos: ap2})
	defer a2.Close()
	a3 := dialAP(t, ln.Addr().String(), Hello{Name: "ap3", Pos: ap3})
	defer a3.Close()
	time.Sleep(50 * time.Millisecond)

	mac := wifi.MustParseAddr("00:16:ea:50:00:26")
	a1.Send(Report{APName: "ap1", MAC: mac, SeqNo: 7, BearingDeg: geom.BearingDeg(ap1, target)})
	a2.Send(Report{APName: "ap2", MAC: mac, SeqNo: 7, BearingDeg: geom.BearingDeg(ap2, target)})

	// With three APs registered and the guard off, two low-diversity
	// bearings decide at once — well inside the 1s forced timeout.
	select {
	case d := <-sub.C:
		if len(d.APs) != 2 {
			t.Errorf("decision used %d APs, want the immediate pair", len(d.APs))
		}
	case <-time.After(700 * time.Millisecond):
		t.Fatal("guard disabled but decision still deferred")
	}
}

func trackStateFixture(i int) (ts fusion.TrackState) {
	ts.MAC = wifi.Addr{0, 0x16, 0xea, 0x50, 0x01, byte(i)}
	ts.Pos = geom.Point{X: float64(i) + 0.5, Y: 2 * float64(i)}
	ts.Vel = geom.Point{X: -0.25, Y: float64(i)}
	ts.Fixes = uint64(10 + i)
	ts.LastSeq = uint64(100 + i)
	ts.Updated = time.Unix(1700000000+int64(i), 12345)
	ts.Decision = locate.Drop
	return ts
}

// TestFusionObserverSessionNotAnAP: an empty-name Hello is an observer
// — it can query tracks and receives broadcasts, but is not counted as
// a registered AP, so it does not break the all-APs-reported fusion
// shortcut for low-diversity geometry.
func TestFusionObserverSessionNotAnAP(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	sub := c.Subscribe(64)

	ap1 := geom.Point{X: 20, Y: 5}
	ap2 := geom.Point{X: 12, Y: 13}
	target := geom.Point{X: 16, Y: 9.5} // ~7 deg diversity: below the guard

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a1, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: ap1})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := DialContext(ctx, addr, Hello{Name: "ap2", Pos: ap2})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	obs, err := DialContext(ctx, addr, Hello{}) // observer: empty name
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	time.Sleep(50 * time.Millisecond)

	// Both (and all) registered APs report: the shortcut fuses the
	// low-diversity pair immediately. If the observer were counted as
	// a third AP, this would stall until the 1s forced timeout.
	mac := wifi.MustParseAddr("00:16:ea:50:00:27")
	a1.SendContext(ctx, Report{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap1, target)})
	a2.SendContext(ctx, Report{APName: "ap2", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2, target)})
	select {
	case <-sub.C:
	case <-time.After(700 * time.Millisecond):
		t.Fatal("observer session inflated apCount: all-APs shortcut did not fire")
	}

	// The observer can pull the resulting track over the wire.
	states, err := obs.QueryTracks(ctx, Query{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].MAC != mac {
		t.Errorf("observer query = %+v", states)
	}
}

// TestFusionServeValidatesConfig: contradictory fusion tuning fails at
// Serve, before peers can trigger the lazy engine build mid-handler.
func TestFusionServeValidatesConfig(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.MinAPs = 1 // triangulation needs two bearings
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer func() {
		if recover() == nil {
			t.Error("Serve accepted MinAPs=1")
		}
	}()
	c.Serve(ln)
}

// TestFusionQueryTracksDrainsStaleReplies: a reply left behind by a
// ctx-cancelled QueryTracks must not be returned to the next query.
func TestFusionQueryTracksDrainsStaleReplies(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	sub := c.Subscribe(4)

	ap1Pos := geom.Point{X: 4, Y: 2}
	ap2Pos := geom.Point{X: 20, Y: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a1, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: ap1Pos})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := DialContext(ctx, addr, Hello{Name: "ap2", Pos: ap2Pos})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()

	target := geom.Point{X: 9, Y: 6}
	mac := wifi.MustParseAddr("00:16:ea:50:00:28")
	a1.SendContext(ctx, Report{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap1Pos, target)})
	a2.SendContext(ctx, Report{APName: "ap2", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2Pos, target)})
	select {
	case <-sub.C:
	case <-ctx.Done():
		t.Fatal("no decision")
	}

	// Abandon a query: send it, never read the reply.
	if err := a1.Query(Query{All: true}); err != nil {
		t.Fatal(err)
	}
	_ = a1.TrackReplies()              // subscribe so the reply queues
	time.Sleep(100 * time.Millisecond) // let the stale frame land

	// The next query must answer with ITS result, not the stale one.
	states, err := a1.QueryTracks(ctx, Query{MAC: wifi.MustParseAddr("aa:aa:aa:aa:aa:aa")})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Errorf("stale All-reply leaked into a MAC query: %+v", states)
	}
}

// TestFusionAlertsParkedBeforeSubscribe: broadcasts read by the shared
// reader (started via TrackReplies) before Alerts() is called are
// delivered to the eventual subscriber, not dropped.
func TestFusionAlertsParkedBeforeSubscribe(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	listener, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: geom.Point{X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	sender, err := DialContext(ctx, addr, Hello{Name: "ap2", Pos: geom.Point{X: 2, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Start the listener's shared reader through the tracks side only.
	if _, err := listener.QueryTracks(ctx, Query{All: true}); err != nil {
		t.Fatal(err)
	}
	bad := wifi.MustParseAddr("66:00:00:00:00:29")
	if err := sender.SendAlertDetail(Alert{APName: "ap2", MAC: bad, Distance: 0.8}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Quarantined()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alert never quarantined")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // broadcast reaches the reader pre-subscribe

	// Late subscription must still see the parked broadcast.
	select {
	case al, ok := <-listener.Alerts():
		if !ok || al.MAC != bad {
			t.Errorf("parked alert = %+v ok=%v", al, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("alert read before Alerts() was dropped")
	}
}
