package netproto

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

func TestDefenseDirectiveWireRoundTrip(t *testing.T) {
	cases := []Directive{
		{Directive: defense.Directive{
			MAC:        wifi.MustParseAddr("66:00:00:00:00:05"),
			Action:     defense.ActionNullSteer,
			From:       defense.StateMonitor,
			To:         defense.StateQuarantine,
			Reporter:   "ap1",
			BearingDeg: 123.5,
			Pos:        geom.Point{X: 4.25, Y: -1.5},
			HasPos:     true,
			Score:      5.75,
			Distance:   0.91,
			Threshold:  0.12,
			Stage:      "spoofcheck",
		}},
		{Directive: defense.Directive{
			MAC:    wifi.MustParseAddr("00:16:ea:50:00:07"),
			Action: defense.ActionAllow,
			From:   defense.StateQuarantine,
			To:     defense.StateAllow,
		}, Ack: true},
		{}, // zero value
	}
	for i, d := range cases {
		got, err := Unmarshal(MarshalDirective(d))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.(Directive) != d {
			t.Errorf("case %d: round trip %+v != %+v", i, got, d)
		}
	}
}

func TestDefenseDirectiveUnmarshalMalformed(t *testing.T) {
	good := MarshalDirective(Directive{Directive: defense.Directive{Reporter: "ap1", Stage: "spoofcheck"}})
	for _, b := range [][]byte{
		{TypeDirective},
		good[:len(good)-1],                      // truncated trailing string
		good[:1+1+(3+6+7*8)-3],                  // truncated fixed fields
		append(append([]byte{}, good...), 0xff), // trailing junk
	} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("malformed directive %v accepted", b)
		}
	}
}

func TestDefenseThreatsWireRoundTrip(t *testing.T) {
	ts := time.Unix(1234, 567000000)
	in := Threats{
		ID:   7,
		More: true,
		States: []defense.ClientThreat{
			{
				MAC:           wifi.MustParseAddr("66:00:00:00:00:01"),
				State:         defense.StateQuarantine,
				Action:        defense.ActionNullSteer,
				Score:         4.5,
				Flags:         3,
				FenceDrops:    2,
				SpeedFlags:    1,
				LastAP:        "ap2",
				Stage:         "spoofcheck",
				LastDistance:  0.8,
				LastThreshold: 0.12,
				BearingDeg:    211.25,
				Pos:           geom.Point{X: 1, Y: 2},
				HasPos:        true,
				Since:         ts,
				Updated:       ts.Add(time.Second),
			},
			{MAC: wifi.MustParseAddr("66:00:00:00:00:02"), Since: ts, Updated: ts},
		},
	}
	got, err := Unmarshal(MarshalThreats(in))
	if err != nil {
		t.Fatal(err)
	}
	out := got.(Threats)
	if out.ID != in.ID || out.More != in.More || len(out.States) != 2 {
		t.Fatalf("header mismatch: %+v", out)
	}
	for i := range in.States {
		a, b := in.States[i], out.States[i]
		if !a.Since.Equal(b.Since) || !a.Updated.Equal(b.Updated) {
			t.Errorf("state %d time mismatch", i)
		}
		a.Since, a.Updated, b.Since, b.Updated = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if a != b {
			t.Errorf("state %d: %+v != %+v", i, b, a)
		}
	}

	// Oversized strings are capped, not rejected.
	long := Threats{States: []defense.ClientThreat{{LastAP: strings.Repeat("x", 400)}}}
	got, err = Unmarshal(MarshalThreats(long))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.(Threats).States[0].LastAP); n != threatMaxStr {
		t.Errorf("capped string length = %d", n)
	}

	// Malformed bodies.
	goodB := MarshalThreats(in)
	for _, b := range [][]byte{
		{TypeThreat, 0, 0},
		goodB[:len(goodB)-1],
		append(append([]byte{}, goodB...), 1),
	} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("malformed threats %v accepted", b[:min(len(b), 12)])
		}
	}
}

func TestDefenseQueryKindRoundTrip(t *testing.T) {
	q := Query{MAC: wifi.MustParseAddr("00:16:ea:50:00:02"), All: true, ID: 9, Kind: KindThreats}
	got, err := Unmarshal(MarshalQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.(Query) != q {
		t.Errorf("round trip %+v != %+v", got, q)
	}
	// KindTracks carries its kind byte like every other kind.
	q.Kind = KindTracks
	b := MarshalQuery(q)
	if len(b) != 13 { // type byte + 12 body bytes
		t.Errorf("tracks query wire length = %d, want 13", len(b))
	}
	if got, err = Unmarshal(b); err != nil || got.(Query) != q {
		t.Errorf("tracks round trip %+v, %v", got, err)
	}
}

// defenseTestController serves a controller whose defense policy
// escalates straight to null-steer on the first alert and releases
// quickly by decay.
func defenseTestController(t *testing.T) (*Controller, net.Listener) {
	t.Helper()
	c := NewController(&locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)})
	c.DefensePolicy = defense.Policy{
		NullSteerScore: 2, // first alert (weight >= 2) null-steers
		HalfLife:       200 * time.Millisecond,
		MinQuarantine:  time.Millisecond,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	t.Cleanup(c.Close)
	return c, ln
}

func TestDefenseOperatorReleaseOverWire(t *testing.T) {
	c, ln := defenseTestController(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ap, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap1", Pos: geom.Point{X: 2, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	directives := ap.Directives()

	// Observer session (empty name): the CLI's connection shape.
	op, err := DialContext(ctx, ln.Addr().String(), Hello{})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	time.Sleep(100 * time.Millisecond)

	bad := wifi.MustParseAddr("66:00:00:00:00:23")
	if err := ap.SendAlertDetail(Alert{APName: "ap1", MAC: bad, Distance: 0.9, Threshold: 0.12}); err != nil {
		t.Fatal(err)
	}
	// Quarantine directive lands at the AP.
	select {
	case d := <-directives:
		if d.Action == defense.ActionAllow {
			t.Fatalf("first directive = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no quarantine directive")
	}

	// Operator releases over the wire; the AP sees the release
	// directive and the quarantine list empties.
	if err := op.SendRelease(bad); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-directives:
		if d.Action != defense.ActionAllow || d.Reporter != "operator" {
			t.Fatalf("release directive = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no release directive")
	}
	if q := c.Quarantined(); len(q) != 0 {
		t.Errorf("quarantine list after release: %+v", q)
	}
	if s := c.Stats(); s.Defense.OperatorReleases != 1 {
		t.Errorf("stats = %+v", s.Defense)
	}

	// The AP acks an applied countermeasure; the controller counts it.
	if err := ap.SendDirectiveAck(defense.Directive{MAC: bad, Action: defense.ActionNullSteer, Reporter: "ap1"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().DirectiveAcks != 1 {
		if time.Now().After(deadline) {
			t.Fatal("directive ack never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDefenseThreatQueryOverWire(t *testing.T) {
	c, ln := defenseTestController(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ap, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap1", Pos: geom.Point{X: 2, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	time.Sleep(50 * time.Millisecond)

	bad := wifi.MustParseAddr("66:00:00:00:00:24")
	if err := ap.SendAlertDetail(Alert{APName: "ap1", MAC: bad, Distance: 0.9, Threshold: 0.12, BearingDeg: 33, HasBearing: true}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Quarantined()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alert never ingested")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// All-threats query.
	states, err := ap.QueryThreats(ctx, Query{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].MAC != bad || states[0].State != defense.StateQuarantine {
		t.Fatalf("QueryThreats(all) = %+v", states)
	}
	if states[0].BearingDeg != 33 || states[0].LastAP != "ap1" {
		t.Errorf("threat evidence = %+v", states[0])
	}

	// Single-MAC query, and a miss.
	states, err = ap.QueryThreats(ctx, Query{MAC: bad})
	if err != nil || len(states) != 1 {
		t.Fatalf("QueryThreats(mac) = %+v, %v", states, err)
	}
	states, err = ap.QueryThreats(ctx, Query{MAC: wifi.MustParseAddr("00:00:00:00:00:99")})
	if err != nil || len(states) != 0 {
		t.Fatalf("QueryThreats(miss) = %+v, %v", states, err)
	}
}

// TestDefenseQuarantineDecaysOverController drives the TTL/decay story
// end to end over TCP: quarantine enters, then releases on its own,
// and the release directive reaches the AP.
func TestDefenseQuarantineDecaysOverController(t *testing.T) {
	c, ln := defenseTestController(t) // 200ms half-life, 1ms MinQuarantine
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ap, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap1", Pos: geom.Point{X: 2, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	directives := ap.Directives()
	time.Sleep(50 * time.Millisecond)

	bad := wifi.MustParseAddr("66:00:00:00:00:25")
	if err := ap.SendAlertDetail(Alert{APName: "ap1", MAC: bad, Distance: 0.9, Threshold: 0.12}); err != nil {
		t.Fatal(err)
	}
	var seen []defense.Action
	deadline := time.After(8 * time.Second)
	for {
		select {
		case d, ok := <-directives:
			if !ok {
				t.Fatal("directive channel closed")
			}
			seen = append(seen, d.Action)
			if d.Action == defense.ActionAllow {
				if d.Reporter != "decay" {
					t.Errorf("release reporter = %q", d.Reporter)
				}
				if q := c.Quarantined(); len(q) != 0 {
					t.Errorf("quarantine list after decay: %+v", q)
				}
				if s := c.Stats(); s.Defense.DecayReleases != 1 {
					t.Errorf("stats = %+v", s.Defense)
				}
				return
			}
		case <-deadline:
			t.Fatalf("no decay release; directives seen: %v", seen)
		}
	}
}

// TestAbandonedQueryDoesNotStallDirectives: a QueryThreats whose ctx
// expires before the reply must unsubscribe, so a late multi-frame
// reply is discarded instead of filling the reply channel and blocking
// the shared reader — the directive written after it still arrives.
func TestAbandonedQueryDoesNotStallDirectives(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	mac := wifi.MustParseAddr("66:00:00:00:00:09")
	abandoned := make(chan struct{})
	go func() {
		if _, err := ReadMessage(server); err != nil { // Hello
			return
		}
		if err := WriteMessage(server, MarshalWelcome(Welcome{})); err != nil {
			return
		}
		body, err := ReadMessage(server)
		if err != nil {
			return
		}
		msg, err := Unmarshal(body)
		if err != nil {
			return
		}
		q := msg.(Query)
		<-abandoned
		for i := 0; i < 5; i++ {
			if err := WriteMessage(server, MarshalThreats(Threats{ID: q.ID, More: i < 4})); err != nil {
				return
			}
		}
		WriteMessage(server, MarshalDirective(Directive{Directive: defense.Directive{
			MAC: mac, Action: defense.ActionQuarantine, To: defense.StateQuarantine,
		}}))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ag, err := NewAgentContext(ctx, client, Hello{Name: "ap1"})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	qctx, qcancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer qcancel()
	if _, err := ag.QueryThreats(qctx, Query{All: true}); err == nil {
		t.Fatal("query answered; the controller never replied in time")
	}
	directives := ag.Directives()
	close(abandoned)
	select {
	case d := <-directives:
		if d.MAC != mac {
			t.Fatalf("directive = %+v", d)
		}
	case <-ctx.Done():
		t.Fatal("directive behind a late reply to an abandoned query never arrived")
	}
}
