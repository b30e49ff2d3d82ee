package netproto

import (
	"context"
	"net"
	"sort"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

func TestReplicationWireRoundTrip(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	seg := Segment{
		Partition: 3, PartCount: 8, LeaderLSN: 4242,
		Records: []journal.Record{
			{LSN: 10, Type: journal.RecReport, TS: now, Data: []byte("hello")},
			{LSN: 11, Type: journal.RecAlert, TS: now.Add(time.Millisecond), Data: nil},
			{LSN: 12, Type: journal.RecSkip, TS: now, Data: journal.EncodeSkip(journal.SkipEvent{End: 20})},
		},
	}
	got, err := Unmarshal(MarshalSegment(seg))
	if err != nil {
		t.Fatalf("segment round trip: %v", err)
	}
	g, ok := got.(Segment)
	if !ok {
		t.Fatalf("segment decoded as %T", got)
	}
	if g.Partition != seg.Partition || g.PartCount != seg.PartCount || g.LeaderLSN != seg.LeaderLSN || len(g.Records) != 3 {
		t.Fatalf("segment header mismatch: %+v", g)
	}
	for i, rec := range g.Records {
		want := seg.Records[i]
		if rec.LSN != want.LSN || rec.Type != want.Type || !rec.TS.Equal(want.TS) || string(rec.Data) != string(want.Data) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, rec, want)
		}
	}

	// Heartbeat frames are empty but carry the leader position.
	hb := Segment{Partition: 0, PartCount: 1, LeaderLSN: 99}
	got, err = Unmarshal(MarshalSegment(hb))
	if err != nil {
		t.Fatalf("heartbeat round trip: %v", err)
	}
	if g := got.(Segment); g.LeaderLSN != 99 || len(g.Records) != 0 {
		t.Fatalf("heartbeat mismatch: %+v", g)
	}

	ack := SegmentAck{Positions: []SegmentPos{{Partition: 0, LSN: 7}, {Partition: 3, LSN: 4242}}}
	got, err = Unmarshal(MarshalSegmentAck(ack))
	if err != nil {
		t.Fatalf("ack round trip: %v", err)
	}
	ga, ok := got.(SegmentAck)
	if !ok {
		t.Fatalf("ack decoded as %T", got)
	}
	if len(ga.Positions) != 2 || ga.Positions[1] != ack.Positions[1] {
		t.Fatalf("ack mismatch: %+v", ga)
	}

	// Truncated segment frames must error, not panic or mis-parse.
	raw := MarshalSegment(seg)
	for _, cut := range []int{1, 5, 14, len(raw) - 1} {
		if _, err := Unmarshal(raw[:cut]); err == nil {
			t.Errorf("truncated segment (%d bytes) decoded without error", cut)
		}
	}
}

// TestReplicationFailoverEndToEnd is the PR's acceptance path: a
// partitioned leader quarantines an attacker, a warm standby follows
// the journal stream to zero lag, the leader dies abruptly, the
// standby promotes, and the AP reconnects to it with its original
// enrollment token and is resumed into the surviving quarantine.
func TestReplicationFailoverEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	policy := defense.Policy{HalfLife: time.Hour, MinQuarantine: time.Millisecond}
	attacker := wifi.MustParseAddr("66:00:00:00:00:01")
	ap1Pos := geom.Point{X: 0, Y: 0}

	// --- Leader: partitioned, authenticated, journaling. ---
	leader := NewController(fence)
	leader.Partitions = 2
	leader.DefensePolicy = policy
	leader.RequireAuth = true
	leader.SnapshotInterval = -1
	if err := leader.WithJournalDir(t.TempDir(), journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ap1Token, err := leader.EnrollAP("ap1")
	if err != nil {
		t.Fatal(err)
	}
	standbyToken, err := leader.EnrollAP("standby-1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leader.Serve(ln)

	// --- Standby follows over the same enrollment trust root. ---
	sb, err := NewStandby(StandbyConfig{
		LeaderAddr: ln.Addr().String(),
		Dir:        t.TempDir(),
		Token:      standbyToken,
		Fence:      fence,
		Configure: func(c *Controller) {
			c.Partitions = 2
			c.DefensePolicy = policy
			c.RequireAuth = true
			c.SnapshotInterval = -1
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	runDone := make(chan error, 1)
	go func() { runDone <- sb.Run(ctx) }()

	ag1, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap1", Pos: ap1Pos, Token: ap1Token})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// The incident: quarantine the attacker on the leader.
	if err := ag1.SendAlertDetail(Alert{
		APName: "ap1", MAC: attacker, Distance: 0.9, Threshold: 0.12,
		BearingDeg: 60, HasBearing: true, Stage: "spoofcheck",
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "leader quarantine", func() bool { return len(leader.Quarantined()) == 1 })

	// Replication lag drains to zero on both ends of the stream: the
	// standby reports failover-ready, and the leader's own replication
	// status sees the standby fully acked.
	waitFor(t, 10*time.Second, "standby failover-ready", func() bool {
		st := sb.Status()
		return st.Connected && st.FailoverReady && st.MaxLag == 0
	})
	waitFor(t, 10*time.Second, "leader sees replica at zero lag", func() bool {
		reps := leader.ReplicationStatus()
		return len(reps) == 1 && reps[0].MaxLag == 0
	})
	// The warm controller already mirrors the incident.
	if q := sb.Controller().Quarantined(); len(q) != 1 || q[0].MAC != attacker {
		t.Fatalf("standby warm quarantine = %+v", q)
	}
	if sb.Promoted() {
		t.Fatal("standby promoted itself before the leader died")
	}

	// --- Abrupt leader death: listener and AP session torn down, the
	// controller abandoned without Close (no shutdown snapshot, no
	// graceful journal seal reaches the standby). ---
	ag1.Close()
	ln.Close()

	// Operator-driven promotion (the POST /promote path calls the same
	// method).
	sb.Promote()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("standby Run after promotion: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby Run did not return after promotion")
	}
	promoted := sb.Controller()
	if q := promoted.Quarantined(); len(q) != 1 || q[0].MAC != attacker {
		t.Fatalf("promoted quarantine = %+v", q)
	}

	// --- The fleet fails over: ap1 reconnects to the promoted standby
	// with its ORIGINAL token (enrollment streamed through the journal)
	// and is resumed into the surviving quarantine. ---
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	promoted.Serve(ln2)
	ag2, err := DialContext(ctx, ln2.Addr().String(), Hello{Name: "ap1", Pos: ap1Pos, Token: ap1Token})
	if err != nil {
		t.Fatalf("ap1 reconnect with original token: %v", err)
	}
	defer ag2.Close()
	select {
	case d, ok := <-ag2.Directives():
		if !ok {
			t.Fatal("directive channel closed awaiting resume")
		}
		if d.MAC != attacker || d.Action != defense.ActionQuarantine || d.Reporter != "resume" {
			t.Fatalf("resume directive = %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no resume directive from the promoted standby")
	}

	// An un-enrolled peer is still locked out post-failover.
	if _, err := DialContext(ctx, ln2.Addr().String(), Hello{Name: "rogue", Pos: ap1Pos}); err == nil {
		t.Fatal("tokenless dial to promoted standby succeeded under RequireAuth")
	}
}

// TestStandbyAutoPromotesOnLeaderSilence covers the leader-loss
// timeout: PromoteAfter of silence promotes without an operator.
func TestStandbyAutoPromotesOnLeaderSilence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}

	leader := NewController(fence)
	leader.SnapshotInterval = -1
	if err := leader.WithJournalDir(t.TempDir(), journal.Options{}); err != nil {
		t.Fatal(err)
	}
	token, err := leader.EnrollAP("standby-1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leader.Serve(ln)

	sb, err := NewStandby(StandbyConfig{
		LeaderAddr:   ln.Addr().String(),
		Dir:          t.TempDir(),
		Token:        token,
		Fence:        fence,
		Configure:    func(c *Controller) { c.SnapshotInterval = -1 },
		PromoteAfter: time.Second,
		ReconnectMin: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	runDone := make(chan error, 1)
	go func() { runDone <- sb.Run(ctx) }()

	// Wait until the standby has actually followed (sized itself from a
	// frame), then kill the leader without ceremony.
	waitFor(t, 10*time.Second, "standby to follow", func() bool {
		st := sb.Status()
		return st.Connected && len(st.Partitions) > 0
	})
	ln.Close()
	leader.Close() // drops the replication session; the stream goes silent

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("standby Run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("standby never auto-promoted after leader silence")
	}
	if !sb.Promoted() {
		t.Fatal("Run returned but standby not promoted")
	}
}

// TestPartitionedDecisionIdentity pins the refactor's core invariant: a
// controller sharded over 4 partitions produces exactly the decisions
// and threat states of the monolithic (1-partition) controller for the
// same input sequence.
func TestPartitionedDecisionIdentity(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	ap1Pos, ap2Pos := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	policy := defense.Policy{HalfLife: time.Hour, MinQuarantine: time.Millisecond}

	build := func(parts int) *Controller {
		c := NewController(fence)
		c.Partitions = parts
		c.DefensePolicy = policy
		c.mu.Lock()
		c.apPos["ap1"] = ap1Pos
		c.apPos["ap2"] = ap2Pos
		c.mu.Unlock()
		return c
	}
	mono, sharded := build(1), build(4)
	defer mono.Close()
	defer sharded.Close()
	monoSub := mono.Subscribe(256)
	shardedSub := sharded.Subscribe(256)

	// A spread of MACs that lands on all 4 partitions (IndexFor keys
	// off the high-order bits), mixed inside/outside targets, plus
	// spoof alerts for two of them.
	macs := make([]wifi.Addr, 12)
	for i := range macs {
		macs[i] = wifi.Addr{byte(i * 21), byte(i * 73), 0x55, 0, 0, byte(i + 1)}
	}
	feed := func(c *Controller) {
		for i, mac := range macs {
			target := geom.Point{X: float64(2 + i*2), Y: 8}
			if i%3 == 0 {
				target.Y = 30 // outside the fence: a drop decision
			}
			c.ingestBatch([]Report{{APName: "ap1", MAC: mac, SeqNo: uint64(i + 1), BearingDeg: geom.BearingDeg(ap1Pos, target)}}, trace.Now())
			c.ingestBatch([]Report{{APName: "ap2", MAC: mac, SeqNo: uint64(i + 1), BearingDeg: geom.BearingDeg(ap2Pos, target)}}, trace.Now())
		}
		c.handleAlert(Alert{APName: "ap1", MAC: macs[2], Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck"})
		c.handleAlert(Alert{APName: "ap2", MAC: macs[7], Distance: 0.8, Threshold: 0.12, Stage: "spoofcheck"})
	}
	feed(mono)
	feed(sharded)

	collect := func(ch <-chan FenceDecision, n int) []FenceDecision {
		out := make([]FenceDecision, 0, n)
		for len(out) < n {
			select {
			case d := <-ch:
				out = append(out, d)
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d/%d decisions arrived", len(out), n)
			}
		}
		return out
	}
	want := collect(monoSub.C, len(macs))
	got := collect(shardedSub.C, len(macs))
	key := func(d FenceDecision) string { return d.MAC.String() }
	sort.Slice(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
	sort.Slice(got, func(i, j int) bool { return key(got[i]) < key(got[j]) })
	for i := range want {
		w, g := want[i], got[i]
		if w.MAC != g.MAC || w.SeqNo != g.SeqNo || w.Decision != g.Decision || w.Pos != g.Pos {
			t.Fatalf("decision %d diverges: mono %+v vs sharded %+v", i, w, g)
		}
	}

	// Threat state is identical too (Threats() is MAC-sorted on both).
	wantTh, gotTh := mono.Threats(), sharded.Threats()
	if len(wantTh) != len(gotTh) {
		t.Fatalf("threat counts diverge: mono %d vs sharded %d", len(wantTh), len(gotTh))
	}
	for i := range wantTh {
		w, g := wantTh[i], gotTh[i]
		if w.MAC != g.MAC || w.State != g.State || w.Flags != g.Flags {
			t.Fatalf("threat %d diverges: mono %+v vs sharded %+v", i, w, g)
		}
	}
	if len(mono.Quarantined()) != 2 || len(sharded.Quarantined()) != 2 {
		t.Fatalf("quarantine counts: mono %d, sharded %d, want 2",
			len(mono.Quarantined()), len(sharded.Quarantined()))
	}

	// Aggregate stats line up on the totals that are partition-invariant.
	ms, ss := mono.Stats(), sharded.Stats()
	if ms.Stats.Ingested != ss.Stats.Ingested || ms.Stats.Decisions != ss.Stats.Decisions {
		t.Fatalf("fusion stats diverge: mono %+v vs sharded %+v", ms.Stats, ss.Stats)
	}
}

// TestCloseSnapshotsEveryPartition is the shutdown-ordering regression
// test: Close must snapshot each partition's journal before sealing it,
// in deterministic partition order, so a restart restores instantly
// with no WAL tail.
func TestCloseSnapshotsEveryPartition(t *testing.T) {
	dir := t.TempDir()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	ap1Pos, ap2Pos := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}

	c := NewController(fence)
	c.Partitions = 4
	if err := c.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.apPos["ap1"] = ap1Pos
	c.apPos["ap2"] = ap2Pos
	c.mu.Unlock()
	// IndexFor keys off the high-order MAC bits, so spread the first
	// octet across its full range to land traffic in every partition.
	for i := 0; i < 64; i++ {
		mac := wifi.Addr{byte(i * 4), byte(i * 37), byte(i * 11), 0, 0, byte(i)}
		target := geom.Point{X: 12, Y: 8}
		c.ingestBatch([]Report{{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap1Pos, target)}}, trace.Now())
		c.ingestBatch([]Report{{APName: "ap2", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2Pos, target)}}, trace.Now())
	}
	c.Close()

	// Every partition journal must reopen with its snapshot covering its
	// full history: SnapshotLSN == LSN means zero tail to replay.
	for p := 0; p < 4; p++ {
		j, err := journal.Open(dir+"/p"+string(rune('0'+p)), journal.Options{})
		if err != nil {
			t.Fatalf("reopen p%d: %v", p, err)
		}
		st := j.Stats()
		j.Close()
		if st.LSN == 0 {
			t.Fatalf("p%d journalled nothing — MAC spread missed it", p)
		}
		if st.SnapshotLSN != st.LSN {
			t.Fatalf("p%d sealed with uncovered tail: snapshot LSN %d < LSN %d", p, st.SnapshotLSN, st.LSN)
		}
	}
}
