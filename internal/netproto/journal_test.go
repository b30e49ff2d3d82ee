package netproto

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/partition"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournalCrashRecoveryEndToEnd is the acceptance path: quarantine a
// client end to end over TCP, hard-stop the controller (snapshots
// disabled, so nothing survives but the WAL), restart a fresh
// controller over the same journal directory, and verify the
// quarantine survived, the lease is re-broadcast to a reconnecting AP,
// and normal decay release still completes.
func TestJournalCrashRecoveryEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	policy := defense.Policy{
		HalfLife:      700 * time.Millisecond,
		MinQuarantine: time.Millisecond,
	}
	ap1Pos, ap2Pos := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	attacker := wifi.MustParseAddr("66:00:00:00:00:01")
	client := wifi.MustParseAddr("02:00:00:00:00:05")

	// --- First life: record an incident. ---
	a := NewController(fence)
	a.DefensePolicy = policy
	a.SnapshotInterval = -1 // hard-stop semantics: recovery must come from the WAL alone
	if err := a.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Serve(ln)

	ag1, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap1", Pos: ap1Pos})
	if err != nil {
		t.Fatal(err)
	}
	ag2, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap2", Pos: ap2Pos})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// A fused fence decision for a benign client (exercises report
	// records) ...
	target := geom.Point{X: 12, Y: 8}
	if err := ag1.Send(Report{APName: "ap1", MAC: client, SeqNo: 1, BearingDeg: geom.BearingDeg(ap1Pos, target)}); err != nil {
		t.Fatal(err)
	}
	if err := ag2.Send(Report{APName: "ap2", MAC: client, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2Pos, target)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "fused decision", func() bool {
		_, ok := a.Track(client)
		return ok
	})
	// ... then the incident: a scored spoof alert quarantines the
	// attacker fleet-wide.
	if err := ag1.SendAlertDetail(Alert{
		APName: "ap1", MAC: attacker, Distance: 0.9, Threshold: 0.12,
		BearingDeg: 60, HasBearing: true, Stage: "spoofcheck",
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "quarantine", func() bool { return len(a.Quarantined()) == 1 })

	// Hard stop: close connections and the controller. With snapshots
	// disabled nothing but the event log survives.
	ag1.Close()
	ag2.Close()
	a.Close()

	// --- Second life: recover over the same directory. ---
	b := NewController(fence)
	b.DefensePolicy = policy
	b.SnapshotInterval = -1
	if err := b.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	q := b.Quarantined()
	if len(q) != 1 || q[0].MAC != attacker {
		t.Fatalf("quarantine did not survive the restart: %+v", q)
	}
	if th, ok := b.Threat(attacker); !ok || th.State != defense.StateQuarantine || th.LastAP != "ap1" || th.Stage != "spoofcheck" {
		t.Fatalf("restored threat state = %+v (ok=%v)", th, ok)
	}
	if ts, ok := b.Track(client); !ok || ts.Fixes != 1 {
		t.Fatalf("fusion track did not survive the restart: %+v (ok=%v)", ts, ok)
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Serve(ln2)
	ag3, err := DialContext(ctx, ln2.Addr().String(), Hello{Name: "ap2", Pos: ap2Pos})
	if err != nil {
		t.Fatal(err)
	}
	defer ag3.Close()
	directives := ag3.Directives()

	// The reconnecting AP is re-armed: the surviving quarantine arrives
	// as a resume directive carrying a fresh lease TTL.
	select {
	case d, ok := <-directives:
		if !ok {
			t.Fatal("directive channel closed awaiting resume")
		}
		if d.MAC != attacker || d.Action != defense.ActionQuarantine || d.Reporter != "resume" {
			t.Fatalf("resume directive = %+v", d)
		}
		if d.TTL <= 0 {
			t.Errorf("resume directive carries no lease TTL: %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no resume directive within 10s")
	}

	// Normal decay release still completes on the recovered state.
	select {
	case d, ok := <-directives:
		if !ok {
			t.Fatal("directive channel closed awaiting release")
		}
		if d.MAC != attacker || d.Action != defense.ActionAllow || d.Reporter != "decay" {
			t.Fatalf("expected decay release, got %+v", d)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("recovered quarantine never decayed to release")
	}
	waitFor(t, 5*time.Second, "quarantine list to empty", func() bool { return len(b.Quarantined()) == 0 })
}

// TestJournalSnapshotPlusTailRecovery exercises the combined path: a
// snapshot mid-run plus WAL-tail events after it, both restored.
func TestJournalSnapshotPlusTailRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	macX := wifi.MustParseAddr("66:00:00:00:00:11")
	macY := wifi.MustParseAddr("66:00:00:00:00:22")

	a := NewController(fence)
	a.SnapshotInterval = -1 // only the explicit snapshot below
	if err := a.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Serve(ln)
	ag, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap1", Pos: geom.Point{}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// Quarantine X, snapshot, then quarantine Y in the tail.
	if err := ag.SendAlertDetail(Alert{APName: "ap1", MAC: macX, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "first quarantine", func() bool { return len(a.Quarantined()) == 1 })
	if err := a.SnapshotJournal(); err != nil {
		t.Fatal(err)
	}
	if err := ag.SendAlertDetail(Alert{APName: "ap1", MAC: macY, Distance: 0.8, Threshold: 0.12, Stage: "spoofcheck"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "second quarantine", func() bool { return len(a.Quarantined()) == 2 })
	ag.Close()
	a.Close()

	b := NewController(fence)
	b.SnapshotInterval = -1
	if err := b.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := map[wifi.Addr]bool{}
	for _, st := range b.Quarantined() {
		got[st.MAC] = true
	}
	if !got[macX] || !got[macY] || len(got) != 2 {
		t.Fatalf("recovered quarantines = %v (want X from the snapshot AND Y from the tail)", got)
	}
	// Idempotence guard: the tail alert that raced the snapshot must not
	// have inflated counters into nonsense — Y's evidence is one flag.
	if th, ok := b.Threat(macY); !ok || th.Flags != 1 {
		t.Errorf("tail-recovered threat = %+v (ok=%v)", th, ok)
	}
}

// TestJournalRecordsEventStream verifies the live controller journals
// every decision-relevant event kind.
func TestJournalRecordsEventStream(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	if err := c.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)

	ap1Pos, ap2Pos := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	ag1, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap1", Pos: ap1Pos})
	if err != nil {
		t.Fatal(err)
	}
	defer ag1.Close()
	ag2, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap2", Pos: ap2Pos})
	if err != nil {
		t.Fatal(err)
	}
	defer ag2.Close()
	directives := ag1.Directives()
	time.Sleep(50 * time.Millisecond)

	mac := wifi.MustParseAddr("66:00:00:00:00:33")
	target := geom.Point{X: 12, Y: 20} // outside: a fence drop decision
	ag1.Send(Report{APName: "ap1", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap1Pos, target)})
	ag2.Send(Report{APName: "ap2", MAC: mac, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2Pos, target)})
	if err := ag1.SendAlertDetail(Alert{APName: "ap1", MAC: mac, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck"}); err != nil {
		t.Fatal(err)
	}
	var quarDirective defense.Directive
	select {
	case d := <-directives:
		quarDirective = d.Directive
	case <-time.After(10 * time.Second):
		t.Fatal("no directive broadcast")
	}
	if err := ag1.SendDirectiveAck(quarDirective); err != nil {
		t.Fatal(err)
	}
	if err := ag2.SendRelease(mac); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "release to land", func() bool { return len(c.Quarantined()) == 0 })
	c.Close()

	counts := map[journal.RecordType]int{}
	if err := journal.ReadRecords(dir, 0, func(rec journal.Record) error {
		counts[rec.Type]++
		if _, err := journal.DecodeEvent(rec); err != nil {
			t.Errorf("LSN %d (%s): %v", rec.LSN, rec.Type, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if counts[journal.RecReport] != 2 || counts[journal.RecAlert] != 1 ||
		counts[journal.RecDecision] < 1 || counts[journal.RecDirective] < 2 ||
		counts[journal.RecAck] != 1 || counts[journal.RecRelease] != 1 {
		t.Errorf("journalled event counts = %v", counts)
	}
}

// TestJournalCorruptSnapshotFallsBack pins the two-generation design:
// recovery rejects a bit-rotted latest snapshot by CRC before touching
// engine state and falls back to the predecessor plus a longer WAL
// tail.
func TestJournalCorruptSnapshotFallsBack(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	macX := wifi.MustParseAddr("66:00:00:00:00:44")
	macY := wifi.MustParseAddr("66:00:00:00:00:55")

	a := NewController(fence)
	a.SnapshotInterval = -1
	if err := a.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.Serve(ln)
	ag, err := DialContext(ctx, ln.Addr().String(), Hello{Name: "ap1", Pos: geom.Point{}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := ag.SendAlertDetail(Alert{APName: "ap1", MAC: macX, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "first quarantine", func() bool { return len(a.Quarantined()) == 1 })
	if err := a.SnapshotJournal(); err != nil { // generation 1 (good)
		t.Fatal(err)
	}
	if err := ag.SendAlertDetail(Alert{APName: "ap1", MAC: macY, Distance: 0.8, Threshold: 0.12, Stage: "spoofcheck"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "second quarantine", func() bool { return len(a.Quarantined()) == 2 })
	if err := a.SnapshotJournal(); err != nil { // generation 2 (to be corrupted)
		t.Fatal(err)
	}
	ag.Close()
	a.Close()

	// Bit-rot the newest generation.
	snaps, err := journal.Snapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots = %v (%v)", snaps, err)
	}
	r, err := journal.OpenSnapshot(dir, snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", snaps[1])), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	var logMu sync.Mutex
	b := NewController(fence)
	b.SnapshotInterval = -1
	b.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	if err := b.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := map[wifi.Addr]bool{}
	for _, st := range b.Quarantined() {
		got[st.MAC] = true
	}
	if !got[macX] || !got[macY] || len(got) != 2 {
		t.Fatalf("fallback recovery quarantines = %v (want both: X from the predecessor snapshot, Y from the longer tail)", got)
	}
	logMu.Lock()
	defer logMu.Unlock()
	var sawFallback bool
	for _, l := range logs {
		if strings.Contains(l, "corrupt") && strings.Contains(l, "trying older") {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Errorf("no fallback log line; logs = %q", logs)
	}
}

// TestReplayMatchesLiveTraces pins journal.Replay to the live closed
// loop: a journaled controller quarantines several MACs from traced
// out-of-fence reports, and replaying its journal under the same
// policy re-derives the recorded directive sequence — action, state
// transition and trace ID of every directive.
func TestReplayMatchesLiveTraces(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.SnapshotInterval = -1
	c.Logf = func(string, ...any) {}
	dir := t.TempDir()
	if err := c.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ap1Pos, ap2Pos := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	c.mu.Lock()
	c.apPos["ap1"], c.apPos["ap2"] = ap1Pos, ap2Pos
	c.mu.Unlock()

	const attackers = 3
	for m := 0; m < attackers; m++ {
		mac := wifi.Addr{0x02, 0, 0, 0, 0, byte(m + 1)}
		target := geom.Point{X: 4 + 8*float64(m), Y: 20} // outside the fence
		for seq := uint64(1); seq <= 6; seq++ {
			tr := uint64(m+1)<<32 | seq<<8
			c.ingestBatch([]Report{{APName: "ap1", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap1Pos, target), Trace: tr | 1}}, trace.Now())
			c.ingestBatch([]Report{{APName: "ap2", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap2Pos, target), Trace: tr | 2}}, trace.Now())
		}
	}
	if got := len(c.Quarantined()); got != attackers {
		t.Fatalf("live controller quarantined %d MACs, want %d", got, attackers)
	}
	policy := c.DefensePolicy
	c.Close()

	res, err := journal.Replay(dir, journal.ReplayOptions{Fence: fence, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.RecordedDirectives
	quarantines := 0
	for _, d := range rec {
		if d.To == defense.StateQuarantine {
			quarantines++
		}
		if d.Trace == 0 {
			t.Errorf("recorded directive %v %v→%v carries no trace", d.MAC, d.From, d.To)
		}
	}
	if quarantines < attackers {
		t.Fatalf("journal recorded %d quarantines, want >= %d", quarantines, attackers)
	}
	if len(res.Directives) != len(rec) {
		t.Fatalf("replay emitted %d directives, journal recorded %d", len(res.Directives), len(rec))
	}
	for i, r := range res.Directives {
		got, want := r.Directive, rec[i]
		if got.MAC != want.MAC || got.Action != want.Action || got.From != want.From || got.To != want.To || got.Trace != want.Trace {
			t.Errorf("directive %d: replayed %v %v %v→%v trace %#x, recorded %v %v %v→%v trace %#x",
				i, got.MAC, got.Action, got.From, got.To, got.Trace, want.MAC, want.Action, want.From, want.To, want.Trace)
		}
	}
}

// TestReplayPartitionedJournal: journal.Replay reads a partitioned
// dir/p0..pN tree. A 2-partition controller quarantines MACs spread
// over both partitions from traced out-of-fence reports; replaying the
// tree under the same policy re-applies every ingested report and
// re-derives each MAC's recorded directive sequence — action, state
// transition and trace ID.
func TestReplayPartitionedJournal(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.Partitions = 2
	c.SnapshotInterval = -1
	c.Logf = func(string, ...any) {}
	dir := t.TempDir()
	if err := c.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ap1Pos, ap2Pos := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	c.mu.Lock()
	c.apPos["ap1"], c.apPos["ap2"] = ap1Pos, ap2Pos
	c.mu.Unlock()

	// First octets 0x02..0x62 route to p0, 0x82..0xe2 to p1.
	firsts := []byte{0x02, 0x42, 0x62, 0x82, 0xa2, 0xe2}
	perPart := [2]int{}
	reports := 0
	for m, first := range firsts {
		mac := wifi.Addr{first, 0, 0, 0, 0, byte(m + 1)}
		perPart[partition.IndexFor(mac, 2)]++
		target := geom.Point{X: 2 + 4*float64(m), Y: 20} // outside the fence
		for seq := uint64(1); seq <= 6; seq++ {
			tr := uint64(m+1)<<32 | seq<<8
			c.ingestBatch([]Report{{APName: "ap1", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap1Pos, target), Trace: tr | 1}}, trace.Now())
			c.ingestBatch([]Report{{APName: "ap2", MAC: mac, SeqNo: seq, BearingDeg: geom.BearingDeg(ap2Pos, target), Trace: tr | 2}}, trace.Now())
			reports += 2
		}
	}
	if perPart[0] < 2 || perPart[1] < 2 {
		t.Fatalf("attackers per partition = %v, want both partitions populated", perPart)
	}
	if got := len(c.Quarantined()); got != len(firsts) {
		t.Fatalf("live controller quarantined %d MACs, want %d", got, len(firsts))
	}
	policy := c.DefensePolicy
	c.Close()

	res, err := journal.Replay(dir, journal.ReplayOptions{Fence: fence, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != reports {
		t.Fatalf("replay re-applied %d reports, controller ingested %d", res.Reports, reports)
	}
	type step struct {
		action   defense.Action
		from, to defense.State
		trace    uint64
	}
	recorded, replayed := map[wifi.Addr][]step{}, map[wifi.Addr][]step{}
	for _, d := range res.RecordedDirectives {
		recorded[d.MAC] = append(recorded[d.MAC], step{d.Action, d.From, d.To, d.Trace})
	}
	for _, r := range res.Directives {
		d := r.Directive
		replayed[d.MAC] = append(replayed[d.MAC], step{d.Action, d.From, d.To, d.Trace})
	}
	if len(recorded) != len(firsts) {
		t.Fatalf("journal recorded directives for %d MACs, want %d", len(recorded), len(firsts))
	}
	for mac, want := range recorded {
		got := replayed[mac]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: replayed %v, recorded %v", mac, got, want)
		}
	}
	for i := 1; i < len(res.Directives); i++ {
		if res.Directives[i].TS.Before(res.Directives[i-1].TS) {
			t.Fatalf("replayed directives out of timestamp order at %d", i)
		}
	}
}

// TestJournalDirRefusesRepartition: a journal tree opens only under
// the partition count that wrote it. Reopening a 2-partition tree with
// Partitions 4 or 1 is an error that attaches nothing; reopening it
// with 2 restores its alert-driven quarantine where lookups find it.
func TestJournalDirRefusesRepartition(t *testing.T) {
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	dir := t.TempDir()
	// p1 of 2, p2 of 4: a mis-sized reopen would restore the threat into
	// a partition its lookups never reach.
	mac := wifi.Addr{0x86, 0, 0, 0, 0, 0x01}
	if partition.IndexFor(mac, 2) == partition.IndexFor(mac, 4) {
		t.Fatalf("test MAC routes to partition %d under both counts", partition.IndexFor(mac, 2))
	}
	newCtrl := func(parts int) *Controller {
		c := NewController(fence)
		c.Partitions = parts
		c.SnapshotInterval = -1
		c.Logf = func(string, ...any) {}
		return c
	}

	a := newCtrl(2)
	if err := a.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	a.handleAlert(Alert{APName: "ap1", MAC: mac, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck"})
	if q := a.Quarantined(); len(q) != 1 || q[0].MAC != mac {
		t.Fatalf("alert did not quarantine %v: %+v", mac, q)
	}
	a.Close()

	for _, parts := range []int{4, 1} {
		c := newCtrl(parts)
		if err := c.WithJournalDir(dir, journal.Options{}); err == nil {
			t.Errorf("Partitions=%d: reopening a 2-partition tree succeeded", parts)
		}
		if c.journals() != nil || len(c.Quarantined()) != 0 {
			t.Errorf("Partitions=%d: refused reopen attached state: %d journal(s), quarantined %+v",
				parts, len(c.journals()), c.Quarantined())
		}
		c.Close()
	}

	b := newCtrl(2)
	if err := b.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if th, ok := b.Threat(mac); !ok || th.State != defense.StateQuarantine {
		t.Fatalf("Threat(%v) after reopen = %+v (ok=%v), want quarantined", mac, th, ok)
	}
}
