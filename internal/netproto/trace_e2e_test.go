package netproto

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/ops"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

// TestIncidentTimelineEndToEnd is the PR's acceptance path: drive a
// spoofed client through a partitioned controller over real TCP —
// agents carrying one trace ID end to end — then hard-stop the
// controller and reconstruct the full report → verdict → directive →
// ack → release timeline from the journal directory alone, the way
// `secureangle incident` does.
func TestIncidentTimelineEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	attacker := wifi.MustParseAddr("66:00:00:00:00:01")
	ap1Pos, ap2Pos := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}

	c := NewController(fence)
	c.DefensePolicy = defense.Policy{HalfLife: time.Hour, MinQuarantine: time.Millisecond}
	c.Partitions = 2
	c.SnapshotInterval = -1
	// A private recorder so a parallel test's spans can't satisfy the
	// retained-store assertions below.
	c.Tracer = trace.NewRecorder(ops.NewRegistry())
	if err := c.WithJournalDir(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)

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
	directives := ag2.Directives()

	// One observed transmission: both APs report it under the same
	// trace ID, exactly as the core pipeline mints it once per packet.
	tr := trace.NextID()
	target := geom.Point{X: 12, Y: 8}
	if err := ag1.Send(Report{APName: "ap1", MAC: attacker, SeqNo: 1, BearingDeg: geom.BearingDeg(ap1Pos, target), Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if err := ag2.Send(Report{APName: "ap2", MAC: attacker, SeqNo: 1, BearingDeg: geom.BearingDeg(ap2Pos, target), Trace: tr}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "fused decision", func() bool {
		_, ok := c.Track(attacker)
		return ok
	})

	// The spoof verdict rides the same trace; its score crossing fans a
	// quarantine directive back out, trace intact.
	if err := ag1.SendAlertDetail(Alert{
		APName: "ap1", MAC: attacker, Distance: 0.9, Threshold: 0.12,
		BearingDeg: 60, HasBearing: true, Stage: "spoofcheck", Trace: tr,
	}); err != nil {
		t.Fatal(err)
	}
	var d Directive
	select {
	case d = <-directives:
	case <-time.After(10 * time.Second):
		t.Fatal("no quarantine directive within 10s")
	}
	if d.MAC != attacker || d.Action != defense.ActionQuarantine {
		t.Fatalf("directive = %+v", d)
	}
	if d.Trace != tr {
		t.Fatalf("directive arrived with trace %016x, want %016x (wire propagation)", d.Trace, tr)
	}
	if err := ag2.SendDirectiveAck(d.Directive); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "directive ack", func() bool { return c.Stats().DirectiveAcks == 1 })

	// The alert path retains the trace unconditionally (tail-based
	// sampling never drops an incident), with controller spans on it.
	waitFor(t, 5*time.Second, "retained trace", func() bool { return c.Tracer.RetainedCount() > 0 })
	var spans []trace.Span
	for _, v := range c.Tracer.Snapshot(0) {
		if v.Trace == tr {
			spans = v.Spans
		}
	}
	if len(spans) == 0 {
		t.Fatalf("retained store has no spans for trace %016x: %+v", tr, c.Tracer.Snapshot(0))
	}
	stages := map[trace.Stage]bool{}
	for _, s := range spans {
		stages[s.Stage] = true
	}
	if !stages[trace.StageIngest] {
		t.Errorf("retained spans missing ingest stage: %+v", spans)
	}

	// Operator release closes the incident, then a hard stop: nothing
	// survives but the per-partition WAL.
	if !c.Release(attacker) {
		t.Fatal("release refused")
	}
	c.Close()

	// --- Forensics: the timeline from the journal tree alone. ---
	inc, err := journal.ReconstructIncident(dir, journal.IncidentQuery{MAC: attacker, HasMAC: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Partitions != 2 {
		t.Fatalf("reconstruction scanned %d partitions, want 2", inc.Partitions)
	}
	var seq []journal.RecordType
	for _, e := range inc.Entries {
		seq = append(seq, e.Type)
	}
	idx := func(rt journal.RecordType) int {
		for i, s := range seq {
			if s == rt {
				return i
			}
		}
		t.Fatalf("timeline missing %s: %v", rt, seq)
		return -1
	}
	iRep, iAlert, iDir := idx(journal.RecReport), idx(journal.RecAlert), idx(journal.RecDirective)
	iAck, iRel := idx(journal.RecAck), idx(journal.RecRelease)
	// The WAL applies-before-journaling, so the quarantine directive's
	// record may land a hair before its triggering alert's — but the
	// causal skeleton must hold: observation, then the verdict/directive
	// pair, then the fleet ack, then the release.
	if !(iRep < iAlert && iRep < iDir && iDir < iAck && iAlert < iAck && iAck < iRel) {
		t.Fatalf("timeline out of order: %v", seq)
	}
	for _, e := range inc.Entries {
		if e.Type == journal.RecReport && e.Trace != tr {
			t.Fatalf("journaled report trace = %016x, want %016x", e.Trace, tr)
		}
	}
	if inc.Entries[iDir].Trace != tr || inc.Entries[iAck].Trace != tr || inc.Entries[iRel].Trace != tr {
		t.Fatalf("trace did not survive the directive/ack/release records: %+v", inc.Entries)
	}
	joined := false
	for _, id := range inc.Traces {
		joined = joined || id == tr
	}
	if !joined {
		t.Fatalf("incident traces %v missing %016x", inc.Traces, tr)
	}

	// The same timeline must be reachable from the trace ID alone —
	// the handle an operator copies out of /traces or a log line.
	byTrace, err := journal.ReconstructIncident(dir, journal.IncidentQuery{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(byTrace.Entries) == 0 {
		t.Fatal("by-trace reconstruction found nothing")
	}
	out := inc.Render()
	for _, want := range []string{"report", "alert", "directive", "ack", "release"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}
}

// TestReportBatchIngestSpansAreIntervals pins the one StageIngest span
// shape: every report of a ReportBatch records an interval from the
// moment its frame was read to its hand-off to fusion, and records it
// before the engines run, so the decision's tail sampling promotes it.
func TestReportBatchIngestSpansAreIntervals(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fence := &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
	c := NewController(fence)
	c.Tracer = trace.NewRecorder(ops.NewRegistry())
	c.Tracer.SetBenignSampleRate(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(ln)
	defer c.Close()

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

	target := geom.Point{X: 12, Y: 8}
	macs := []wifi.Addr{{0x02, 0, 0, 0, 0, 1}, {0x02, 0, 0, 0, 0, 2}}
	traces := []uint64{trace.NextID(), trace.NextID()}
	for _, ap := range []struct {
		ag   *Agent
		name string
		pos  geom.Point
	}{{ag1, "ap1", ap1Pos}, {ag2, "ap2", ap2Pos}} {
		batch := make([]Report, len(macs))
		for i := range macs {
			batch[i] = Report{APName: ap.name, MAC: macs[i], SeqNo: 1, BearingDeg: geom.BearingDeg(ap.pos, target), Trace: traces[i]}
		}
		if err := ap.ag.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "both decisions sampled", func() bool { return c.Tracer.RetainedCount() == len(traces) })

	for _, v := range c.Tracer.Snapshot(0) {
		var ingest []trace.Span
		for _, sp := range v.Spans {
			if sp.Stage == trace.StageIngest {
				ingest = append(ingest, sp)
			}
		}
		if len(ingest) != 2 {
			t.Errorf("trace %016x: %d ingest spans, want one per AP: %+v", v.Trace, len(ingest), v.Spans)
		}
		for _, sp := range ingest {
			if sp.Dur <= 0 {
				t.Errorf("trace %016x: %s ingest span is a point (Dur %d), want an interval", v.Trace, sp.AP, sp.Dur)
			}
		}
	}
}

// opsBase starts the ops HTTP endpoint for a running controller and
// returns its base URL.
func opsBase(t *testing.T, c *Controller) string {
	t.Helper()
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.ServeOps(opsLn)
	return "http://" + opsLn.Addr().String()
}

// TestOpsHandlerHTTPEdges pins the endpoint's HTTP contract: unknown
// routes 404, writes to read-only documents 405 with an Allow header,
// and both JSON documents declare their content type.
func TestOpsHandlerHTTPEdges(t *testing.T) {
	c, _ := startController(t)
	defer c.Close()
	base := opsBase(t, c)

	resp, err := http.Get(base + "/no-such-route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /no-such-route = %d, want 404", resp.StatusCode)
	}

	for _, path := range []string{"/status", "/traces"} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s Allow = %q, want GET advertised", path, allow)
		}
		if !strings.Contains(string(body), "method not allowed") {
			t.Errorf("POST %s body = %q", path, body)
		}

		resp, err = http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q, want application/json", path, ct)
		}
	}

	// A malformed trace filter is a client error, not a panic or an
	// empty 200.
	resp, err = http.Get(base + "/traces?trace=not-hex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /traces?trace=not-hex = %d, want 400", resp.StatusCode)
	}
}

// TestOpsHandlerStandbyStatusReadOnly: the standby's /status is a
// read-only document like the controller's — a POST is a 405 with an
// Allow header, a GET serves JSON — while /promote stays POST-only.
func TestOpsHandlerStandbyStatusReadOnly(t *testing.T) {
	sb, err := NewStandby(StandbyConfig{
		LeaderAddr: "127.0.0.1:1", // never dialled: Run is not called
		Dir:        t.TempDir(),
		Fence:      &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sb.ServeOps(ln)
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/status", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("POST /status Allow = %q, want GET advertised", allow)
	}
	if !strings.Contains(string(body), "method not allowed") {
		t.Errorf("POST /status body = %q", body)
	}
	if sb.Promoted() {
		t.Error("POST /status promoted the standby")
	}

	resp, err = http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Standby StandbyStatus `json:"standby"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Errorf("GET /status = %d (decode err %v), want a 200 JSON document", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET /status Content-Type = %q, want application/json", ct)
	}

	resp, err = http.Get(base + "/promote")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /promote = %d, want 405", resp.StatusCode)
	}
}

// TestOpsHandlerTracesDocument: /traces serves the retained store with
// histogram exemplar links, decodable into TracesDocument.
func TestOpsHandlerTracesDocument(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	c.Tracer = trace.NewRecorder(ops.NewRegistry())
	base := opsBase(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: geom.Point{X: 4, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	mac := wifi.Addr{7, 7, 7, 7, 7, 7}
	tr := trace.NextID()
	if err := a.SendAlertDetail(Alert{APName: "ap1", MAC: mac, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck", Trace: tr}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "retained trace", func() bool { return c.Tracer.RetainedCount() > 0 })

	resp, err := http.Get(base + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc TracesDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Retained < 1 || len(doc.Traces) < 1 {
		t.Fatalf("traces document = %+v", doc)
	}
	for _, v := range doc.Traces {
		if len(v.Trace) != 16 {
			t.Errorf("trace ID %q is not 16 hex digits", v.Trace)
		}
		if len(v.Spans) == 0 {
			t.Errorf("retained trace %s has no spans", v.Trace)
		}
	}
}
