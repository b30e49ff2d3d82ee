package netproto

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/ops"
	"secureangle/internal/wifi"
)

// TestStatusReportLive: Stats/StatusReport surface the session and
// fusion state continuously — while the controller runs, not only in
// the close-time log.
func TestStatusReportLive(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: geom.Point{X: 4, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	mac := wifi.Addr{1, 2, 3, 4, 5, 6}
	for i := 0; i < 3; i++ {
		if err := a.Send(Report{APName: "ap1", MAC: mac, BearingDeg: 40, SeqNo: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, "state", func() bool { return c.Stats().Ingested == 3 })

	st := c.StatusReport()
	if st.Proto != ProtoVersion {
		t.Fatalf("status proto = %d, want %d", st.Proto, ProtoVersion)
	}
	if st.Fusion.Ingested != 3 {
		t.Fatalf("status fusion ingested = %d, want 3", st.Fusion.Ingested)
	}
	if len(st.Fusion.Shards) == 0 {
		t.Fatal("status has no fusion shard breakdown")
	}
	var sum uint64
	for _, s := range st.Fusion.Shards {
		sum += s.Ingested
	}
	if sum != 3 {
		t.Fatalf("shard ingested sum = %d, want 3", sum)
	}
	if len(st.APs) != 1 || st.APs[0].Name != "ap1" {
		t.Fatalf("status APs = %+v, want one entry for ap1", st.APs)
	}
	h := st.APs[0]
	if h.Reports != 3 || h.Frames < 3 {
		t.Fatalf("ap1 health = %+v (want 3 reports, >=3 frames)", h)
	}
	if time.Since(h.LastSeen) > time.Minute || h.LastSeen.Before(h.ConnectedAt) {
		t.Fatalf("ap1 last seen implausible: %+v", h)
	}
}

// TestStatusEndpoints: ServeOps serves valid Prometheus text
// exposition at /metrics and the JSON status document at /status.
func TestStatusEndpoints(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	if _, err := c.EnrollAP("ap1"); err != nil {
		t.Fatal(err)
	}
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.ServeOps(opsLn)
	base := "http://" + opsLn.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: geom.Point{X: 4, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(Report{APName: "ap1", MAC: wifi.Addr{1}, BearingDeg: 10, SeqNo: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "state", func() bool { return c.Stats().Ingested == 1 })

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	est, err := ops.CheckExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, body)
	}
	if est.Families < 10 || est.Samples < 20 {
		t.Fatalf("/metrics too sparse: %+v", est)
	}
	for _, want := range []string{
		"secureangle_fusion_events_total", "secureangle_defense_clients",
		"secureangle_controller_sessions", "secureangle_ap_last_seen_seconds",
		`secureangle_ap_reports_total{ap="ap1"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if st.Fusion.Ingested != 1 || len(st.APs) != 1 || len(st.Enrolled) != 1 {
		t.Fatalf("/status = %+v", st)
	}
}

// TestStatusEnrollEndpoint: the HTTP admin flow — mint, list, use,
// revoke.
func TestStatusEnrollEndpoint(t *testing.T) {
	c, addr := startAuthController(t, true)
	defer c.Close()
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.ServeOps(opsLn)
	base := "http://" + opsLn.Addr().String()

	resp, err := http.Post(base+"/enroll?name=ap1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var minted struct{ Name, Token string }
	if err := json.NewDecoder(resp.Body).Decode(&minted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if minted.Name != "ap1" || len(minted.Token) != 32 {
		t.Fatalf("mint reply = %+v", minted)
	}
	a, err := dialToken(t, addr, "ap1", minted.Token)
	if err != nil {
		t.Fatalf("HTTP-minted token rejected: %v", err)
	}
	a.Close()

	resp, err = http.Get(base + "/enroll")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct{ Enrolled []string }
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed.Enrolled) != 1 || listed.Enrolled[0] != "ap1" {
		t.Fatalf("enrolled list = %+v", listed)
	}

	resp, err = http.Post(base+"/enroll?name=ap1&revoke=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revoke status = %d", resp.StatusCode)
	}
	if got := c.EnrolledAPs(); len(got) != 0 {
		t.Fatalf("still enrolled after revoke: %v", got)
	}
	resp, err = http.Post(base+"/enroll?name=ap1&revoke=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double revoke status = %d, want 404", resp.StatusCode)
	}
}

// TestStatusCollectorsTrackLatestController: RegisterOps replaces the
// collector closures, so a second controller (a restart, a test) owns
// the families instead of stacking duplicate samples.
func TestStatusCollectorsTrackLatestController(t *testing.T) {
	reg := ops.NewRegistry()
	c1, _ := startController(t)
	c1.RegisterOps(reg)
	c1.Close()
	c2, addr := startController(t)
	defer c2.Close()
	c2.RegisterOps(reg)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: geom.Point{X: 4, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(Report{APName: "ap1", MAC: wifi.Addr{1}, BearingDeg: 10, SeqNo: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "state", func() bool { return c2.Stats().Ingested == 1 })

	found := 0
	reg.Walk(func(s ops.Sample) {
		if s.Name == "secureangle_fusion_events_total" && s.Labels == `kind="ingested"` {
			found++
			if s.Value != 1 {
				t.Fatalf("ingested sample = %g, want 1 (from the live controller)", s.Value)
			}
		}
	})
	if found != 1 {
		t.Fatalf("ingested sample emitted %d times, want once", found)
	}
}

// TestStatusDirectiveAckLatency: an acked directive produces a
// latency sample and per-AP ack counters.
func TestStatusDirectiveAckLatency(t *testing.T) {
	c, addr := startController(t)
	c.DefensePolicy.QuarantineScore = 1 // first verdict quarantines
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, err := DialContext(ctx, addr, Hello{Name: "ap1", Pos: geom.Point{X: 4, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dirs := a.Directives()

	mac := wifi.Addr{9, 9, 9, 9, 9, 9}
	if err := a.SendAlertDetail(Alert{APName: "ap1", MAC: mac, Distance: 99, Threshold: 1, Stage: "spoof"}); err != nil {
		t.Fatal(err)
	}
	var d Directive
	select {
	case d = <-dirs:
	case <-time.After(3 * time.Second):
		t.Fatal("no directive broadcast")
	}
	if err := a.SendDirectiveAck(d.Directive); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "state", func() bool { return c.Stats().DirectiveAcks == 1 })
	waitFor(t, 3*time.Second, "state", func() bool {
		hs := c.APHealth()
		return len(hs) == 1 && hs[0].Acks == 1 && hs[0].AckLatency > 0
	})
	if got := mDirAckSeconds.Count(); got == 0 {
		t.Fatal("no ack latency sample observed")
	}
}

// TestOpsHandlerStatusIsValidJSONUnderLoad exercises the /status
// encoder while sessions churn, for the race detector's benefit.
func TestOpsHandlerStatusIsValidJSONUnderLoad(t *testing.T) {
	c, addr := startController(t)
	defer c.Close()
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.ServeOps(opsLn)
	base := "http://" + opsLn.Addr().String()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			a, err := DialContext(ctx, addr, Hello{Name: fmt.Sprintf("ap%d", i), Pos: geom.Point{X: 1, Y: 1}})
			cancel()
			if err != nil {
				continue
			}
			a.Send(Report{APName: fmt.Sprintf("ap%d", i), MAC: wifi.Addr{byte(i)}, BearingDeg: 5, SeqNo: 1})
			a.Close()
		}
	}()
	for i := 0; i < 10; i++ {
		resp, err := http.Get(base + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	<-done
}
