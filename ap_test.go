package secureangle

import (
	"context"
	"errors"
	"testing"

	"secureangle/internal/geom"
)

// testAP builds a seeded AP at AP1 with the paper's default pipeline,
// failing tb on a construction error.
func testAP(tb testing.TB, name string, seed int64) *AP {
	tb.Helper()
	ap, err := New(WithName(name), WithSeed(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return ap
}

// observeTestbedFrame builds client c's uplink frame (a cache hit after
// the first call) and observes it: the per-packet path the allocation
// budget and BenchmarkPipelinePerPacket measure.
func observeTestbedFrame(ctx context.Context, ap *AP, c TestbedClient) (*Report, error) {
	item, err := TestbedBatchItem(c, 1)
	if err != nil {
		return nil, err
	}
	return ap.ObserveContext(ctx, item.TX, item.Baseband)
}

// withWorkers is the default Config with the worker pool bounded to n.
func withWorkers(n int) Option {
	cfg := DefaultConfig()
	cfg.Workers = n
	return WithConfig(cfg)
}

// TestNewQuickstart exercises the front door exactly as README's
// public-surface section shows it.
func TestNewQuickstart(t *testing.T) {
	ap, err := New(WithName("ap1"), WithSeed(42), withWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	item, err := TestbedBatchItem(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ap.ObserveContext(context.Background(), item.TX, item.Baseband)
	if err != nil {
		t.Fatal(err)
	}
	truth := geom.BearingDeg(AP1, client.Pos)
	if geom.AngularDistDeg(rep.BearingDeg, truth) > 4 {
		t.Errorf("bearing %v, truth %v", rep.BearingDeg, truth)
	}
}

// TestNewOptionValidation: a contradictory Config surfaces as an error
// from New, not a panic.
func TestNewOptionValidation(t *testing.T) {
	if _, err := New(withWorkers(-1)); err == nil {
		t.Error("negative workers accepted")
	}
	cfg := DefaultConfig()
	cfg.GridStepDeg = -1
	if _, err := New(WithConfig(cfg)); err == nil {
		t.Error("negative grid step accepted")
	}
	cfg = DefaultConfig()
	cfg.Policy = MatchPolicy{MaxDistance: -4}
	if _, err := New(WithConfig(cfg)); err == nil {
		t.Error("broken policy accepted")
	}
}

// TestNewDeferredCalibration: Config.DeferCalibration wires through to
// the typed taxonomy, and Calibrate lifts it.
func TestNewDeferredCalibration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeferCalibration = true
	ap, err := New(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	item, err := TestbedBatchItem(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if ap.Calibrated() {
		t.Fatal("deferred AP reports calibrated")
	}
	_, err = ap.ObserveContext(ctx, item.TX, item.Baseband)
	if !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("err %v, want ErrNotCalibrated", err)
	}
	ap.Calibrate()
	if _, err := ap.ObserveContext(ctx, item.TX, item.Baseband); err != nil {
		t.Fatalf("post-calibration: %v", err)
	}
}

// TestErrorTaxonomyAcceptance: errors.Is(err, secureangle.ErrNotDetected)
// works through both BatchResult and the streaming Results channel,
// with the structured PipelineError available via errors.As on both
// paths, and the stream delivers in submission order.
func TestErrorTaxonomyAcceptance(t *testing.T) {
	ap, err := New(WithName("ap1"), WithSeed(7), withWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	good, err := TestbedBatchItem(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	silent := BatchItem{TX: client.Pos, Baseband: make([]complex128, len(good.Baseband))}
	items := []BatchItem{good, silent}
	ctx := context.Background()

	// Through BatchResult.
	res := ap.ObserveBatchContext(ctx, items)
	if res[0].Err != nil {
		t.Fatalf("good item failed: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrNotDetected) {
		t.Fatalf("batch err %v, want errors.Is ErrNotDetected", res[1].Err)
	}
	var pe *PipelineError
	if !errors.As(res[1].Err, &pe) || pe.AP != "ap1" {
		t.Fatalf("batch err %v, want *PipelineError from ap1", res[1].Err)
	}

	// Through the streaming Results channel.
	s := ap.Stream(ctx, 4)
	var got []StreamResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range s.Results() {
			got = append(got, r)
		}
	}()
	for _, it := range items {
		if _, err := s.Submit(ctx, it); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	<-done
	if len(got) != 2 {
		t.Fatalf("stream delivered %d results", len(got))
	}
	if got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("stream order %d, %d; want 0, 1", got[0].Seq, got[1].Seq)
	}
	if got[0].Err != nil {
		t.Fatalf("stream good item failed: %v", got[0].Err)
	}
	if !errors.Is(got[1].Err, ErrNotDetected) {
		t.Fatalf("stream err %v, want errors.Is ErrNotDetected", got[1].Err)
	}
	pe = nil
	if !errors.As(got[1].Err, &pe) || pe.Stage == "" {
		t.Fatalf("stream err %v, want staged *PipelineError", got[1].Err)
	}
}
