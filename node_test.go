package secureangle

import (
	"context"
	"errors"
	"testing"

	"secureangle/internal/geom"
)

// testNode builds a seeded node at AP1 with the paper's default
// pipeline, failing tb on a construction error.
func testNode(tb testing.TB, name string, seed int64) *Node {
	tb.Helper()
	n, err := New(WithName(name), WithSeed(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestNodeQuickstart exercises the v2 surface exactly as README's API
// v2 section shows it.
func TestNodeQuickstart(t *testing.T) {
	node, err := New(WithName("ap1"), WithSeed(42), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := node.ObserveTestbedFrame(ctx, client.ID, client.Pos)
	if err != nil {
		t.Fatal(err)
	}
	truth := geom.BearingDeg(AP1, client.Pos)
	if geom.AngularDistDeg(rep.BearingDeg, truth) > 4 {
		t.Errorf("bearing %v, truth %v", rep.BearingDeg, truth)
	}
}

// TestNodeOptionValidation: contradictory options surface as errors
// from New, not panics.
func TestNodeOptionValidation(t *testing.T) {
	if _, err := New(WithWorkers(-1)); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := New(WithGridStep(-1)); err == nil {
		t.Error("negative grid step accepted")
	}
	if _, err := New(WithPolicy(MatchPolicy{MaxDistance: -4})); err == nil {
		t.Error("broken policy accepted")
	}
}

// TestNodeDeferredCalibration: the option wires through to the typed
// taxonomy.
func TestNodeDeferredCalibration(t *testing.T) {
	node, err := New(WithDeferredCalibration())
	if err != nil {
		t.Fatal(err)
	}
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = node.ObserveTestbedFrame(context.Background(), client.ID, client.Pos)
	if !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("err %v, want ErrNotCalibrated", err)
	}
	node.Calibrate()
	if _, err := node.ObserveTestbedFrame(context.Background(), client.ID, client.Pos); err != nil {
		t.Fatalf("post-calibration: %v", err)
	}
}

// TestErrorTaxonomyAcceptance is the issue's acceptance criterion:
// errors.Is(err, secureangle.ErrNotDetected) works through both
// BatchResult and the streaming Results channel, with the structured
// PipelineError available via errors.As on both paths.
func TestErrorTaxonomyAcceptance(t *testing.T) {
	node, err := New(WithName("ap1"), WithSeed(7), WithWorkers(2))
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
	res := node.ObserveBatch(ctx, items)
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
	s := node.Stream(ctx, 4)
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
