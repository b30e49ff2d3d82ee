package core

import (
	"context"
	"errors"
	"testing"

	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/rng"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
)

// --- Config.Validate ---

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		func() Config { c := DefaultConfig(); c.Workers = -1; return c }(),
		func() Config { c := DefaultConfig(); c.GridStepDeg = 0; return c }(),
		func() Config { c := DefaultConfig(); c.GridStepDeg = -2; return c }(),
		func() Config { c := DefaultConfig(); c.CalSamples = -5; return c }(),
		func() Config { c := DefaultConfig(); c.Policy = signature.MatchPolicy{MaxDistance: -1}; return c }(),
		func() Config { c := DefaultConfig(); c.Policy = signature.MatchPolicy{MaxDistance: 3}; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	// The zero config is invalid as-is but valid after defaulting — the
	// tolerance NewAP extends to zero-valued knobs.
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config accepted without defaulting")
	}
	if err := (Config{}).WithDefaults().Validate(); err != nil {
		t.Errorf("defaulted zero config rejected: %v", err)
	}
}

func TestNewAPPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAP accepted negative Workers")
		}
	}()
	cfg := DefaultConfig()
	cfg.Workers = -3
	e, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(1))
	NewAP("bad", fe, e, cfg)
}

// --- Deferred calibration / ErrNotCalibrated ---

func TestDeferredCalibration(t *testing.T) {
	e, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(21))
	cfg := DefaultConfig()
	cfg.DeferCalibration = true
	ap := NewAP("deferred", fe, e, cfg)
	if ap.Calibrated() {
		t.Fatal("AP calibrated despite DeferCalibration")
	}
	c, err := testbed.ClientByID(5)
	if err != nil {
		t.Fatal(err)
	}
	bb := uplinkBaseband(t, c.ID, 1)
	_, err = ap.Observe(c.Pos, bb)
	if !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("uncalibrated observe err %v, want ErrNotCalibrated", err)
	}
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != StageCalibrate || pe.AP != "deferred" {
		t.Fatalf("err %v, want PipelineError{calibrate, deferred}", err)
	}

	ap.Calibrate()
	if !ap.Calibrated() {
		t.Fatal("Calibrate did not take")
	}
	if _, err := ap.Observe(c.Pos, bb); err != nil {
		t.Fatalf("post-calibration observe: %v", err)
	}
}

// --- Error taxonomy through the serial and batch paths ---

func TestErrTooFewSnapshots(t *testing.T) {
	ap := newBatchAP(t, 1)
	short := make([][]complex128, 8)
	for i := range short {
		short[i] = make([]complex128, 4) // fewer snapshots than antennas
	}
	_, err := ap.ProcessStreams(short)
	if !errors.Is(err, ErrTooFewSnapshots) {
		t.Fatalf("short capture err %v, want ErrTooFewSnapshots", err)
	}
}

func TestProcessFrameErrorCarriesMAC(t *testing.T) {
	ap := newBatchAP(t, 1)
	c, err := testbed.ClientByID(5)
	if err != nil {
		t.Fatal(err)
	}
	frame := testbed.UplinkFrame(c.ID, 1, []byte("u"))
	// Sabotage detection with an empty-payload baseband of zeros: feed
	// the frame via the batch path but to an unhearable capture by
	// replacing the baseband with silence.
	res := ap.ProcessFrameBatch([]FrameBatchItem{{TX: c.Pos, Frame: frame, Mod: ofdm.QPSK}})
	if res[0].Err != nil {
		t.Fatalf("setup frame failed: %v", res[0].Err)
	}

	// Now the error path: a deferred-calibration AP fails the frame and
	// the PipelineError names the frame's transmitter.
	cfg := DefaultConfig()
	cfg.DeferCalibration = true
	e, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(31))
	uncal := NewAP("uncal", fe, e, cfg)
	_, err = uncal.ProcessFrame(c.Pos, frame, ofdm.QPSK)
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.MAC != frame.Addr2 {
		t.Fatalf("frame error %v does not carry MAC %v", err, frame.Addr2)
	}
}

// --- Context cancellation ---

// cancellingEstimator cancels a context on its first Pseudospectrum
// call, then delegates to Bartlett — a hook to cancel a batch from
// inside item 0's estimation stage.
type cancellingEstimator struct {
	cancel context.CancelFunc
}

func (ce *cancellingEstimator) Name() string { return "cancelling" }

func (ce *cancellingEstimator) Pseudospectrum(r *cmat.Matrix, arr *antenna.Array, grid []float64) (*music.Pseudospectrum, error) {
	if ce.cancel != nil {
		ce.cancel()
		ce.cancel = nil
	}
	return music.Bartlett{}.Pseudospectrum(r, arr, grid)
}

func TestObserveBatchContextPreCancelled(t *testing.T) {
	ap := newBatchAP(t, 2)
	items := streamItems(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := ap.ObserveBatchContext(ctx, items)
	if len(res) != len(items) {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d err %v, want context.Canceled", i, r.Err)
		}
		var pe *PipelineError
		if !errors.As(r.Err, &pe) || pe.Stage != StageDispatch {
			t.Errorf("item %d err %v, want StageDispatch PipelineError", i, r.Err)
		}
	}
}

func TestObserveBatchContextMidBatchCancel(t *testing.T) {
	// Workers=1 runs items serially; the estimator cancels the context
	// during item 0, so items 1.. must come back ctx-wrapped without
	// being dispatched.
	e, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(41))
	ctx, cancel := context.WithCancel(context.Background())
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Estimator = &cancellingEstimator{cancel: cancel}
	ap := NewAP("cancel", fe, e, cfg)

	items := streamItems(t, 4)
	res := ap.ObserveBatchContext(ctx, items)
	if res[0].Err != nil {
		t.Fatalf("item 0 (in flight at cancel) failed: %v", res[0].Err)
	}
	for i := 1; i < len(res); i++ {
		if !errors.Is(res[i].Err, context.Canceled) {
			t.Errorf("item %d err %v, want context.Canceled", i, res[i].Err)
		}
	}
}

func TestProcessStreamsBatchContextCancel(t *testing.T) {
	ap := newBatchAP(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := make([][][]complex128, 3)
	for i := range sets {
		sets[i] = make([][]complex128, 8)
		for a := range sets[i] {
			sets[i][a] = make([]complex128, 100)
		}
	}
	for i, r := range ap.ProcessStreamsBatchContext(ctx, sets) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("set %d err %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestObserveContextCancelled(t *testing.T) {
	ap := newBatchAP(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := testbed.ClientByID(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.ObserveContext(ctx, c.Pos, uplinkBaseband(t, c.ID, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled observe err %v", err)
	}
}
