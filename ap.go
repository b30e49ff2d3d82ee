package secureangle

// The front door: New builds one SecureAngle access point from
// functional options and returns it. Every pipeline entry point is an
// AP method; the ctx-aware ones carry a Context suffix
// (ObserveContext, ProcessFrameContext, ...) or take ctx first
// (Stream).

import (
	"secureangle/internal/core"
	"secureangle/internal/env"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/rng"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

// Error taxonomy re-exports: every pipeline failure is one of these
// sentinels wrapped in a *PipelineError, checked with errors.Is/As.
var (
	// ErrNotDetected: the Schmidl-Cox detector found no packet.
	ErrNotDetected = core.ErrNotDetected
	// ErrBlocked: no propagation path from transmitter to AP.
	ErrBlocked = core.ErrBlocked
	// ErrNotCalibrated: observation before the section 2.2 calibration.
	ErrNotCalibrated = core.ErrNotCalibrated
	// ErrTooFewSnapshots: capture too short for a full-rank covariance.
	ErrTooFewSnapshots = core.ErrTooFewSnapshots
	// ErrStreamClosed: Submit on a closed Stream.
	ErrStreamClosed = core.ErrStreamClosed
)

// Pipeline type re-exports.
type (
	// PipelineError is the structured pipeline failure: {Stage, AP, MAC}
	// around an underlying cause.
	PipelineError = core.PipelineError
	// Stream is the AP's ordered, backpressured ingestion handle.
	Stream = core.Stream
	// StreamResult is one ordered Stream output.
	StreamResult = core.StreamResult
	// Estimator computes pseudospectra from covariances (the music
	// package's interface; MUSIC, Bartlett, MVDR all satisfy it); it is
	// the type of Config.Estimator.
	Estimator = music.Estimator
	// MatchPolicy is the signature accept/flag threshold, the type of
	// Config.Policy.
	MatchPolicy = signature.MatchPolicy
	// Frame is an 802.11 MAC frame.
	Frame = wifi.Frame
	// Modulation selects the OFDM constellation of a synthesised frame.
	Modulation = ofdm.Modulation
)

// apOptions collects the functional-option state for New.
type apOptions struct {
	name string
	pos  geom.Point
	arr  *Array
	e    *env.Environment
	seed int64
	cfg  core.Config
}

// Option configures New.
type Option func(*apOptions)

// WithName sets the AP's name (default "node").
func WithName(name string) Option { return func(o *apOptions) { o.name = name } }

// WithPosition places the AP (default the testbed's AP1 corner).
func WithPosition(p Point) Option { return func(o *apOptions) { o.pos = p } }

// WithArray selects the antenna array (default the paper's octagonal
// 8-antenna circular array).
func WithArray(arr *Array) Option { return func(o *apOptions) { o.arr = arr } }

// WithEnvironment sets the propagation scene (default the Figure 4
// testbed building).
func WithEnvironment(e *Environment) Option { return func(o *apOptions) { o.e = e } }

// WithSeed seeds the AP's front-end impairments and noise
// deterministically (default 1).
func WithSeed(s int64) Option { return func(o *apOptions) { o.seed = s } }

// WithConfig sets the pipeline Config (default DefaultConfig()): the
// estimator, worker-pool bound, match policy, grid step, calibration
// length, deferred calibration and bearing mode. Zero-valued knobs take
// their defaults, so start from DefaultConfig() or a zero Config and
// set only the fields that differ:
//
//	cfg := secureangle.DefaultConfig()
//	cfg.Workers = 2
//	cfg.DeferCalibration = true
//	ap, err := secureangle.New(secureangle.WithConfig(cfg))
func WithConfig(cfg Config) Option { return func(o *apOptions) { o.cfg = cfg } }

// New builds an AP. Unset options take the paper-testbed defaults, so
// secureangle.New() alone yields a working, calibrated AP1 (unless
// Config.DeferCalibration postpones the section 2.2 pass until
// AP.Calibrate). A Config that no pipeline can run (negative workers,
// non-positive grid step, an unusable match policy) returns a
// validation error rather than panicking.
func New(opts ...Option) (*AP, error) {
	o := apOptions{
		name: "node",
		pos:  testbed.AP1,
		seed: 1,
		cfg:  core.DefaultConfig(),
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.arr == nil {
		o.arr = testbed.CircularArray()
	}
	if o.e == nil {
		o.e, _ = testbed.Building()
	}
	cfg := o.cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fe := testbed.NewAPFrontEnd(o.arr, o.pos, rng.New(o.seed))
	return core.NewAP(o.name, fe, o.e, cfg), nil
}

// uplinkPayload is the canonical testbed uplink payload; hoisted so the
// steady-state packet path does not re-allocate it.
var uplinkPayload = []byte("uplink")

// TestbedBatchItem builds the BatchItem for a testbed client's QPSK
// uplink frame: pass it to AP.ObserveBatchContext or Stream.Submit, or
// observe it alone with ap.ObserveContext(ctx, item.TX, item.Baseband).
// To hear the same frame from elsewhere (a spoofer replaying a victim's
// address), observe item.Baseband from that position instead.
func TestbedBatchItem(c TestbedClient, seq uint16) (BatchItem, error) {
	bb, err := testbed.FrameBaseband(testbed.UplinkFrame(c.ID, seq, uplinkPayload), ofdm.QPSK)
	if err != nil {
		return BatchItem{}, err
	}
	return BatchItem{TX: c.Pos, Baseband: bb}, nil
}
