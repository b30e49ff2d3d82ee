package secureangle

// The v2 API surface: a long-lived Node built with functional options,
// context threaded end to end, a streaming ingestion handle with
// backpressure, and the typed error taxonomy.

import (
	"context"

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

// v2 type re-exports.
type (
	// PipelineError is the structured pipeline failure: {Stage, AP, MAC}
	// around an underlying cause.
	PipelineError = core.PipelineError
	// Stream is the node's ordered, backpressured ingestion handle.
	Stream = core.Stream
	// StreamResult is one ordered Stream output.
	StreamResult = core.StreamResult
	// Estimator computes pseudospectra from covariances (the music
	// package's interface; MUSIC, Bartlett, MVDR all satisfy it).
	Estimator = music.Estimator
	// MatchPolicy is the signature accept/flag threshold.
	MatchPolicy = signature.MatchPolicy
	// Frame is an 802.11 MAC frame.
	Frame = wifi.Frame
	// Modulation selects the OFDM constellation of a synthesised frame.
	Modulation = ofdm.Modulation
)

// Node is a long-lived SecureAngle service instance: one AP pipeline
// plus its environment, constructed by New with functional options and
// driven through context-aware methods. It wraps the same core.AP the
// v1 facade exposes (AP() hands it out for migration), so v1 and v2
// calls may be mixed on one node.
type Node struct {
	ap *core.AP
	e  *env.Environment
}

// nodeOptions collects the functional-option state for New.
type nodeOptions struct {
	name string
	pos  geom.Point
	arr  *Array
	e    *env.Environment
	seed int64
	cfg  core.Config
}

// Option configures New.
type Option func(*nodeOptions)

// WithName sets the node's AP name (default "node").
func WithName(name string) Option { return func(o *nodeOptions) { o.name = name } }

// WithPosition places the AP (default the testbed's AP1 corner).
func WithPosition(p Point) Option { return func(o *nodeOptions) { o.pos = p } }

// WithArray selects the antenna array (default the paper's octagonal
// 8-antenna circular array).
func WithArray(arr *Array) Option { return func(o *nodeOptions) { o.arr = arr } }

// WithEnvironment sets the propagation scene (default the Figure 4
// testbed building).
func WithEnvironment(e *Environment) Option { return func(o *nodeOptions) { o.e = e } }

// WithSeed seeds the node's front-end impairments and noise
// deterministically (default 1).
func WithSeed(s int64) Option { return func(o *nodeOptions) { o.seed = s } }

// WithConfig replaces the whole pipeline Config — the adapter bridge
// for v1 callers holding a Config value. Options applied after it
// override individual fields.
func WithConfig(cfg Config) Option { return func(o *nodeOptions) { o.cfg = cfg } }

// WithEstimator selects the pseudospectrum estimator (default MUSIC
// with MDL-selected source count).
func WithEstimator(est Estimator) Option { return func(o *nodeOptions) { o.cfg.Estimator = est } }

// WithWorkers bounds the batch/stream worker pool (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *nodeOptions) { o.cfg.Workers = n } }

// WithPolicy sets the spoof-check match policy.
func WithPolicy(p MatchPolicy) Option { return func(o *nodeOptions) { o.cfg.Policy = p } }

// WithGridStep sets the pseudospectrum angular resolution in degrees.
func WithGridStep(deg float64) Option { return func(o *nodeOptions) { o.cfg.GridStepDeg = deg } }

// WithCalSamples sets the calibration capture length.
func WithCalSamples(n int) Option { return func(o *nodeOptions) { o.cfg.CalSamples = n } }

// WithDeferredCalibration postpones the section 2.2 calibration:
// observations fail with ErrNotCalibrated until node.Calibrate runs.
func WithDeferredCalibration() Option {
	return func(o *nodeOptions) { o.cfg.DeferCalibration = true }
}

// New builds a Node. Unset options take the paper-testbed defaults, so
// secureangle.New() alone yields a working AP1. Contradictory settings
// (negative workers, non-positive grid step, an unusable match policy)
// return a validation error rather than panicking.
func New(opts ...Option) (*Node, error) {
	o := nodeOptions{
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
	return &Node{ap: core.NewAP(o.name, fe, o.e, cfg), e: o.e}, nil
}

// AP exposes the underlying core AP — the bridge to the v1 surface
// (Enroll, Identify, ProcessStreams, ...).
func (n *Node) AP() *AP { return n.ap }

// Environment returns the node's propagation scene.
func (n *Node) Environment() *Environment { return n.e }

// Calibrate runs the deferred section 2.2 calibration (see
// WithDeferredCalibration). Not concurrency-safe with observations.
func (n *Node) Calibrate() { n.ap.Calibrate() }

// Calibrated reports whether calibration offsets are in place.
func (n *Node) Calibrated() bool { return n.ap.Calibrated() }

// Observe receives one transmission from tx and runs the full pipeline
// under ctx.
func (n *Node) Observe(ctx context.Context, tx Point, baseband []complex128) (*Report, error) {
	return n.ap.ObserveContext(ctx, tx, baseband)
}

// ObserveBatch runs a batch on the worker pool under ctx; cancellation
// stops dispatch and marks undispatched items with ctx's error.
func (n *Node) ObserveBatch(ctx context.Context, items []BatchItem) []BatchResult {
	return n.ap.ObserveBatchContext(ctx, items)
}

// ProcessStreamsBatch runs the estimation pipeline on raw captures
// under ctx (see AP.ProcessStreamsBatch).
func (n *Node) ProcessStreamsBatch(ctx context.Context, streamSets [][][]complex128) []BatchResult {
	return n.ap.ProcessStreamsBatchContext(ctx, streamSets)
}

// ProcessFrame observes one MAC frame and applies the spoof check.
func (n *Node) ProcessFrame(ctx context.Context, tx Point, frame *Frame, mod Modulation) (*FrameReport, error) {
	return n.ap.ProcessFrameContext(ctx, tx, frame, mod)
}

// ProcessFrameBatch is the batch form of ProcessFrame under ctx.
func (n *Node) ProcessFrameBatch(ctx context.Context, items []FrameBatchItem) []FrameBatchResult {
	return n.ap.ProcessFrameBatchContext(ctx, items)
}

// Stream opens the node's always-on ingestion handle: Submit with
// backpressure (at most depth in flight), results in submission order,
// shut down by Close or ctx cancellation. depth <= 0 picks a default.
func (n *Node) Stream(ctx context.Context, depth int) *Stream {
	return n.ap.Stream(ctx, depth)
}

// uplinkPayload is the canonical testbed uplink payload; hoisted so the
// steady-state packet path does not re-allocate it.
var uplinkPayload = []byte("uplink")

// ObserveTestbedFrame synthesises one QPSK uplink data frame from the
// given testbed client ID at pos and observes it.
func (n *Node) ObserveTestbedFrame(ctx context.Context, clientID int, pos Point) (*Report, error) {
	bb, err := testbed.FrameBaseband(testbed.UplinkFrame(clientID, 1, uplinkPayload), ofdm.QPSK)
	if err != nil {
		return nil, err
	}
	return n.Observe(ctx, pos, bb)
}

// TestbedBatchItem builds the BatchItem for a testbed client's QPSK
// uplink frame, usable with both ObserveBatch and Stream.Submit.
func TestbedBatchItem(c TestbedClient, seq uint16) (BatchItem, error) {
	bb, err := testbed.FrameBaseband(testbed.UplinkFrame(c.ID, seq, uplinkPayload), ofdm.QPSK)
	if err != nil {
		return BatchItem{}, err
	}
	return BatchItem{TX: c.Pos, Baseband: bb}, nil
}

// ApplyDirective applies one controller defense directive at this
// node's AP: quarantine marks the MAC for dropping (ProcessFrame
// stamps its frames Quarantined), null-steer additionally computes
// transmit weights with a spatial null toward the threat's bearing,
// and allow releases. See the Countermeasure type for what is applied.
func (n *Node) ApplyDirective(d Directive) (Countermeasure, error) {
	return n.ap.ApplyDirective(d)
}

// Countermeasures snapshots the node's active countermeasures.
func (n *Node) Countermeasures() []Countermeasure { return n.ap.Countermeasures() }

// CountermeasureFor returns the active countermeasure for one MAC.
func (n *Node) CountermeasureFor(mac MAC) (Countermeasure, bool) {
	return n.ap.CountermeasureFor(mac)
}

// Enroll registers (or replaces) a certified signature for a MAC. The
// node keeps sig by reference (one signature enrolled under many
// addresses is stored once); the caller must not modify it afterwards.
func (n *Node) Enroll(mac MAC, sig *Signature) { n.ap.Enroll(mac, sig) }

// Known reports whether a MAC has a certified signature.
func (n *Node) Known(mac MAC) bool { return n.ap.Known(mac) }

// StoredSignature returns the current certified signature for a MAC: a
// fresh spectrum the caller may keep. Its AnglesDeg is the node's own
// steering grid, not a copy; the caller must not write it.
func (n *Node) StoredSignature(mac MAC) (*Signature, bool) { return n.ap.StoredSignature(mac) }
