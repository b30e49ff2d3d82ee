// Package core assembles SecureAngle's per-AP pipeline — the paper's
// primary contribution. For every received transmission it runs:
//
//	raw per-antenna samples
//	  -> Schmidl-Cox packet detection (internal/detect)
//	  -> calibration offsets applied to the packet window (internal/radio, section 2.2)
//	  -> packet-scale correlation matrix (internal/music, section 3)
//	  -> MUSIC pseudospectrum        (section 2.1)
//	  -> bearing estimate + AoA signature (sections 2.1, 2.3)
//
// and maintains the per-MAC signature registry that implements address
// spoofing prevention (section 2.3.2).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/detect"
	"secureangle/internal/dsp"
	"secureangle/internal/env"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/pool"
	"secureangle/internal/radio"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

// BearingMode selects how the default (nil-Estimator) pipeline derives
// its bearing estimate. The pseudospectrum — and with it the AoA
// signature and every spoof/fence decision — always comes from the
// manifold grid scan regardless of mode; the mode only governs the
// bearing number, which the grid-free estimators resolve without the
// grid's quantisation on arrays whose geometry permits it.
type BearingMode int

const (
	// BearingAuto (the default) uses grid-free root-MUSIC on uniform
	// linear arrays and the grid scan everywhere else.
	BearingAuto BearingMode = iota
	// BearingGrid forces the grid-scan bearing on every array.
	BearingGrid
	// BearingRootMUSIC behaves like BearingAuto (named for explicitness
	// in configs that must not silently change estimator).
	BearingRootMUSIC
	// BearingESPRIT uses the ESPRIT rotation-operator estimator on
	// uniform linear arrays, the grid scan everywhere else.
	BearingESPRIT
)

// Config tunes an AP's estimation pipeline.
type Config struct {
	// GridStepDeg is the pseudospectrum angle resolution (default 1).
	GridStepDeg float64
	// Bearing selects the default path's bearing estimator; see
	// BearingMode. Ignored when Estimator is non-nil (explicit
	// estimators own the whole spectrum-and-bearing computation).
	Bearing BearingMode
	// Estimator computes pseudospectra; default is MUSIC with
	// MDL-selected source count, which handles the partially-coherent
	// multipath of packet-scale covariances. Estimators that implement
	// music.ManifoldEstimator run on the AP's precomputed scan manifold
	// and receive the packet's true snapshot count. A non-nil Estimator
	// must be safe for concurrent Pseudospectrum calls if the batch
	// entry points are used (the estimators in internal/music all are).
	Estimator music.Estimator
	// Policy is the signature matching threshold for spoof detection.
	Policy signature.MatchPolicy
	// CalSamples is the calibration capture length (default 2000).
	CalSamples int
	// Detector configures Schmidl-Cox packet detection.
	Detector detect.Config
	// Workers bounds the worker pool ObserveBatch and
	// ProcessStreamsBatch fan estimation out on. Zero means one worker
	// per CPU (GOMAXPROCS); negative values are rejected by Validate.
	Workers int
	// DeferCalibration skips the constructor's section 2.2 calibration
	// pass. Observations fail with ErrNotCalibrated until the AP's
	// Calibrate method runs — the service posture where an AP comes up,
	// registers with the controller, and calibrates on command.
	DeferCalibration bool
}

// DefaultConfig returns the settings used throughout the evaluation.
// Workers is left at zero, which means one worker per CPU (GOMAXPROCS)
// in every batch/stream entry point.
func DefaultConfig() Config {
	return Config{
		GridStepDeg: 1,
		Estimator:   nil, // auto-MUSIC per packet
		Policy:      signature.DefaultPolicy(),
		CalSamples:  2000,
		Detector:    detect.DefaultConfig(),
	}
}

// WithDefaults fills zero-valued knobs with the evaluation defaults
// (the tolerant pre-v2 constructor behavior): grid step 1 degree, 2000
// calibration samples, the default detector and policy. Workers stays
// zero — zero already means GOMAXPROCS.
func (c Config) WithDefaults() Config {
	if c.GridStepDeg == 0 {
		c.GridStepDeg = 1
	}
	if c.CalSamples == 0 {
		c.CalSamples = 2000
	}
	if c.Detector.HalfLen == 0 {
		c.Detector = detect.DefaultConfig()
	}
	if c.Policy == (signature.MatchPolicy{}) {
		c.Policy = signature.DefaultPolicy()
	}
	return c
}

// Validate rejects configurations no pipeline can run: a negative
// worker bound, a zero or negative pseudospectrum step, a non-positive
// calibration capture length, or a match policy without a usable
// threshold. A zero-valued knob is not automatically an error — NewAP
// and the secureangle.New facade fill defaults (withDefaults) before
// validating, so only genuinely contradictory settings fail.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers %d is negative (0 means GOMAXPROCS)", c.Workers)
	}
	if c.GridStepDeg <= 0 {
		return fmt.Errorf("core: GridStepDeg %g must be positive", c.GridStepDeg)
	}
	if c.CalSamples <= 0 {
		return fmt.Errorf("core: CalSamples %d must be positive", c.CalSamples)
	}
	if err := c.Policy.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Bearing < BearingAuto || c.Bearing > BearingESPRIT {
		return fmt.Errorf("core: unknown BearingMode %d", c.Bearing)
	}
	return nil
}

// AP is one SecureAngle access point.
type AP struct {
	Name string
	FE   *radio.FrontEnd
	Env  *env.Environment

	cfg      Config
	offsets  []float64
	grid     []float64
	manifold *antenna.Manifold

	// ULA geometry for the grid-free bearing estimators; ulaOK is false
	// on arrays they cannot serve (the circular octagon).
	ulaSpacingWl float64
	ulaAxisDeg   float64
	ulaOK        bool
	// scratch pools per-packet pipeline buffers (see pipeScratch).
	scratch sync.Pool

	// prepMu serialises the order-sensitive half of every capture (the
	// front end's noise-stream forks) across concurrent callers, so a
	// batch's captures fork back to back.
	prepMu   sync.Mutex
	registry *shardedRegistry
	// measures is the AP's active-countermeasure table: the runtime face
	// of controller defense directives (quarantine drops, null-steer
	// weights). See countermeasure.go.
	measures countermeasures
}

// NewAP builds an AP and immediately runs the section 2.2 calibration
// procedure against its front end, so subsequent observations are phase
// coherent (unless cfg.DeferCalibration postpones it). Zero-valued
// config knobs take the evaluation defaults; a config that fails
// Validate after defaulting (negative Workers, negative grid step, a
// broken match policy) is a programming error and panics — callers that
// want an error instead validate first, as secureangle.New does.
func NewAP(name string, fe *radio.FrontEnd, e *env.Environment, cfg Config) *AP {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	grid := fe.Array.ScanGrid(cfg.GridStepDeg)
	ap := &AP{
		Name:     name,
		FE:       fe,
		Env:      e,
		cfg:      cfg,
		grid:     grid,
		manifold: antenna.NewManifold(fe.Array, grid),
		registry: newShardedRegistry(),
	}
	ap.ulaSpacingWl, ap.ulaAxisDeg, ap.ulaOK = music.ULAGeometry(fe.Array)
	if !cfg.DeferCalibration {
		ap.offsets = fe.Calibrate(cfg.CalSamples)
	}
	return ap
}

// Calibrate runs the section 2.2 procedure now — the deferred half of
// Config.DeferCalibration. Not safe to call concurrently with
// observations (calibration is a setup step, not a hot-path one).
func (ap *AP) Calibrate() {
	ap.offsets = ap.FE.Calibrate(ap.cfg.CalSamples)
}

// Calibrated reports whether calibration offsets are in place.
func (ap *AP) Calibrated() bool { return ap.offsets != nil }

// NewAPFromCapture builds an AP whose calibration offsets come from a
// recorded calibration capture (one stream per chain of the reference
// tone) rather than from the live front end — the constructor offline
// replay uses, where the recorded streams carry the recording rig's
// offsets, not this front end's.
func NewAPFromCapture(name string, fe *radio.FrontEnd, e *env.Environment, cfg Config, calStreams [][]complex128) *AP {
	ap := NewAP(name, fe, e, cfg)
	ap.offsets = radio.EstimateOffsets(calStreams)
	return ap
}

// Grid returns the AP's pseudospectrum bearing grid.
func (ap *AP) Grid() []float64 { return append([]float64(nil), ap.grid...) }

// Offsets returns the calibration offsets in use.
func (ap *AP) Offsets() []float64 { return append([]float64(nil), ap.offsets...) }

// Report is the physical-layer result for one received packet.
type Report struct {
	AP         string
	APPos      geom.Point
	BearingDeg float64
	Spectrum   *music.Pseudospectrum
	Sig        *signature.Signature
	Detection  detect.Detection
	// Sources is the signal-subspace dimension MDL selected.
	Sources int
	// SNRdB is the in-band SNR estimated from the covariance eigenvalues.
	SNRdB float64
	// Trace is the 64-bit decision-trace ID minted for this packet —
	// the handle every downstream hop (spoof check, wire report,
	// fusion, defense, directive, ack) records its span under, and the
	// key `secureangle incident` reconstructs the timeline by.
	Trace uint64
}

// Observe receives a transmission from tx through the environment and
// runs the full pipeline, returning the bearing report. Failures are
// *PipelineError values wrapping the taxonomy sentinels (ErrBlocked,
// ErrNotDetected, ...).
func (ap *AP) Observe(tx geom.Point, baseband []complex128) (*Report, error) {
	return ap.ObserveContext(context.Background(), tx, baseband)
}

// ObserveContext is Observe honouring ctx: a cancelled context stops
// the pipeline at the next stage boundary and returns the ctx error
// wrapped in a StageDispatch PipelineError. One observation is a batch
// of one: it runs the serial and concurrent halves ObserveBatchContext
// runs per item, so N ObserveContext calls draw, bit for bit, the
// captures one batch of the same N transmissions draws.
func (ap *AP) ObserveContext(ctx context.Context, tx geom.Point, baseband []complex128) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, ap.stageErr(StageDispatch, err)
	}
	ap.prepMu.Lock()
	p, err := ap.prepare(tx, baseband)
	ap.prepMu.Unlock()
	if err != nil {
		return nil, err
	}
	return ap.observePrepared(ctx, &p, baseband)
}

// prepare is the serial half of one capture: it resolves the channel
// from tx and forks the capture's noise stream from the front end's
// (radio.PrepareReceive). The caller holds prepMu, so the captures of
// one batch fork back to back, in item order.
func (ap *AP) prepare(tx geom.Point, baseband []complex128) (radio.PreparedReceive, error) {
	p, err := ap.FE.PrepareReceive(ap.Env, tx, len(baseband))
	if err != nil {
		return p, ap.stageErr(StageReceive, err)
	}
	return p, nil
}

// observePrepared is the concurrent half of one capture: the
// synthesis into a pooled scratch's arena, timed as the receive stage,
// then the estimation pipeline on the same scratch. Observe, the batch
// workers and the Stream workers all run it.
func (ap *AP) observePrepared(ctx context.Context, p *radio.PreparedReceive, baseband []complex128) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, ap.stageErr(StageDispatch, err)
	}
	sc := ap.getScratch()
	defer ap.putScratch(sc)
	tRecv := time.Now()
	streams, err := ap.FE.ReceivePreparedArena(p, baseband, sc.arena)
	if err != nil {
		return nil, ap.stageErr(StageReceive, err)
	}
	mReceiveSeconds.ObserveSince(tRecv)
	return ap.processScratch(streams, sc)
}

// Receive propagates baseband from tx to the AP's antennas and returns
// the raw capture without running the estimation stages — the synthesis
// half of Observe, drawing the capture an Observe in its place would.
// Callers that must consume channel and noise realisations in a fixed
// order but want the estimation fanned out (the experiment sweeps)
// capture serially with Receive and then hand the captures to
// ProcessStreamsBatch.
func (ap *AP) Receive(tx geom.Point, baseband []complex128) ([][]complex128, error) {
	return ap.FE.Receive(ap.Env, tx, baseband)
}

// ProcessStreams runs the detection + estimation pipeline on raw
// per-antenna streams captured elsewhere (e.g. replayed from an iqfile
// recording). Calibration offsets are applied exactly as in the live
// path: to the detected packet window, in place. Samples outside that
// window are left as captured.
func (ap *AP) ProcessStreams(streams [][]complex128) (*Report, error) {
	return ap.process(streams)
}

// process runs detection + estimation on already-received streams with a
// pooled scratch. It is a pure function of the streams and the AP's
// immutable configuration, so the batch entry points run it concurrently
// from a worker pool (each worker holding its own scratch). Every
// failure is a *PipelineError naming the stage that produced it.
func (ap *AP) process(streams [][]complex128) (*Report, error) {
	sc := ap.getScratch()
	defer ap.putScratch(sc)
	return ap.processScratch(streams, sc)
}

// processScratch is the pipeline body. Everything intermediate — the
// detection metric, packet windows, covariance, eigensystem, grid-free
// polynomial buffers — lives in sc; only the Report and the slices it
// carries (spectrum values, signature) are allocated.
func (ap *AP) processScratch(streams [][]complex128, sc *pipeScratch) (*Report, error) {
	mPackets.Inc()
	t0 := time.Now()
	// Mint the packet's trace ID up front so the stage histograms can
	// exemplar-link it even when a later stage fails the packet.
	tr := trace.NextID()
	if ap.offsets == nil {
		return nil, ap.stageErr(StageCalibrate, ErrNotCalibrated)
	}
	if len(streams) == 0 || len(streams[0]) < len(streams) {
		// Fewer snapshots than antennas: the covariance cannot reach
		// full rank, so nothing downstream is meaningful.
		return nil, ap.stageErr(StageAlign, ErrTooFewSnapshots)
	}
	// Detection and the packet extent read stream 0 alone, whose
	// calibration offset is 0 by construction (EstimateOffsets measures
	// every chain relative to chain 0), so calibration waits for the
	// packet window and rotates only the samples the covariance reads.
	sc.dets = detect.FindArena(streams[0], ap.cfg.Detector, sc.arena, sc.dets[:0])
	if len(sc.dets) == 0 {
		return nil, ap.stageErr(StageDetect, ErrNotDetected)
	}
	det := sc.dets[0]

	// Packet extent: from the detected start to where smoothed power
	// falls back toward the noise floor ("compute the correlation matrix
	// ... with each entire packet", section 3).
	n := packetExtent(streams[0], det.Start, sc.arena)
	if n < len(streams) {
		return nil, ap.stageErr(StageAlign, ErrTooFewSnapshots)
	}
	win, ok := detect.ExtractAlignedArena(streams, det, n, sc.arena)
	if !ok {
		return nil, ap.stageErr(StageAlign, errors.New("detection window out of range"))
	}
	radio.ApplyCalibration(win, ap.offsets)
	mDetectSeconds.ObserveSinceExemplar(t0, tr)
	tEst := time.Now()

	r, err := music.CovarianceInto(&sc.cov, win)
	if err != nil {
		return nil, ap.stageErr(StageEstimate, err)
	}

	var (
		ps      *music.Pseudospectrum
		bearing float64
		sources int
		snr     float64
	)
	switch est := ap.cfg.Estimator; est {
	case nil:
		// Default auto-MUSIC path: one eigendecomposition per packet,
		// shared between the manifold scan (whose MDL model order uses
		// the packet's true snapshot count n), the subspace stats, and
		// the grid-free bearing estimators.
		eig, err := sc.eig.HermEig(r)
		if err != nil {
			return nil, ap.stageErr(StageEstimate, err)
		}
		ps = &music.Pseudospectrum{AnglesDeg: ap.grid, P: make([]float64, len(ap.grid))}
		k, err := (&music.MUSIC{}).PseudospectrumFromEigInto(ps, eig, ap.manifold, n)
		if err != nil {
			return nil, ap.stageErr(StageEstimate, err)
		}
		sources, snr = k, snrFromEig(eig.Values, k)
		bearing = ap.bearingFromEig(eig, k, r, ps, sc)
	default:
		if me, ok := est.(music.ManifoldEstimator); ok {
			ps, err = me.PseudospectrumOnManifold(r, ap.manifold, n)
		} else {
			ps, err = est.Pseudospectrum(r, ap.FE.Array, ap.grid)
		}
		if err == nil && len(ps.P) != len(ap.grid) {
			// The peak ranking reads the manifold by grid index.
			err = fmt.Errorf("estimator %s returned %d values for a %d-angle grid", est.Name(), len(ps.P), len(ap.grid))
		}
		if err != nil {
			return nil, ap.stageErr(StageEstimate, err)
		}
		sources, snr = subspaceStats(&sc.eig, r, n)
		bearing = ap.rankPeaksScratch(ps, r, sc)
	}

	rep := &Report{
		AP:         ap.Name,
		APPos:      ap.FE.Pos,
		BearingDeg: bearing,
		Spectrum:   ps,
		Sig:        signature.FromPseudospectrum(ps),
		Detection:  det,
		Sources:    sources,
		SNRdB:      snr,
		Trace:      tr,
	}
	mEstimateSeconds.ObserveSinceExemplar(tEst, tr)
	mPacketSeconds.ObserveSinceExemplar(t0, tr)
	mReports.Inc()
	trace.Default().Record(trace.Span{
		Trace: tr,
		Stage: trace.StageObserve,
		Start: t0.UnixNano(),
		Dur:   int64(time.Since(t0)),
		AP:    ap.Name,
	})
	return rep, nil
}

// subspaceStats reports the MDL source count and an eigenvalue-based SNR
// estimate (signal eigenvalue mass over noise eigenvalue mass), using
// the eigensolver workspace ws.
func subspaceStats(ws *cmat.EigWorkspace, r *cmat.Matrix, n int) (int, float64) {
	eig, err := ws.HermEig(r)
	if err != nil {
		return 1, 0
	}
	k := music.MDLSources(eig.Values, n)
	return k, snrFromEig(eig.Values, k)
}

// snrFromEig estimates the in-band SNR from descending covariance
// eigenvalues split at signal-subspace dimension k.
func snrFromEig(eigvals []float64, k int) float64 {
	var sig, noise float64
	for i, v := range eigvals {
		if i < k {
			sig += v
		} else {
			noise += v
		}
	}
	m := len(eigvals)
	if noise <= 0 || k >= m {
		return 60
	}
	// Per-eigenvalue noise power; signal mass above the noise floor.
	noisePer := noise / float64(m-k)
	excess := sig - float64(k)*noisePer
	if excess <= 0 {
		return 0
	}
	return dsp.DB(excess / noise)
}

// packetExtent returns the number of samples from start to the end of the
// packet, found by tracking smoothed instantaneous power against the
// trailing noise floor. Scratch buffers come from ar (nil allocates).
func packetExtent(x []complex128, start int, ar *pool.Arena) int {
	const win = 80 // one OFDM symbol
	if start >= len(x) {
		return 0
	}
	rest := x[start:]
	if len(rest) <= win {
		return len(rest)
	}
	var pow, smDst []float64
	if ar == nil {
		pow = make([]float64, len(rest))
		smDst = make([]float64, len(rest)-win+1)
	} else {
		pow = ar.Float(len(rest))
		smDst = ar.Float(len(rest) - win + 1)
	}
	for i, v := range rest {
		pow[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	sm := dsp.MovingSumRealInto(smDst, pow, win)
	// Peak smoothed power near the packet head sets the reference.
	ref := 0.0
	for i := 0; i < len(sm) && i < 400; i++ {
		if sm[i] > ref {
			ref = sm[i]
		}
	}
	if ref == 0 {
		return len(rest)
	}
	end := len(sm)
	for i := 160; i < len(sm); i++ { // skip at least two symbols
		if sm[i] < ref/20 { // 13 dB below the packet body
			end = i
			break
		}
	}
	n := end + win
	if n > len(rest) {
		n = len(rest)
	}
	return n
}

// --- Spoofing prevention (section 2.3.2) ---

// FrameReport extends Report with the MAC-layer identity check.
type FrameReport struct {
	Report
	MAC      wifi.Addr
	Decision signature.Decision
	Distance float64
	// Threshold is the match policy's MaxDistance the check compared
	// Distance against; Margin() on the Verdict view gives the headroom.
	Threshold float64
	// Enrolled is true when this packet trained a new registry entry
	// (initial training stage) rather than being checked.
	Enrolled bool
	// Quarantined marks a frame from a MAC the AP holds an active
	// countermeasure directive against (see ApplyDirective); such frames
	// are to be dropped by the caller regardless of Decision.
	Quarantined bool
}

// Verdict assembles the scored spoof-check verdict of this frame.
func (fr *FrameReport) Verdict() signature.Verdict {
	return signature.Verdict{Decision: fr.Decision, Distance: fr.Distance, Threshold: fr.Threshold}
}

// ProcessFrame transmits the frame from tx, runs the pipeline, and applies
// the spoof check for the frame's transmitter address: unknown addresses
// are enrolled (training stage); known addresses are compared against
// their certified signature Scl and either accepted (updating Scl) or
// flagged.
func (ap *AP) ProcessFrame(tx geom.Point, frame *wifi.Frame, mod ofdm.Modulation) (*FrameReport, error) {
	return ap.ProcessFrameContext(context.Background(), tx, frame, mod)
}

// ProcessFrameContext is ProcessFrame honouring ctx. Pipeline failures
// carry the frame's transmitter address in their PipelineError.
func (ap *AP) ProcessFrameContext(ctx context.Context, tx geom.Point, frame *wifi.Frame, mod ofdm.Modulation) (*FrameReport, error) {
	bb, err := testbed.FrameBaseband(frame, mod)
	if err != nil {
		return nil, err
	}
	rep, err := ap.ObserveContext(ctx, tx, bb)
	if err != nil {
		return nil, withMAC(err, frame.Addr2)
	}
	return ap.spoofCheck(rep, frame.Addr2)
}

// spoofCheck runs the spoof check of one observed frame from mac: it
// enrolls or checks rep's signature against the registry, records the
// StageSpoofCheck span, stamps quarantine and, for accepted traffic,
// notes the serve bearing. ProcessFrameContext and
// ProcessFrameBatchContext both end here.
func (ap *AP) spoofCheck(rep *Report, mac wifi.Addr) (*FrameReport, error) {
	tSpoof := time.Now()
	v, enrolled, err := ap.registry.observe(mac, rep.Sig, ap.cfg.Policy)
	if err != nil {
		return nil, &PipelineError{Stage: StageSpoofCheck, AP: ap.Name, MAC: mac, Err: err}
	}
	trace.Default().Record(trace.Span{
		Trace: rep.Trace,
		Stage: trace.StageSpoofCheck,
		Start: tSpoof.UnixNano(),
		Dur:   int64(time.Since(tSpoof)),
		MAC:   mac,
		AP:    ap.Name,
	})
	fr := &FrameReport{
		Report: *rep, MAC: mac,
		Decision: v.Decision, Distance: v.Distance, Threshold: v.Threshold,
		Enrolled: enrolled, Quarantined: ap.measures.active(mac),
	}
	if v.Decision == signature.Accept && !fr.Quarantined {
		// Remember where legitimate traffic comes from: the serve bearing
		// a null-steer countermeasure preserves gain toward.
		ap.measures.noteServeBearing(rep.BearingDeg)
	}
	return fr, nil
}

// Enroll registers (or replaces) a certified signature for a MAC address.
// The registry keeps sig by reference and copies its spectrum only when
// an accepted observation first updates it, so one signature enrolled
// under many addresses is stored once. The caller must not modify sig
// afterwards.
func (ap *AP) Enroll(mac wifi.Addr, sig *signature.Signature) {
	ap.registry.enroll(mac, sig, ap.cfg.Policy)
}

// Known reports whether a MAC has a certified signature.
func (ap *AP) Known(mac wifi.Addr) bool {
	return ap.registry.known(mac)
}

// StoredSignature returns the current certified signature for a MAC: a
// fresh spectrum the caller may keep. Its AnglesDeg is the AP's own
// steering grid, not a copy; the caller must not write it.
func (ap *AP) StoredSignature(mac wifi.Addr) (*signature.Signature, bool) {
	return ap.registry.stored(mac)
}

// Identify ranks every enrolled client by signature distance to an
// observation — the primitive behind the anomaly-detection systems the
// paper cites ([1], [9]): when a frame is flagged, Identify reveals which
// known client the transmitter's physical signature actually resembles
// (often the attacker's own enrolled station).
func (ap *AP) Identify(obs *signature.Signature) ([]Identification, error) {
	return ap.registry.rank(obs)
}
